open Dataflow

(* ---- spec shrinking ---- *)

(* Rebuild a spec from op-keep decisions and an explicit edge list of
   (src, dst, bandwidth) in old vertex numbering; ids are renumbered
   densely and destination ports reassigned densely in list order. *)
let rebuild_spec (s : Wishbone.Spec.t) ~keep ~edges =
  let g = s.Wishbone.Spec.graph in
  let n = Graph.n_ops g in
  let remap = Array.make n (-1) in
  let next = ref 0 in
  for v = 0 to n - 1 do
    if keep.(v) then begin
      remap.(v) <- !next;
      incr next
    end
  done;
  let n' = !next in
  if n' = 0 then None
  else begin
    let ops = Array.make n' (Graph.op g 0) in
    for v = 0 to n - 1 do
      if keep.(v) then
        ops.(remap.(v)) <- { (Graph.op g v) with Op.id = remap.(v) }
    done;
    let port_next = Array.make n' 0 in
    let triples = ref [] and bws = ref [] in
    List.iter
      (fun (u, w, bw) ->
        if keep.(u) && keep.(w) then begin
          let u' = remap.(u) and w' = remap.(w) in
          triples := (u', w', port_next.(w')) :: !triples;
          port_next.(w') <- port_next.(w') + 1;
          bws := bw :: !bws
        end)
      edges;
    match Graph.make ops (List.rev !triples) with
    | g' ->
        let project a =
          let out = Array.make n' a.(0) in
          for v = 0 to n - 1 do
            if keep.(v) then out.(remap.(v)) <- a.(v)
          done;
          out
        in
        Some
          {
            s with
            Wishbone.Spec.graph = g';
            placement = project s.Wishbone.Spec.placement;
            cpu = project s.Wishbone.Spec.cpu;
            bandwidth = Array.of_list (List.rev !bws);
          }
    | exception Invalid_argument _ -> None
  end

let all_edges (s : Wishbone.Spec.t) =
  Array.to_list
    (Array.map
       (fun (e : Graph.edge) -> (e.src, e.dst, s.Wishbone.Spec.bandwidth.(e.eid)))
       (Graph.edges s.Wishbone.Spec.graph))

let remove_op (s : Wishbone.Spec.t) v =
  let g = s.Wishbone.Spec.graph in
  let n = Graph.n_ops g in
  if n <= 2 then None
  else begin
    let keep = Array.make n true in
    keep.(v) <- false;
    (* splice every predecessor to every successor, inheriting the
       incoming edge's bandwidth *)
    let spliced =
      List.concat_map
        (fun (pe : Graph.edge) ->
          List.map
            (fun (se : Graph.edge) ->
              (pe.src, se.dst, s.Wishbone.Spec.bandwidth.(pe.eid)))
            (Graph.succs g v))
        (Graph.preds g v)
    in
    let kept =
      List.filter (fun (u, w, _) -> u <> v && w <> v) (all_edges s)
    in
    rebuild_spec s ~keep ~edges:(kept @ spliced)
  end

let remove_edge (s : Wishbone.Spec.t) eid =
  let g = s.Wishbone.Spec.graph in
  let keep = Array.make (Graph.n_ops g) true in
  let edges =
    List.filteri (fun i _ -> i <> eid) (all_edges s)
  in
  if List.length edges = Graph.n_edges g then None
  else rebuild_spec s ~keep ~edges

let spec_candidates (s : Wishbone.Spec.t) =
  let g = s.Wishbone.Spec.graph in
  let n = Graph.n_ops g in
  let removals =
    List.init n (fun v () -> remove_op s v)
  in
  let edge_removals =
    List.init (Graph.n_edges g) (fun e () -> remove_edge s e)
  in
  let zero_cpu =
    List.init n (fun v () ->
        if s.Wishbone.Spec.cpu.(v) <> 0. then begin
          let cpu = Array.copy s.Wishbone.Spec.cpu in
          cpu.(v) <- 0.;
          Some { s with Wishbone.Spec.cpu = cpu }
        end
        else None)
  in
  let zero_bw =
    List.init (Graph.n_edges g) (fun e () ->
        if s.Wishbone.Spec.bandwidth.(e) <> 0. then begin
          let bw = Array.copy s.Wishbone.Spec.bandwidth in
          bw.(e) <- 0.;
          Some { s with Wishbone.Spec.bandwidth = bw }
        end
        else None)
  in
  let relax =
    [
      (fun () ->
        let total = Array.fold_left ( +. ) 0. s.Wishbone.Spec.cpu in
        if s.Wishbone.Spec.cpu_budget < total then
          Some { s with Wishbone.Spec.cpu_budget = total +. 1. }
        else None);
      (fun () ->
        let total = Array.fold_left ( +. ) 0. s.Wishbone.Spec.bandwidth in
        if s.Wishbone.Spec.net_budget < total then
          Some { s with Wishbone.Spec.net_budget = total +. 1. }
        else None);
      (fun () ->
        if s.Wishbone.Spec.alpha <> 0. then
          Some { s with Wishbone.Spec.alpha = 0. }
        else None);
    ]
  in
  removals @ edge_removals @ zero_cpu @ zero_bw @ relax

let rec fixpoint candidates pred x =
  let next =
    List.find_map
      (fun f ->
        match f () with
        | Some x' when pred x' -> Some x'
        | _ -> None
        | exception _ -> None)
      (candidates x)
  in
  match next with None -> x | Some x' -> fixpoint candidates pred x'

let spec pred s = fixpoint spec_candidates pred s

(* ---- LP shrinking ---- *)

type lp_parts = {
  vars : Lp.Problem.var_info array;
  constrs : Lp.Problem.constr array;
  dir : Lp.Problem.direction;
  obj : (int * float) list;
}

let parts_of p =
  {
    vars = Lp.Problem.vars p;
    constrs = Lp.Problem.constrs p;
    dir = Lp.Problem.direction p;
    obj = Lp.Problem.objective p;
  }

let problem_of parts =
  let p = Lp.Problem.create () in
  Array.iter
    (fun (v : Lp.Problem.var_info) ->
      ignore
        (Lp.Problem.add_var ?name:v.vname ~lo:v.lo ~hi:v.hi
           ~integer:v.integer p))
    parts.vars;
  Array.iter
    (fun (c : Lp.Problem.constr) ->
      Lp.Problem.add_constr ?name:c.cname p c.terms c.sense c.rhs)
    parts.constrs;
  Lp.Problem.set_objective p parts.dir parts.obj;
  p

let drop_constr parts i =
  Some
    {
      parts with
      constrs =
        Array.of_list
          (List.filteri
             (fun j _ -> j <> i)
             (Array.to_list parts.constrs));
    }

let drop_var parts v =
  if Array.length parts.vars <= 1 then None
  else begin
    let remap u = if u < v then u else u - 1 in
    let strip terms =
      List.filter_map
        (fun (u, c) -> if u = v then None else Some (remap u, c))
        terms
    in
    Some
      {
        vars =
          Array.of_list
            (List.filteri (fun j _ -> j <> v) (Array.to_list parts.vars));
        constrs =
          Array.map
            (fun (c : Lp.Problem.constr) ->
              { c with Lp.Problem.terms = strip c.terms })
            parts.constrs;
        dir = parts.dir;
        obj = strip parts.obj;
      }
  end

let zero_term parts i j =
  let c = parts.constrs.(i) in
  if List.length c.Lp.Problem.terms <= j then None
  else begin
    let constrs = Array.copy parts.constrs in
    constrs.(i) <-
      { c with Lp.Problem.terms = List.filteri (fun k _ -> k <> j) c.terms };
    Some { parts with constrs }
  end

let zero_obj_term parts j =
  if List.length parts.obj <= j then None
  else Some { parts with obj = List.filteri (fun k _ -> k <> j) parts.obj }

let zero_rhs parts i =
  let c = parts.constrs.(i) in
  if c.Lp.Problem.rhs = 0. then None
  else begin
    let constrs = Array.copy parts.constrs in
    constrs.(i) <- { c with Lp.Problem.rhs = 0. };
    Some { parts with constrs }
  end

let problem_candidates p =
  let parts = parts_of p in
  let m = Array.length parts.constrs in
  let n = Array.length parts.vars in
  let lift f () = Option.map problem_of (f ()) in
  List.concat
    [
      List.init m (fun i -> lift (fun () -> drop_constr parts i));
      List.init n (fun v -> lift (fun () -> drop_var parts v));
      List.concat
        (List.init m (fun i ->
             List.init
               (List.length parts.constrs.(i).Lp.Problem.terms)
               (fun j -> lift (fun () -> zero_term parts i j))));
      List.init (List.length parts.obj) (fun j ->
          lift (fun () -> zero_obj_term parts j));
      List.init m (fun i -> lift (fun () -> zero_rhs parts i));
    ]

let problem pred p = fixpoint problem_candidates pred p
