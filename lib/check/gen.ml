open Dataflow

type cfg = {
  n_ops : int;
  extra_edge_prob : float;
  stateful_prob : float;
  mode : Wishbone.Movable.mode;
  tightness : float;
  alpha : float;
  beta : float;
}

let default_cfg =
  {
    n_ops = 8;
    extra_edge_prob = 0.2;
    stateful_prob = 0.2;
    mode = Wishbone.Movable.Conservative;
    tightness = 0.5;
    alpha = 0.;
    beta = 1.;
  }

(* ---- deterministic integer work functions --------------------------

   Every interior operator computes an exact integer function of its
   inputs (port-sensitive, so fan-in matters), which makes the
   split-equivalence oracle a bitwise comparison rather than a float
   tolerance judgement. *)

let as_int = function Value.Int i -> i | v -> Value.size_bytes v

let affine_instance m a =
  {
    Op.work =
      (fun ~port v ->
        let x = as_int v + (7 * port) in
        ([ Value.Int ((m * x) + a) ], Workload.make ~int_ops:2. ()));
    reset = (fun () -> ());
  }

let filter_instance k =
  {
    Op.work =
      (fun ~port v ->
        let x = as_int v + (7 * port) in
        let out = if (x + k) mod 3 = 0 then [] else [ Value.Int x ] in
        (out, Workload.make ~int_ops:1. ~branch_ops:1. ()));
    reset = (fun () -> ());
  }

let expander_instance a =
  {
    Op.work =
      (fun ~port v ->
        let x = as_int v + (7 * port) in
        ([ Value.Int x; Value.Int (x + a) ], Workload.make ~int_ops:2. ()));
    reset = (fun () -> ());
  }

let counter_instance () =
  let c = ref 0 in
  {
    Op.work =
      (fun ~port v ->
        let x = as_int v + (7 * port) in
        incr c;
        ([ Value.Int (x + !c) ], Workload.make ~int_ops:2. ()));
    reset = (fun () -> c := 0);
  }

let decimator_instance () =
  let seen = ref 0 in
  {
    Op.work =
      (fun ~port v ->
        let x = as_int v + (7 * port) in
        incr seen;
        let out = if !seen mod 2 = 0 then [ Value.Int x ] else [] in
        (out, Workload.make ~int_ops:1. ~branch_ops:1. ()));
    reset = (fun () -> seen := 0);
  }

let passthrough_instance () =
  { Op.work = (fun ~port:_ v -> ([ v ], Workload.make ~call_ops:1. ()));
    reset = (fun () -> ()) }

let sink_instance () =
  { Op.work = (fun ~port:_ _ -> ([], Workload.make ~call_ops:1. ()));
    reset = (fun () -> ()) }

let interior_op rng ~id ~stateful_prob =
  let stateful = Prng.bool rng stateful_prob in
  let kind, fresh =
    if stateful then
      if Prng.bool rng 0.5 then ("counter", counter_instance)
      else ("decimator", decimator_instance)
    else begin
      match Prng.int rng 3 with
      | 0 ->
          let m = 1 + Prng.int rng 3 and a = Prng.int rng 11 - 5 in
          ("affine", fun () -> affine_instance m a)
      | 1 ->
          let k = Prng.int rng 3 in
          ("filter", fun () -> filter_instance k)
      | _ ->
          let a = 1 + Prng.int rng 5 in
          ("expander", fun () -> expander_instance a)
    end
  in
  {
    Op.id;
    name = Printf.sprintf "%s%d" kind id;
    kind;
    namespace = Op.Node;
    stateful;
    side_effect = Op.Pure;
    fresh;
  }

let graph rng cfg =
  if cfg.n_ops < 3 then invalid_arg "Check.Gen.graph: need at least 3 ops";
  let n = cfg.n_ops in
  let sink = n - 1 in
  let ops =
    Array.init n (fun id ->
        if id = 0 then
          { Op.id; name = "src"; kind = "source"; namespace = Op.Node;
            stateful = false; side_effect = Op.Sensor_input;
            fresh = passthrough_instance }
        else if id = sink then
          { Op.id; name = "out"; kind = "sink"; namespace = Op.Server;
            stateful = false; side_effect = Op.Display_output;
            fresh = sink_instance }
        else interior_op rng ~id ~stateful_prob:cfg.stateful_prob)
  in
  (* spine: every interior op reads from a random earlier op, ports
     assigned densely per destination *)
  let in_count = Array.make n 0 in
  let edges = ref [] in
  let add_edge u v =
    edges := (u, v, in_count.(v)) :: !edges;
    in_count.(v) <- in_count.(v) + 1
  in
  for v = 1 to sink - 1 do
    add_edge (Prng.int rng v) v
  done;
  for u = 0 to sink - 2 do
    for v = u + 1 to sink - 1 do
      if Prng.bool rng cfg.extra_edge_prob then add_edge u v
    done
  done;
  (* every terminal op feeds the sink so the DAG is connected *)
  let has_out = Array.make n false in
  List.iter (fun (u, _, _) -> has_out.(u) <- true) !edges;
  for u = 0 to sink - 1 do
    if not has_out.(u) then add_edge u sink
  done;
  Graph.make ops (List.rev !edges)

let spec rng cfg =
  let g = graph rng cfg in
  match Wishbone.Movable.classify cfg.mode g with
  | Error msg ->
      (* cannot happen for the shapes generated above: the only
         server-pinned operator is the sink, which has no successors *)
      invalid_arg ("Check.Gen.spec: " ^ msg)
  | Ok placement ->
      let n = Graph.n_ops g in
      let sink = n - 1 in
      let cpu =
        Array.init n (fun i ->
            if i = 0 || i = sink then 0.01 else Prng.uniform rng 0.01 0.3)
      in
      let bw =
        Array.init (Graph.n_edges g) (fun _ -> Prng.uniform rng 1. 100.)
      in
      let cpu_pinned = ref 0. and cpu_total = ref 0. in
      Array.iteri
        (fun i c ->
          cpu_total := !cpu_total +. c;
          if placement.(i) = Wishbone.Movable.Pin_node then
            cpu_pinned := !cpu_pinned +. c)
        cpu;
      let frac = 1. -. (cfg.tightness *. Prng.uniform rng 0.5 1.) in
      let cpu_budget =
        !cpu_pinned +. (frac *. (!cpu_total -. !cpu_pinned)) +. 1e-3
      in
      let total_bw = Array.fold_left ( +. ) 0. bw in
      let net_budget =
        (total_bw *. (1. -. (cfg.tightness *. Prng.uniform rng 0.5 1.))) +. 1.
      in
      {
        Wishbone.Spec.graph = g;
        placement;
        cpu;
        bandwidth = bw;
        cpu_budget;
        net_budget;
        alpha = cfg.alpha;
        beta = cfg.beta;
      }

let random_cut rng (spec : Wishbone.Spec.t) =
  let g = spec.Wishbone.Spec.graph in
  let n = Graph.n_ops g in
  let on_node = Array.make n false in
  Array.iter
    (fun v ->
      on_node.(v) <-
        (match spec.Wishbone.Spec.placement.(v) with
        | Wishbone.Movable.Pin_node -> true
        | Wishbone.Movable.Pin_server -> false
        | Wishbone.Movable.Movable ->
            List.for_all
              (fun (e : Graph.edge) -> on_node.(e.src))
              (Graph.preds g v)
            && Prng.bool rng 0.6))
    (Graph.topo_order g);
  on_node

(* ---- random LPs / ILPs ---- *)

let lp rng ~size =
  let p = Lp.Problem.create () in
  let n = 2 + Prng.int rng (Int.max 1 size) in
  let vars =
    Array.init n (fun _ ->
        let lo = if Prng.bool rng 0.3 then -.Prng.uniform rng 0. 3. else 0. in
        let hi =
          if Prng.bool rng 0.15 then infinity
          else lo +. Prng.uniform rng 0.5 8.
        in
        Lp.Problem.add_var ~lo ~hi p)
  in
  let m = 1 + Prng.int rng (n + 1) in
  for _ = 1 to m do
    let terms =
      Array.to_list
        (Array.map
           (fun v ->
             let c =
               if Prng.bool rng 0.3 then 0. else Prng.uniform rng (-3.) 3.
             in
             (v, c))
           vars)
    in
    let sense =
      let u = Prng.float rng in
      if u < 0.6 then Lp.Problem.Le
      else if u < 0.85 then Lp.Problem.Ge
      else Lp.Problem.Eq
    in
    Lp.Problem.add_constr p terms sense (Prng.uniform rng (-4.) 8.)
  done;
  let dir =
    if Prng.bool rng 0.5 then Lp.Problem.Maximize else Lp.Problem.Minimize
  in
  Lp.Problem.set_objective p dir
    (Array.to_list
       (Array.map (fun v -> (v, Prng.uniform rng (-3.) 3.)) vars));
  p

let ilp rng ~size =
  let p = Lp.Problem.create () in
  let n = 2 + Prng.int rng (Int.max 1 (Int.min size 6)) in
  let vars =
    Array.init n (fun _ ->
        let lo = if Prng.bool rng 0.2 then -1. else 0. in
        let hi = lo +. Float.of_int (1 + Prng.int rng 2) in
        Lp.Problem.add_var ~lo ~hi ~integer:true p)
  in
  let m = 1 + Prng.int rng 4 in
  for _ = 1 to m do
    let terms =
      Array.to_list
        (Array.map
           (fun v -> (v, Float.of_int (Prng.int rng 7 - 3)))
           vars)
    in
    let sense =
      if Prng.bool rng 0.75 then Lp.Problem.Le else Lp.Problem.Ge
    in
    Lp.Problem.add_constr p terms sense (Float.of_int (Prng.int rng 10 - 2))
  done;
  let dir =
    if Prng.bool rng 0.5 then Lp.Problem.Maximize else Lp.Problem.Minimize
  in
  Lp.Problem.set_objective p dir
    (Array.to_list
       (Array.map (fun v -> (v, Float.of_int (Prng.int rng 11 - 5))) vars));
  p

let resources rng (spec : Wishbone.Spec.t) =
  let n = Graph.n_ops spec.Wishbone.Spec.graph in
  let count = Prng.int rng 3 in
  List.init count (fun k ->
      let per_op = Array.init n (fun _ -> Prng.uniform rng 0. 10.) in
      let pinned = ref 0. and total = ref 0. in
      Array.iteri
        (fun i c ->
          total := !total +. c;
          if spec.Wishbone.Spec.placement.(i) = Wishbone.Movable.Pin_node
          then pinned := !pinned +. c)
        per_op;
      let frac = Prng.uniform rng 0.3 1.1 in
      {
        Wishbone.Placement.rname = (if k = 0 then "ram" else "flash");
        per_op;
        budget = !pinned +. (frac *. (!total -. !pinned)) +. 1e-3;
      })

let pp_spec ppf (s : Wishbone.Spec.t) =
  let g = s.Wishbone.Spec.graph in
  let placement_letter = function
    | Wishbone.Movable.Pin_node -> 'N'
    | Wishbone.Movable.Pin_server -> 'S'
    | Wishbone.Movable.Movable -> 'M'
  in
  Format.fprintf ppf "@[<v>spec: %d ops, %d edges@," (Graph.n_ops g)
    (Graph.n_edges g);
  Array.iter
    (fun (o : Op.t) ->
      Format.fprintf ppf "  op %d %s [%c] cpu=%.4f%s@," o.Op.id o.Op.name
        (placement_letter s.Wishbone.Spec.placement.(o.Op.id))
        s.Wishbone.Spec.cpu.(o.Op.id)
        (if o.Op.stateful then " stateful" else ""))
    (Graph.ops g);
  Array.iter
    (fun (e : Graph.edge) ->
      Format.fprintf ppf "  edge %d: %d -> %d (port %d) bw=%.3f@," e.eid
        e.src e.dst e.dst_port
        s.Wishbone.Spec.bandwidth.(e.eid))
    (Graph.edges g);
  Format.fprintf ppf "  cpu_budget=%.6f net_budget=%.3f alpha=%g beta=%g@]"
    s.Wishbone.Spec.cpu_budget s.Wishbone.Spec.net_budget
    s.Wishbone.Spec.alpha s.Wishbone.Spec.beta
