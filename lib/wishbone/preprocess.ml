open Dataflow

type contracted = {
  spec : Spec.t;
  n_super : int;
  super_of : int array;
  members : int list array;
  cpu : float array;
  placement : Movable.placement array;
  edges : (int * int * float) array;
}

(* ---- union-find with placement merging ---- *)

type uf = {
  parent : int array;
  rank : int array;
  place : Movable.placement array;
}

let uf_create placement =
  let n = Array.length placement in
  { parent = Array.init n Fun.id; rank = Array.make n 0; place = Array.copy placement }

let rec uf_find uf i =
  if uf.parent.(i) = i then i
  else begin
    let root = uf_find uf uf.parent.(i) in
    uf.parent.(i) <- root;
    root
  end

let merge_place a b =
  match (a, b) with
  | Movable.Movable, x | x, Movable.Movable -> Some x
  | Movable.Pin_node, Movable.Pin_node -> Some Movable.Pin_node
  | Movable.Pin_server, Movable.Pin_server -> Some Movable.Pin_server
  | Movable.Pin_node, Movable.Pin_server
  | Movable.Pin_server, Movable.Pin_node ->
      None

(* Returns false when the union would merge contradictory pins. *)
let uf_union uf a b =
  let ra = uf_find uf a and rb = uf_find uf b in
  if ra = rb then true
  else
    match merge_place uf.place.(ra) uf.place.(rb) with
    | None -> false
    | Some p ->
        let big, small =
          if uf.rank.(ra) >= uf.rank.(rb) then (ra, rb) else (rb, ra)
        in
        uf.parent.(small) <- big;
        if uf.rank.(big) = uf.rank.(small) then
          uf.rank.(big) <- uf.rank.(big) + 1;
        uf.place.(big) <- p;
        true

let build_quotient (spec : Spec.t) uf =
  let n = Graph.n_ops spec.graph in
  (* dense supernode ids *)
  let super_of = Array.make n (-1) in
  let n_super = ref 0 in
  for i = 0 to n - 1 do
    let r = uf_find uf i in
    if super_of.(r) < 0 then begin
      super_of.(r) <- !n_super;
      incr n_super
    end
  done;
  for i = 0 to n - 1 do
    super_of.(i) <- super_of.(uf_find uf i)
  done;
  let k = !n_super in
  let members = Array.make k [] in
  let cpu = Array.make k 0. in
  let placement = Array.make k Movable.Movable in
  for i = n - 1 downto 0 do
    let s = super_of.(i) in
    members.(s) <- i :: members.(s);
    cpu.(s) <- cpu.(s) +. spec.cpu.(i);
    placement.(s) <- uf.place.(uf_find uf i)
  done;
  (* one quotient edge per (src, dst) supernode pair, in (src, dst)
     order: a stable sort of the crossing edges on the integer key
     [src * k + dst] keeps each pair's edges in graph order, so every
     bandwidth sum adds in that order *)
  let all = Graph.edges spec.graph in
  let key =
    Array.map
      (fun (e : Graph.edge) -> (super_of.(e.src) * k) + super_of.(e.dst))
      all
  in
  let crossing = Array.make (Array.length all) 0 and n_cross = ref 0 in
  Array.iteri
    (fun j (e : Graph.edge) ->
      if super_of.(e.src) <> super_of.(e.dst) then begin
        crossing.(!n_cross) <- j;
        incr n_cross
      end)
    all;
  let n_cross = !n_cross in
  let crossing = Array.sub crossing 0 n_cross in
  Array.stable_sort (fun a b -> Int.compare key.(a) key.(b)) crossing;
  let n_pairs = ref 0 in
  for t = 0 to n_cross - 1 do
    if t = 0 || key.(crossing.(t)) <> key.(crossing.(t - 1)) then
      incr n_pairs
  done;
  let edges = Array.make !n_pairs (0, 0, 0.) and t = ref 0 in
  for q = 0 to !n_pairs - 1 do
    let first = crossing.(!t) in
    let sum = ref 0. in
    while !t < n_cross && key.(crossing.(!t)) = key.(first) do
      sum := !sum +. spec.bandwidth.(all.(crossing.(!t)).eid);
      incr t
    done;
    let e = all.(first) in
    edges.(q) <- (super_of.(e.src), super_of.(e.dst), !sum)
  done;
  { spec; n_super = k; super_of; members; cpu; placement; edges }

let identity spec = build_quotient spec (uf_create spec.placement)

(* Tarjan SCC over the quotient edge list. *)
let sccs n (edges : (int * int * float) array) =
  let succs = Array.make n [] in
  Array.iter (fun (u, v, _) -> succs.(u) <- v :: succs.(u)) edges;
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let comp_of = Array.make n (-1) in
  let n_comp = ref 0 in
  (* iterative Tarjan to avoid stack overflow on long pipelines *)
  let rec strongconnect v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          low.(v) <- Int.min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- Int.min low.(v) index.(w))
      succs.(v);
    if low.(v) = index.(v) then begin
      let c = !n_comp in
      incr n_comp;
      let rec popall () =
        match !stack with
        | [] -> ()
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            comp_of.(w) <- c;
            if w <> v then popall ()
      in
      popall ()
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  (comp_of, !n_comp)

let out_in_bw (spec : Spec.t) v =
  let out =
    List.fold_left
      (fun acc (e : Graph.edge) -> acc +. spec.bandwidth.(e.eid))
      0.
      (Graph.succs spec.graph v)
  in
  let inb =
    List.fold_left
      (fun acc (e : Graph.edge) -> acc +. spec.bandwidth.(e.eid))
      0.
      (Graph.preds spec.graph v)
  in
  (out, inb)

let contract spec =
  let graph = spec.Spec.graph in
  let uf = uf_create spec.placement in
  Array.iter
    (fun v ->
      (* merge a data-expanding or data-neutral movable operator with
         its single downstream operator.  The local-improvement
         argument (a cut below v is never better than a cut above v)
         only holds when v has one output edge; for fan-out the forced
         co-location of all successors can eliminate optima, so we
         leave those vertices alone. *)
      if spec.placement.(v) = Movable.Movable
         && Graph.out_degree graph v = 1
      then begin
        let out, inb = out_in_bw spec v in
        if out >= inb -. 1e-12 then
          List.iter
            (fun (e : Graph.edge) -> ignore (uf_union uf v e.dst))
            (Graph.succs graph v)
      end)
    (Graph.topo_order graph);
  let q = build_quotient spec uf in
  (* collapse any SCCs the contraction introduced *)
  let comp_of, n_comp = sccs q.n_super q.edges in
  if n_comp = q.n_super then q
  else begin
    (* merge whole components in the union-find; back off entirely on
       a pin conflict *)
    let rep = Array.make n_comp (-1) in
    let ok = ref true in
    Array.iteri
      (fun s c ->
        (* s is a supernode; use any original member as uf element *)
        let m = List.hd q.members.(s) in
        if rep.(c) < 0 then rep.(c) <- m
        else if not (uf_union uf rep.(c) m) then ok := false)
      comp_of;
    if !ok then build_quotient spec uf else identity spec
  end

let reduction c =
  let orig = Movable.movable_count c.spec.Spec.placement in
  let super = Movable.movable_count c.placement in
  (orig, super)
