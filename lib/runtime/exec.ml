open Dataflow

type crossing = { edge : Graph.edge; value : Value.t }

type fired = {
  crossings : crossing list;
  workload : Workload.t;
  sink_values : Value.t list;
}

type t = {
  graph : Graph.t;
  member : bool array;
  replicated : bool array;
  (* per op, node-id keyed instances; non-replicated ops use key 0 *)
  instances : (int, Op.instance) Hashtbl.t array;
  fires : int array;
  workloads : Workload.t array;
  edge_elems : int array;
  edge_bytes : int array;
}

let create ?(replicated = fun _ -> false) ~member graph =
  let n = Graph.n_ops graph in
  {
    graph;
    member = Array.init n member;
    replicated = Array.init n replicated;
    instances = Array.init n (fun _ -> Hashtbl.create 1);
    fires = Array.make n 0;
    workloads = Array.make n Workload.zero;
    edge_elems = Array.make (Graph.n_edges graph) 0;
    edge_bytes = Array.make (Graph.n_edges graph) 0;
  }

let full graph = create ~member:(fun _ -> true) graph

let reset t =
  Array.iter (fun tbl -> Hashtbl.iter (fun _ inst -> inst.Op.reset ()) tbl)
    t.instances;
  Array.fill t.fires 0 (Array.length t.fires) 0;
  Array.fill t.workloads 0 (Array.length t.workloads) Workload.zero;
  Array.fill t.edge_elems 0 (Array.length t.edge_elems) 0;
  Array.fill t.edge_bytes 0 (Array.length t.edge_bytes) 0

let instance t ~node op_id =
  let key = if t.replicated.(op_id) then node else 0 in
  let tbl = t.instances.(op_id) in
  match Hashtbl.find_opt tbl key with
  | Some inst -> inst
  | None ->
      let inst = (Graph.op t.graph op_id).Op.fresh () in
      Hashtbl.add tbl key inst;
      inst

let fire ?(node = 0) t ~op ~port value =
  if op < 0 || op >= Array.length t.member || not t.member.(op) then
    invalid_arg "Exec.fire: operator is not a member of this partition";
  let crossings = ref [] in
  let total = ref Workload.zero in
  let sink_vals = ref [] in
  let rec deliver op_id port v =
    let inst = instance t ~node op_id in
    let outputs, w = inst.Op.work ~port v in
    t.fires.(op_id) <- t.fires.(op_id) + 1;
    t.workloads.(op_id) <- Workload.add t.workloads.(op_id) w;
    total := Workload.add !total w;
    let is_sink = (Graph.op t.graph op_id).Op.side_effect = Op.Display_output in
    (* the value consumed by a sink counts as application output *)
    if is_sink then sink_vals := v :: !sink_vals;
    List.iter
      (fun out ->
        List.iter
          (fun (e : Graph.edge) ->
            t.edge_elems.(e.eid) <- t.edge_elems.(e.eid) + 1;
            t.edge_bytes.(e.eid) <- t.edge_bytes.(e.eid) + Value.size_bytes out;
            if t.member.(e.dst) then deliver e.dst e.dst_port out
            else crossings := { edge = e; value = out } :: !crossings)
          (Graph.succs t.graph op_id))
      outputs
  in
  deliver op port value;
  {
    crossings = List.rev !crossings;
    workload = !total;
    sink_values = List.rev !sink_vals;
  }

let op_fires t i = t.fires.(i)
let op_workload t i = t.workloads.(i)
let edge_elements t eid = t.edge_elems.(eid)
let edge_bytes t eid = t.edge_bytes.(eid)
