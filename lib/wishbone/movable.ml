open Dataflow

type mode = Conservative | Permissive

type placement = Pin_node | Pin_server | Movable

let base_placement mode (op : Op.t) =
  match op.side_effect with
  | Op.Sensor_input | Op.Actuator -> Pin_node
  | Op.Display_output -> Pin_server
  | Op.Pure -> (
      match op.namespace with
      | Op.Server -> Pin_server
      | Op.Node ->
          if op.stateful then
            match mode with
            | Conservative -> Pin_node
            | Permissive -> Movable
          else Movable)

let classify mode graph =
  let n = Graph.n_ops graph in
  let placement =
    Array.init n (fun i -> base_placement mode (Graph.op graph i))
  in
  (* sanity: node-pinned hardware ops must be declared in Node{} *)
  let bad = ref None in
  Array.iteri
    (fun i p ->
      if p = Pin_node && (Graph.op graph i).Op.namespace = Op.Server then
        bad :=
          Some
            (Printf.sprintf
               "operator %s samples node hardware but is declared on the server"
               (Graph.op graph i).Op.name))
    placement;
  match !bad with
  | Some msg -> Error msg
  | None ->
      (* single-crossing closure: ancestors of node-pinned operators
         are node-pinned; descendants of server-pinned operators are
         server-pinned *)
      let node_seeds = ref [] and server_seeds = ref [] in
      Array.iteri
        (fun i p ->
          match p with
          | Pin_node -> node_seeds := i :: !node_seeds
          | Pin_server -> server_seeds := i :: !server_seeds
          | Movable -> ())
        placement;
      let must_node = Graph.ancestors graph !node_seeds in
      let must_server = Graph.descendants graph !server_seeds in
      let conflict = ref None in
      for i = 0 to n - 1 do
        if must_node.(i) && must_server.(i) && !conflict = None then
          conflict :=
            Some
              (Printf.sprintf
                 "operator %s is forced onto both node and server: the data \
                  path would cross the network more than once"
                 (Graph.op graph i).Op.name)
      done;
      (match !conflict with
      | Some msg -> Error msg
      | None ->
          for i = 0 to n - 1 do
            if must_node.(i) then placement.(i) <- Pin_node
            else if must_server.(i) then placement.(i) <- Pin_server
          done;
          Ok placement)

let movable_count placement =
  Array.fold_left
    (fun acc p -> if p = Movable then acc + 1 else acc)
    0 placement
