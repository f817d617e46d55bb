type stream = int

type t = {
  mutable ops_rev : Op.t list;
  mutable n : int;
  mutable edges_rev : (int * int * int) list;  (* src, dst, dst_port *)
  mutable namespace : Op.namespace;
  mutable built : bool;
}

let create () =
  { ops_rev = []; n = 0; edges_rev = []; namespace = Op.Server; built = false }

let in_node b f =
  let saved = b.namespace in
  b.namespace <- Op.Node;
  Fun.protect ~finally:(fun () -> b.namespace <- saved) f

let check_alive b = if b.built then invalid_arg "Builder: already built"

let iterate b ~name ?(kind = "iterate") ?(stateful = false)
    ?(side_effect = Op.Pure) ~fresh inputs =
  check_alive b;
  let id = b.n in
  List.iter
    (fun s ->
      if s < 0 || s >= id then invalid_arg "Builder.iterate: unknown stream")
    inputs;
  let op =
    {
      Op.id;
      name;
      kind;
      namespace = b.namespace;
      stateful;
      side_effect;
      fresh;
    }
  in
  b.ops_rev <- op :: b.ops_rev;
  b.n <- id + 1;
  List.iteri
    (fun port src -> b.edges_rev <- (src, id, port) :: b.edges_rev)
    inputs;
  id

let passthrough_instance () =
  Op.stateless_instance (fun v ->
      ([ v ], Workload.make ~call_ops:1. ~mem_ops:1. ()))

let source b ~name ?(kind = "source") () =
  iterate b ~name ~kind ~side_effect:Op.Sensor_input
    ~fresh:passthrough_instance []

let sink b ~name s =
  let fresh () =
    Op.stateless_instance (fun _ -> ([], Workload.make ~call_ops:1. ()))
  in
  ignore (iterate b ~name ~kind:"sink" ~side_effect:Op.Display_output ~fresh [ s ])

let map b ~name ?(kind = "map") f s =
  let fresh () =
    Op.stateless_instance (fun v ->
        let v', w = f v in
        ([ v' ], w))
  in
  iterate b ~name ~kind ~fresh [ s ]

let stateful b ~name ?(kind = "stateful") ~init inputs =
  let fresh () =
    let work = ref (init ()) in
    {
      Op.work = (fun ~port v -> !work ~port v);
      reset = (fun () -> work := init ());
    }
  in
  iterate b ~name ~kind ~stateful:true ~fresh inputs

let op_id s = s

let build b =
  check_alive b;
  b.built <- true;
  Graph.make (Array.of_list (List.rev b.ops_rev)) (List.rev b.edges_rev)
