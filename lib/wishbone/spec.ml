open Dataflow

type t = {
  graph : Graph.t;
  placement : Movable.placement array;
  cpu : float array;
  bandwidth : float array;
  cpu_budget : float;
  net_budget : float;
  alpha : float;
  beta : float;
}

let of_profile ?(mode = Movable.Conservative) ?(use_peak = false) ?cpu_budget
    ?net_budget ?(alpha = 0.) ?(beta = 1.) ~node_platform raw =
  let graph = Profiler.Profile.graph raw in
  match Movable.classify mode graph with
  | Error _ as e -> e
  | Ok placement ->
      let costed = Profiler.Profile.cost raw node_platform in
      let cpu =
        if use_peak then costed.peak_cpu_fraction else costed.cpu_fraction
      in
      let bandwidth =
        Array.init (Graph.n_edges graph) (fun e ->
            if use_peak then Profiler.Profile.edge_peak_bytes_per_sec raw e
            else Profiler.Profile.edge_bytes_per_sec raw e)
      in
      let cpu_budget =
        match cpu_budget with
        | Some c -> c
        | None -> node_platform.Profiler.Platform.cpu_budget
      in
      let net_budget =
        match net_budget with
        | Some n -> n
        | None -> node_platform.Profiler.Platform.radio_bytes_per_sec
      in
      Ok { graph; placement; cpu; bandwidth; cpu_budget; net_budget; alpha; beta }

let scale_rate t factor =
  if not (factor > 0.) then
    invalid_arg "Spec.scale_rate: factor must be positive";
  {
    t with
    cpu = Array.map (fun c -> c *. factor) t.cpu;
    bandwidth = Array.map (fun b -> b *. factor) t.bandwidth;
  }

let cut_stats t ~node_side =
  let cpu = ref 0. in
  Array.iteri (fun i c -> if node_side.(i) then cpu := !cpu +. c) t.cpu;
  let net = ref 0. in
  Array.iter
    (fun (e : Graph.edge) ->
      if node_side.(e.src) <> node_side.(e.dst) then
        net := !net +. t.bandwidth.(e.eid))
    (Graph.edges t.graph);
  (!cpu, !net)

let feasible ?(require_single_crossing = true) t ~node_side =
  let pin_ok =
    Array.for_all2
      (fun p on_node ->
        match p with
        | Movable.Pin_node -> on_node
        | Movable.Pin_server -> not on_node
        | Movable.Movable -> true)
      t.placement node_side
  in
  let one_crossing =
    Array.for_all
      (fun (e : Graph.edge) -> node_side.(e.src) || not node_side.(e.dst))
      (Graph.edges t.graph)
  in
  let cpu, net = cut_stats t ~node_side in
  pin_ok
  && ((not require_single_crossing) || one_crossing)
  && cpu <= t.cpu_budget +. 1e-9
  && net <= t.net_budget +. 1e-6

let objective_value t ~node_side =
  let cpu, net = cut_stats t ~node_side in
  (t.alpha *. cpu) +. (t.beta *. net)
