open Dataflow

module Trace = struct
  type event = { time : float; source : int; value : Value.t }

  let periodic ~source ~rate ~duration ~gen =
    if rate <= 0. then invalid_arg "Trace.periodic: rate must be positive";
    let n = int_of_float (Float.floor (duration *. rate)) in
    List.init n (fun i ->
        { time = Float.of_int i /. rate; source; value = gen i })

  let merge traces =
    let all = List.concat traces in
    List.stable_sort (fun a b -> Float.compare a.time b.time) all
end

type raw = {
  graph : Graph.t;
  duration : float;
  window : float;
  fires : int array;
  workload : Workload.t array;  (* cumulative per op *)
  peak_window_workload : Workload.t array;
      (* worst single window per op, compared by Workload.total; a
         platform-independent proxy that is accurate enough for peak
         estimation *)
  edge_elems : int array;
  edge_bytes : int array;
  peak_window_edge_bytes : int array;
  scale : float;
}

let collect ?(window = 1.0) ~duration graph events =
  if duration <= 0. then invalid_arg "Profile.collect: duration must be positive";
  if window <= 0. then invalid_arg "Profile.collect: window must be positive";
  let n = Graph.n_ops graph in
  let m = Graph.n_edges graph in
  let exec = Runtime.Exec.full graph in
  let fires = Array.make n 0 in
  let workload = Array.make n Workload.zero in
  let peak_w = Array.make n Workload.zero in
  let edge_elems = Array.make m 0 in
  let edge_bytes = Array.make m 0 in
  let peak_eb = Array.make m 0 in
  (* current-window accumulators *)
  let win_w = Array.make n Workload.zero in
  let win_eb = Array.make m 0 in
  let cur_win = ref 0 in
  (* previous cumulative snapshots, to compute per-event deltas *)
  let prev_w = Array.make n Workload.zero in
  let prev_eb = Array.make m 0 in
  let flush_window () =
    for i = 0 to n - 1 do
      if Workload.total win_w.(i) > Workload.total peak_w.(i) then
        peak_w.(i) <- win_w.(i);
      win_w.(i) <- Workload.zero
    done;
    for e = 0 to m - 1 do
      if win_eb.(e) > peak_eb.(e) then peak_eb.(e) <- win_eb.(e);
      win_eb.(e) <- 0
    done
  in
  List.iter
    (fun (ev : Trace.event) ->
      if ev.time < 0. || ev.time >= duration then
        invalid_arg "Profile.collect: event outside [0, duration)";
      let w = int_of_float (ev.time /. window) in
      while !cur_win < w do
        flush_window ();
        incr cur_win
      done;
      ignore (Runtime.Exec.fire exec ~op:ev.source ~port:0 ev.value);
      (* fold this traversal's deltas into the window accumulators *)
      for i = 0 to n - 1 do
        let cum = Runtime.Exec.op_workload exec i in
        let delta =
          Workload.add cum (Workload.scale (-1.) prev_w.(i))
        in
        if Workload.total delta > 0. then begin
          win_w.(i) <- Workload.add win_w.(i) delta;
          prev_w.(i) <- cum
        end
      done;
      for e = 0 to m - 1 do
        let cum = Runtime.Exec.edge_bytes exec e in
        if cum > prev_eb.(e) then begin
          win_eb.(e) <- win_eb.(e) + (cum - prev_eb.(e));
          prev_eb.(e) <- cum
        end
      done)
    events;
  flush_window ();
  for i = 0 to n - 1 do
    fires.(i) <- Runtime.Exec.op_fires exec i;
    workload.(i) <- Runtime.Exec.op_workload exec i
  done;
  for e = 0 to m - 1 do
    edge_elems.(e) <- Runtime.Exec.edge_elements exec e;
    edge_bytes.(e) <- Runtime.Exec.edge_bytes exec e
  done;
  {
    graph;
    duration;
    window;
    fires;
    workload;
    peak_window_workload = peak_w;
    edge_elems;
    edge_bytes;
    peak_window_edge_bytes = peak_eb;
    scale = 1.;
  }

let graph r = r.graph
let duration r = r.duration

let scale_rate r factor =
  if not (factor > 0.) then
    invalid_arg "Profile.scale_rate: factor must be positive";
  { r with scale = r.scale *. factor }

let op_fires r i = r.fires.(i)

let op_workload_per_fire r i =
  if r.fires.(i) = 0 then Workload.zero
  else Workload.scale (1. /. Float.of_int r.fires.(i)) r.workload.(i)

let op_fires_per_sec r i = Float.of_int r.fires.(i) /. r.duration *. r.scale

let edge_elements_per_sec r e =
  Float.of_int r.edge_elems.(e) /. r.duration *. r.scale

let edge_bytes_per_sec r e =
  Float.of_int r.edge_bytes.(e) /. r.duration *. r.scale

let edge_peak_bytes_per_sec r e =
  Float.of_int r.peak_window_edge_bytes.(e) /. r.window *. r.scale

type costed = {
  platform : Platform.t;
  seconds_per_fire : float array;
  cpu_fraction : float array;
  peak_cpu_fraction : float array;
}

let cost r platform =
  let n = Graph.n_ops r.graph in
  let seconds_per_fire =
    Array.init n (fun i -> Platform.seconds platform (op_workload_per_fire r i))
  in
  let cpu_fraction =
    Array.init n (fun i ->
        Platform.seconds platform r.workload.(i) /. r.duration *. r.scale)
  in
  let peak_cpu_fraction =
    Array.init n (fun i ->
        Platform.seconds platform r.peak_window_workload.(i)
        /. r.window *. r.scale)
  in
  { platform; seconds_per_fire; cpu_fraction; peak_cpu_fraction }
