open Dataflow

type point = {
  offered_msgs_per_sec : float;
  reception : float;
  goodput_bytes_per_sec : float;
}

(* A two-operator probe program: node source -> server sink. *)
let probe_graph () =
  let b = Builder.create () in
  let src = Builder.in_node b (fun () -> Builder.source b ~name:"probe" ()) in
  Builder.sink b ~name:"collect" src;
  (Builder.build b, Builder.op_id src)

let measure ?(payload_bytes = 24) ?(duration = 30.) ?(seed = 99) ~n_nodes
    ~link rate =
  (* stretch the run so at least ~100 messages are observed per node;
     low-rate points would otherwise be statistically meaningless *)
  let duration = Float.max duration (100. /. Float.max 0.01 rate) in
  let graph, src = probe_graph () in
  let payload = Array.make (Int.max 1 ((payload_bytes - 2) / 2)) 0 in
  let config =
    {
      Testbed.n_nodes;
      platform = Profiler.Platform.tmote_sky;
      link;
      duration;
      seed;
      tx_queue_packets = 24;
      per_packet_cpu_s = 0.;  (* isolate the radio *)
      os_overhead = 1.0;
      faults = Faults.none;
      transport = Transport.Unreliable;
      cells = None;
      domains = 1;
    }
  in
  let sources =
    [ { Testbed.source = src; rate; gen = (fun ~node:_ ~seq:_ -> Value.Int16_arr payload) } ]
  in
  let r = Testbed.run config ~graph ~node_of:(fun op -> op = src) ~sources in
  {
    offered_msgs_per_sec = rate;
    reception = r.msg_fraction;
    goodput_bytes_per_sec =
      Float.of_int (r.msgs_received * payload_bytes) /. duration;
  }

let sweep ?payload_bytes ?duration ?seed ~n_nodes ~link ~rates () =
  List.map (fun r -> measure ?payload_bytes ?duration ?seed ~n_nodes ~link r) rates

let max_send_rate ?payload_bytes ?(target = 0.9) ?duration ?seed ~n_nodes
    ~link () =
  let ok rate =
    let p = measure ?payload_bytes ?duration ?seed ~n_nodes ~link rate in
    (p, p.reception >= target)
  in
  (* exponential search for an upper bracket *)
  let rec bracket lo hi hi_point =
    let p, good = ok hi in
    if good && hi < 100_000. then bracket hi (hi *. 2.) (Some p)
    else (lo, hi, (if good then Some p else hi_point), p)
  in
  let lo0 = 0.5 in
  let p0, good0 = ok lo0 in
  if not good0 then p0
  else begin
    let lo, hi, best, _ = bracket lo0 (lo0 *. 2.) (Some p0) in
    let best = ref (Option.get best) in
    let lo = ref lo and hi = ref hi in
    for _ = 1 to 12 do
      let mid = (!lo +. !hi) /. 2. in
      let p, good = ok mid in
      if good then begin
        best := p;
        lo := mid
      end
      else hi := mid
    done;
    !best
  end
