(* The [simulate] workload: one deployment simulation of a 10,000-node
   synthetic fleet in 16-node radio cells for 20 simulated seconds, on
   the timing-wheel scheduler, with Gilbert-Elliott burst loss, node
   crashes and reliable transport.  It runs the network simulator and
   no LP at all: a solver change should leave it unchanged, and a
   simulator change should leave the other workloads unchanged.

   The timed pass runs the cells on one domain.  On two domains it
   waits for whichever vCPU is slower at each join and minor
   collection, and no reference sample tracked that: its
   reference-scaled time spread 0.38 over five seeds, against 0.08 on
   one domain.  The traced run reruns the fleet on two domains, which
   must give the same result, for [netsim.domain_speedup]. *)

open Common

let nodes = 10_000
let cell_size = 16
let duration = 20.
let domains = 1

(* every counter and every float (as IEEE bits) of a result: equal
   digests are bit-identical results *)
let digest (r : Netsim.Testbed.result) =
  let b = Buffer.create 256 in
  let i n = Buffer.add_string b (string_of_int n ^ ",") in
  let f x = Buffer.add_string b (Printf.sprintf "%Lx," (Int64.bits_of_float x)) in
  List.iter i
    [ r.inputs_offered; r.inputs_processed; r.msgs_sent; r.msgs_received;
      r.packets_sent; r.packets_lost_collision; r.packets_lost_channel;
      r.packets_lost_queue; r.sink_outputs; r.msgs_duplicate; r.msgs_expired;
      r.msgs_pending; r.retransmissions; r.acks_sent; r.acks_lost; r.crashes;
      r.inputs_lost_down; r.events_processed ];
  List.iter f
    [ r.input_fraction; r.msg_fraction; r.goodput_fraction;
      r.node_busy_fraction; r.offered_bytes_per_sec ];
  Array.iter f r.edge_bytes_per_sec;
  Digest.to_hex (Digest.string (Buffer.contents b))

let setup seed =
  let fleet = Netsim.Testbed.synthetic ~nodes ~seed ~cell_size () in
  let config domains =
    Netsim.Testbed.default_config ~n_nodes:nodes ~duration ~seed
      ~faults:
        { Netsim.Faults.none with
          crash_rate = 0.001;
          burst = Some (Netsim.Faults.burst_of_loss 0.1) }
      ~transport:(Netsim.Transport.default_reliable ())
      ~sched:Netsim.Sched.Wheel ~cells:fleet.cells ~domains
      ~platform:Profiler.Platform.tmote_sky ~link:Netsim.Link.cc2420 ()
  in
  let run domains =
    time (fun () ->
        Span.with_ "netsim.run" (fun () ->
            Netsim.Testbed.run (config domains) ~graph:fleet.graph
              ~node_of:(fun i -> i = fleet.source_op)
              ~sources:fleet.sources))
  in
  let last = ref ("", 0.) in
  let pass () =
    let r, wall_s = phase "simulate" (fun () -> run domains) in
    check "simulate: events handled" (r.events_processed > 0);
    check "simulate: msgs_sent = received + expired + pending"
      (r.msgs_sent = r.msgs_received + r.msgs_expired + r.msgs_pending);
    if !Span.enabled then begin
      set "netsim.run_s" wall_s;
      set "netsim.events" (Float.of_int r.events_processed);
      set "netsim.events_per_s" (Float.of_int r.events_processed /. wall_s);
      set "netsim.packets_sent" (Float.of_int r.packets_sent);
      set "netsim.retransmissions" (Float.of_int r.retransmissions);
      set "netsim.acks_sent" (Float.of_int r.acks_sent);
      set "netsim.crashes" (Float.of_int r.crashes);
      set "netsim.goodput_fraction" r.goodput_fraction
    end;
    let d = digest r in
    last := (d, wall_s);
    {
      wall_s;
      counters =
        [
          ("netsim.events", r.events_processed);
          ("netsim.packets_sent", r.packets_sent);
          ("netsim.retransmissions", r.retransmissions);
          ("netsim.acks_sent", r.acks_sent); ("netsim.crashes", r.crashes);
          ("netsim.msgs_received", r.msgs_received);
          ("result.digest", Hashtbl.hash d);
        ];
    }
  in
  (* the same fleet on two domains: bit-identical, and the speedup *)
  let extras () =
    let d1, wall1 = !last in
    let r2, wall2 = Span.with_ "simulate.domains2" (fun () -> run 2) in
    check "simulate: domains 1 and 2 give the same result" (digest r2 = d1);
    set "netsim.domain_speedup" (wall1 /. wall2)
  in
  { domains; pass; extras }
