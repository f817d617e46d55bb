(* Fleet-scale simulator throughput (DESIGN.md §19): events/sec on
   synthetic fleets of 10^2..10^5 nodes, binary heap vs timing wheel,
   1/2/4 simulation domains.

   Every configuration of a given size must land on the bit-identical
   result — the digest check below is the bench-side replica of the
   [sched-equivalence] oracle and the re-pinned goldens — so the
   throughput ratios compare implementations of the *same* simulation,
   not different physics.  Domain scaling is real parallel speedup
   only when the machine has cores to give; the JSON records the core
   count next to the numbers.

   Writes BENCH_scale.json at the repo root:

     dune exec bench/main.exe -- scale
     dune exec bench/main.exe -- scale-smoke   (CI: 10k nodes, asserts)

   The smoke also runs the fleet under crashes, burst loss and
   reliable transport, and gates the allocation of its clean
   one-domain wheel run ([max_words_per_event]).

   The simulated horizon shrinks as the fleet grows so each size does
   a few million events at most. *)

type run = {
  sched : Netsim.Sched.kind;
  domains : int;
  wall_s : float;
  events : int;
  events_per_sec : float;
  digest : string;
}

(* every counter and every float (as IEEE bits), in a fixed order:
   equal strings = bit-identical results *)
let digest (r : Netsim.Testbed.result) =
  let b = Buffer.create 256 in
  let i n = Buffer.add_string b (string_of_int n); Buffer.add_char b ',' in
  let f x =
    Buffer.add_string b (Printf.sprintf "%Lx," (Int64.bits_of_float x))
  in
  i r.inputs_offered; i r.inputs_processed; i r.msgs_sent; i r.msgs_received;
  i r.packets_sent; i r.packets_lost_collision; i r.packets_lost_channel;
  i r.packets_lost_queue; i r.sink_outputs; i r.msgs_duplicate;
  i r.msgs_expired; i r.msgs_pending; i r.retransmissions; i r.acks_sent;
  i r.acks_lost; i r.crashes; i r.inputs_lost_down; i r.events_processed;
  f r.input_fraction; f r.msg_fraction; f r.goodput_fraction;
  f r.node_busy_fraction; f r.offered_bytes_per_sec;
  Array.iter f r.edge_bytes_per_sec;
  Printf.sprintf "%08x" (Hashtbl.hash (Buffer.contents b))

let run_one ?faults ?transport ~(fleet : Netsim.Testbed.fleet) ~nodes
    ~duration ~sched ~domains () =
  let config =
    Netsim.Testbed.default_config ~n_nodes:nodes ~duration ~seed:11 ?faults
      ?transport ~sched ~cells:fleet.cells ~domains
      ~platform:Profiler.Platform.tmote_sky ~link:Netsim.Link.cc2420 ()
  in
  let t0 = Unix.gettimeofday () in
  let r =
    Netsim.Testbed.run config ~graph:fleet.graph
      ~node_of:(fun i -> i = fleet.source_op)
      ~sources:fleet.sources
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  {
    sched;
    domains;
    wall_s;
    events = r.events_processed;
    events_per_sec = Float.of_int r.events_processed /. Float.max 1e-9 wall_s;
    digest = digest r;
  }

let sched_name = function Netsim.Sched.Heap -> "heap" | Wheel -> "wheel"

type size_result = {
  nodes : int;
  duration : float;
  runs : run list;
  wheel_speedup : float;  (* wheel vs heap, both domains = 1 *)
  identical : bool;
}

let bench_size ~nodes ~duration =
  let fleet = Netsim.Testbed.synthetic ~nodes ~seed:11 () in
  let go sched domains = run_one ~fleet ~nodes ~duration ~sched ~domains () in
  let heap1 = go Netsim.Sched.Heap 1 in
  let wheel1 = go Netsim.Sched.Wheel 1 in
  let wheel2 = go Netsim.Sched.Wheel 2 in
  let wheel4 = go Netsim.Sched.Wheel 4 in
  let runs = [ heap1; wheel1; wheel2; wheel4 ] in
  let identical =
    List.for_all (fun r -> r.digest = heap1.digest && r.events = heap1.events)
      runs
  in
  {
    nodes;
    duration;
    runs;
    wheel_speedup = wheel1.events_per_sec /. heap1.events_per_sec;
    identical;
  }

let report (s : size_result) =
  List.iter
    (fun r ->
      Bench_util.row
        "  %6d nodes  %-5s d=%d  %9d events  %7.2f s  %10.0f ev/s\n"
        s.nodes (sched_name r.sched) r.domains r.events r.wall_s
        r.events_per_sec)
    s.runs;
  Bench_util.row "  %6d nodes  wheel/heap speedup %.2fx, digests %s\n"
    s.nodes s.wheel_speedup
    (if s.identical then "identical" else "DIVERGENT")

let write_json ~cores sizes =
  let oc = open_out "BENCH_scale.json" in
  let run_json (r : run) =
    Printf.sprintf
      "      {\"sched\": \"%s\", \"domains\": %d, \"wall_s\": %.4f, \
       \"events\": %d, \"events_per_sec\": %.0f, \"digest\": \"%s\"}"
      (sched_name r.sched) r.domains r.wall_s r.events r.events_per_sec
      r.digest
  in
  let size_json (s : size_result) =
    Printf.sprintf
      "    {\"nodes\": %d, \"duration_s\": %g, \"digests_identical\": %b, \
       \"wheel_speedup_vs_heap\": %.2f, \"runs\": [\n\
       %s\n\
      \    ]}"
      s.nodes s.duration s.identical s.wheel_speedup
      (String.concat ",\n" (List.map run_json s.runs))
  in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"netsim_scale\",\n\
    \  \"cores\": %d,\n\
    \  \"sizes\": [\n%s\n  ]\n\
     }\n"
    cores
    (String.concat ",\n" (List.map size_json sizes));
  close_out oc

let check label ok =
  if not ok then begin
    Printf.eprintf "scale bench: FAILED: %s\n" label;
    exit 1
  end

let run () =
  Bench_util.header "netsim scale: 10^2..10^5-node fleets, heap vs wheel";
  let cores = Domain.recommended_domain_count () in
  Bench_util.row "  %d cores available\n" cores;
  let sizes =
    List.map
      (fun (nodes, duration) -> bench_size ~nodes ~duration)
      [ (100, 60.); (1_000, 30.); (10_000, 8.); (100_000, 2.) ]
  in
  List.iter report sizes;
  List.iter
    (fun s -> check (Printf.sprintf "digests diverge at %d nodes" s.nodes)
        s.identical)
    sizes;
  write_json ~cores sizes;
  Bench_util.row "wrote BENCH_scale.json\n"

(* Minor words per event of the smoke's clean one-domain wheel run, a
   deterministic count: 48.4 while the event loop boxed its PRNG state
   and built a scheduler and four tables per cell, 26.0 since. *)
let max_words_per_event = 36.

let smoke () =
  Bench_util.header "netsim scale: smoke (10k nodes)";
  let nodes = 10_000 in
  let fleet = Netsim.Testbed.synthetic ~nodes ~seed:11 () in
  (* heap, wheel and two domains must agree bit for bit *)
  let agree label ?faults ?transport ~duration () =
    let go sched domains =
      run_one ?faults ?transport ~fleet ~nodes ~duration ~sched ~domains ()
    in
    let w0 = Gc.minor_words () in
    let wheel = go Netsim.Sched.Wheel 1 in
    let words = (Gc.minor_words () -. w0) /. Float.of_int wheel.events in
    let wheel2 = go Netsim.Sched.Wheel 2 in
    let heap = go Netsim.Sched.Heap 1 in
    check (label ^ ": no events simulated") (wheel.events > 0);
    check (label ^ ": wheel digest diverges from heap")
      (wheel.digest = heap.digest);
    check (label ^ ": domains 2 digest diverges")
      (wheel2.digest = wheel.digest);
    Bench_util.row
      "%s: %d events, wheel %.0f ev/s (heap %.0f), %.2f minor words/event, \
       digests identical (%s)\n"
      label wheel.events wheel.events_per_sec heap.events_per_sec words
      wheel.digest;
    words
  in
  let words = agree "clean" ~duration:2. () in
  (* the [simulate] benchmark's burst loss, crash rate and reliable
     transport, whose crashes and retransmissions exercise the scratch
     each domain reuses across cells.  Its faults reboot a node at the
     instant it crashes, and with no clock drift its 0.5 s windows put
     0.25 s x 2^k retransmit timers on the same instant; the heap pops
     such ties in an order of its own, so here a reboot delay and drift
     make timestamps distinct and the heap comparable. *)
  ignore
    (agree "faults + reliable"
       ~faults:
         {
           Netsim.Faults.crash_rate = 0.001;
           reboot_s = 1.;
           burst = Some (Netsim.Faults.burst_of_loss 0.1);
           clock_drift = 50e-6;
         }
       ~transport:(Netsim.Transport.default_reliable ())
       ~duration:5. ());
  check
    (Printf.sprintf "clean wheel run allocates %.2f minor words/event (> %g)"
       words max_words_per_event)
    (words <= max_words_per_event);
  Bench_util.row "smoke ok\n"
