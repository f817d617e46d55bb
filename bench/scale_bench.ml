(* Fleet-scale simulator throughput (DESIGN.md §19): events/sec on
   synthetic fleets of 10^2..10^5 nodes on the timing wheel, 1/2/4
   simulation domains.

   Every domain count of a given size must land on the bit-identical
   result — the digest check below is the bench-side replica of the
   [sched-equivalence] oracle's domain check — so the throughput
   ratios compare schedules of the *same* simulation, not different
   physics.  Domain scaling is real parallel speedup only when the
   machine has cores to give; the JSON records the core count next to
   the numbers.

   Writes BENCH_scale.json at the repo root:

     dune exec bench/main.exe -- scale
     dune exec bench/main.exe -- scale-smoke   (CI: 10k nodes, asserts)

   The smoke also runs the fleet under crashes, burst loss and
   reliable transport, pins both fleets' digests, and gates the
   allocation of its clean one-domain run ([max_words_per_event]).

   The simulated horizon shrinks as the fleet grows so each size does
   a few million events at most. *)

type run = {
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
    ~duration ~domains () =
  let config =
    Netsim.Testbed.default_config ~n_nodes:nodes ~duration ~seed:11 ?faults
      ?transport ~cells:fleet.cells ~domains
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
    domains;
    wall_s;
    events = r.events_processed;
    events_per_sec = Float.of_int r.events_processed /. Float.max 1e-9 wall_s;
    digest = digest r;
  }

type size_result = {
  nodes : int;
  duration : float;
  runs : run list;
  identical : bool;
}

let bench_size ~nodes ~duration =
  let fleet = Netsim.Testbed.synthetic ~nodes ~seed:11 () in
  let runs =
    List.map
      (fun domains -> run_one ~fleet ~nodes ~duration ~domains ())
      [ 1; 2; 4 ]
  in
  let first = List.hd runs in
  let identical =
    List.for_all (fun r -> r.digest = first.digest && r.events = first.events)
      runs
  in
  { nodes; duration; runs; identical }

let report (s : size_result) =
  List.iter
    (fun r ->
      Bench_util.row "  %6d nodes  d=%d  %9d events  %7.2f s  %10.0f ev/s\n"
        s.nodes r.domains r.events r.wall_s r.events_per_sec)
    s.runs;
  Bench_util.row "  %6d nodes  digests %s\n" s.nodes
    (if s.identical then "identical" else "DIVERGENT")

let write_json ~cores sizes =
  let oc = open_out "BENCH_scale.json" in
  let run_json (r : run) =
    Printf.sprintf
      "      {\"domains\": %d, \"wall_s\": %.4f, \"events\": %d, \
       \"events_per_sec\": %.0f, \"digest\": \"%s\"}"
      r.domains r.wall_s r.events r.events_per_sec r.digest
  in
  let size_json (s : size_result) =
    Printf.sprintf
      "    {\"nodes\": %d, \"duration_s\": %g, \"digests_identical\": %b, \
       \"runs\": [\n\
       %s\n\
      \    ]}"
      s.nodes s.duration s.identical
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
  Bench_util.header "netsim scale: 10^2..10^5-node fleets, domains 1/2/4";
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

(* Minor words per event of the smoke's clean one-domain run, a
   deterministic count: 48.4 while the event loop boxed its PRNG state
   and built a scheduler and four tables per cell, 26.0 since. *)
let max_words_per_event = 36.

let smoke () =
  Bench_util.header "netsim scale: smoke (10k nodes)";
  let nodes = 10_000 in
  let fleet = Netsim.Testbed.synthetic ~nodes ~seed:11 () in
  (* domains 1 and 2 must agree bit for bit, on the pinned digest *)
  let agree label ~digest ?faults ?transport ~duration () =
    let go domains =
      run_one ?faults ?transport ~fleet ~nodes ~duration ~domains ()
    in
    let w0 = Gc.minor_words () in
    let one = go 1 in
    let words = (Gc.minor_words () -. w0) /. Float.of_int one.events in
    let two = go 2 in
    check (label ^ ": no events simulated") (one.events > 0);
    check
      (Printf.sprintf "%s: digest %s, pinned %s" label one.digest digest)
      (one.digest = digest);
    check (label ^ ": domains 2 digest diverges") (two.digest = one.digest);
    Bench_util.row
      "%s: %d events, %.0f ev/s, %.2f minor words/event, digests identical \
       (%s)\n"
      label one.events one.events_per_sec words one.digest;
    words
  in
  let words = agree "clean" ~digest:"3543e778" ~duration:2. () in
  (* the [simulate] benchmark's burst loss, crash rate and reliable
     transport, whose crashes and retransmissions exercise the scratch
     each domain reuses across cells, plus a reboot delay and clock
     drift *)
  ignore
    (agree "faults + reliable" ~digest:"2f66d9f5"
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
    (Printf.sprintf "clean run allocates %.2f minor words/event (> %g)"
       words max_words_per_event)
    (words <= max_words_per_event);
  Bench_util.row "smoke ok\n"
