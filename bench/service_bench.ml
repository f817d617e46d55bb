(* Fleet placement service benchmark: batch throughput under query
   sharding, and the cache's replay speedup.

   A mixed 32-query fleet batch (eeg14/eeg22/speech at several rates,
   synthetic instances with rate searches, and exact duplicates) is
   served cold at shard counts 1/2/4 — each on a fresh service, so
   every run does identical work — and then replayed against the
   shards=1 service's warm cache.  Answers must be byte-identical
   across every shard count, between cold and warm passes, and against
   the direct no-service solve path.

   Shard scaling is real parallel speedup only when the machine has
   cores to give; the JSON records the core count next to the numbers
   so a single-core container's flat curve reads as what it is.

   Writes BENCH_service.json at the repo root:

     dune exec bench/main.exe -- service
     dune exec bench/main.exe -- service-smoke   (CI: tiny batch, asserts)

   DESIGN.md §16. *)

type pass_result = {
  shards : int;
  wall_ms : float;
  qps : float;
  p50_ms : float;
  p99_ms : float;
  digests : string array;
}

let run_pass ~shards svc queries =
  let t0 = Unix.gettimeofday () in
  let responses = Wishbone.Service.run_batch ~shards svc queries in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let lat =
    Array.map (fun (r : Wishbone.Service.response) -> r.latency_ms) responses
  in
  Array.sort compare lat;
  {
    shards;
    wall_ms;
    qps = Float.of_int (Array.length queries) /. Float.max 1e-9 (wall_ms /. 1000.);
    p50_ms = Bench_util.percentile lat 0.5;
    p99_ms = Bench_util.percentile lat 0.99;
    digests =
      Array.map (fun (r : Wishbone.Service.response) -> r.digest) responses;
  }

(* direct-path reference answers, memoised per cache key so duplicate
   queries are solved once *)
let direct_digests svc queries =
  let memo = Hashtbl.create 16 in
  Array.map
    (fun q ->
      let key = Wishbone.Service.query_key svc q in
      match Hashtbl.find_opt memo key with
      | Some d -> d
      | None ->
          let d =
            Wishbone.Service.answer_digest (Wishbone.Service.solve_direct q)
          in
          Hashtbl.add memo key d;
          d)
    queries

let check label ok =
  if not ok then begin
    Printf.eprintf "service bench: FAILED: %s\n" label;
    exit 1
  end

let fleet_queries () =
  let q placement request = { Wishbone.Service.placement; request } in
  let rate pl r = q pl (Wishbone.Service.Rate r) in
  let search pl = q pl Wishbone.Service.Search in
  let app_pl spec = Wishbone.Placement.of_spec spec in
  let eeg14 =
    app_pl
      (Bench_util.spec_exn ~mode:Wishbone.Movable.Permissive
         ~platform:Profiler.Platform.tmote_sky
         (Apps.Eeg.profile ~duration:30. (Apps.Eeg.build ~n_channels:14 ())))
  in
  let eeg22 =
    app_pl
      (Bench_util.spec_exn ~mode:Wishbone.Movable.Permissive
         ~platform:Profiler.Platform.tmote_sky
         (Apps.Eeg.profile ~duration:30. (Apps.Eeg.build ())))
  in
  let speech =
    app_pl
      (Bench_util.spec_exn ~platform:Profiler.Platform.tmote_sky
         (Lazy.force Bench_util.speech_profile))
  in
  let synth seed =
    app_pl (Apps.Synthetic.random_spec ~seed ~n_ops:12 ())
  in
  (* fixed rates only on the profiled apps: a full-proof rate search
     on eeg22 brackets through deliberately overloaded instances whose
     optimality proofs run for minutes — searches ride on the
     synthetic instances instead *)
  let per_app pl =
    [ rate pl 0.4; rate pl 0.7; rate pl 1.0; rate pl 1.3;
      rate pl 0.7 (* duplicate *) ]
  in
  let synths =
    List.concat_map
      (fun seed -> [ rate (synth seed) 0.8; rate (synth seed) 1.2 ])
      [ 1; 2; 3; 4; 5 ]
    @ List.map (fun seed -> search (synth seed)) [ 1; 2; 3; 4 ]
    @ [ rate (synth 1) 0.8; rate (synth 2) 1.2; search (synth 1);
        search (synth 2); rate (synth 3) 0.8 (* duplicates *) ]
  in
  let speech_qs =
    [ rate speech 0.5; rate speech 1.0; rate speech 0.5 (* duplicate *) ]
  in
  let batch =
    Array.of_list (per_app eeg14 @ per_app eeg22 @ synths @ speech_qs)
  in
  (* near-repeats: the same instances at rates the cache has never
     seen — solved, but warm-started from the resident entries *)
  let near =
    Array.of_list
      [
        rate eeg14 0.55; rate eeg14 1.15; rate eeg22 0.55; rate eeg22 1.15;
        rate speech 0.7; rate (synth 1) 0.9; rate (synth 2) 1.05;
        rate (synth 3) 0.9;
      ]
  in
  (batch, near)

let write_json ~cores ~n ~cold ~warmed ~near ~near_warm_starts ~warm_speedup
    ~shard_speedup (c : Wishbone.Service.counters) =
  let oc = open_out "BENCH_service.json" in
  let pass (r : pass_result) =
    Printf.sprintf
      "    {\"shards\": %d, \"wall_ms\": %.4f, \"qps\": %.1f, \"p50_ms\": \
       %.4f, \"p99_ms\": %.4f}"
      r.shards r.wall_ms r.qps r.p50_ms r.p99_ms
  in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"placement_service\",\n\
    \  \"cores\": %d,\n\
    \  \"n_queries\": %d,\n\
    \  \"cold\": [\n%s\n  ],\n\
    \  \"warmed\": %s,\n\
    \  \"near_repeat\": {\"n_queries\": %d, \"wall_ms\": %.4f, \
     \"warm_starts\": %d},\n\
    \  \"warm_speedup_vs_cold\": %.2f,\n\
    \  \"shard4_speedup_vs_shard1\": %.2f,\n\
    \  \"counters\": {\"queries\": %d, \"hits\": %d, \"misses\": %d, \
     \"warm_starts\": %d, \"inserts\": %d, \"evictions\": %d, \"resident\": \
     %d},\n\
    \  \"equivalence_ok\": true\n\
     }\n"
    cores n
    (String.concat ",\n" (List.map pass cold))
    (String.trim (pass warmed))
    (Array.length near.digests) near.wall_ms near_warm_starts
    warm_speedup shard_speedup c.Wishbone.Service.queries
    c.Wishbone.Service.hits c.Wishbone.Service.misses
    c.Wishbone.Service.warm_starts c.Wishbone.Service.inserts
    c.Wishbone.Service.evictions c.Wishbone.Service.resident;
  close_out oc

let run () =
  Bench_util.header "placement service: sharded batches and cache replay";
  Bench_util.paper_vs
    "service answers are byte-identical to the direct solve path for every \
     shard count, cold or warm";
  let queries, near_queries = fleet_queries () in
  let n = Array.length queries in
  let cores = Domain.recommended_domain_count () in
  (* cold runs: a fresh service per shard count, identical work each *)
  let cold =
    List.map
      (fun shards ->
        let svc = Wishbone.Service.create ~capacity:64 () in
        let r = run_pass ~shards svc queries in
        Bench_util.row
          "cold  shards=%d  %8.1f ms  %7.1f queries/s  p50 %7.3f ms  p99 \
           %7.3f ms\n"
          shards r.wall_ms r.qps r.p50_ms r.p99_ms;
        (svc, r))
      [ 1; 2; 4 ]
  in
  let svc1, cold1 = List.hd cold in
  let cold_results = List.map snd cold in
  (* every shard count must produce identical bytes *)
  List.iter
    (fun (r : pass_result) ->
      check
        (Printf.sprintf "shards=%d digests differ from shards=1" r.shards)
        (r.digests = cold1.digests))
    cold_results;
  (* warmed replay through the shards=1 service's populated cache *)
  let warmed = run_pass ~shards:1 svc1 queries in
  Bench_util.row
    "warm  shards=1  %8.1f ms  %7.1f queries/s  p50 %7.3f ms  p99 %7.3f ms\n"
    warmed.wall_ms warmed.qps warmed.p50_ms warmed.p99_ms;
  check "warm digests differ from cold" (warmed.digests = cold1.digests);
  (* and the whole batch must match the no-service direct path *)
  let direct = direct_digests svc1 queries in
  check "served digests differ from direct solves" (direct = cold1.digests);
  (* near-repeats: unseen rates over resident instances warm-start
     from the stored tier assignment and root basis *)
  let warm0 = (Wishbone.Service.counters svc1).Wishbone.Service.warm_starts in
  let t0 = Unix.gettimeofday () in
  let near_resp = Wishbone.Service.run_batch ~shards:1 svc1 near_queries in
  let near =
    {
      shards = 1;
      wall_ms = (Unix.gettimeofday () -. t0) *. 1000.;
      qps = 0.;
      p50_ms = 0.;
      p99_ms = 0.;
      digests =
        Array.map
          (fun (r : Wishbone.Service.response) -> r.digest)
          near_resp;
    }
  in
  let near_warm_starts =
    (Wishbone.Service.counters svc1).Wishbone.Service.warm_starts - warm0
  in
  check "near-repeat digests differ from direct solves"
    (direct_digests svc1 near_queries = near.digests);
  Bench_util.row "near  shards=1  %8.1f ms  %d/%d queries warm-started\n"
    near.wall_ms near_warm_starts
    (Array.length near_queries);
  let warm_speedup = cold1.wall_ms /. Float.max 1e-9 warmed.wall_ms in
  let cold4 = List.nth cold_results 2 in
  let shard_speedup = cold1.wall_ms /. Float.max 1e-9 cold4.wall_ms in
  Bench_util.row
    "cache replay speedup %.1fx; shards=4 vs shards=1 %.2fx (%d cores)\n"
    warm_speedup shard_speedup cores;
  write_json ~cores ~n ~cold:cold_results ~warmed ~near ~near_warm_starts
    ~warm_speedup ~shard_speedup
    (Wishbone.Service.counters svc1);
  Bench_util.row "wrote BENCH_service.json\n"

(* Per-query set-up allocation gate: the words one query allocates
   before its first pivot, minor-heap words plus blocks allocated
   straight into the major heap (promotions excluded), both
   deterministic counts.  Two places: keying the eeg14 chain (the
   second keying on this domain, as every keying after the first is:
   the first grows the domain's sink), and the eeg22 ×0.92699 solve's
   contraction, encoding, CSC build and solve session.  The ceilings
   sit at about 1.5x today's counts, 54 and 298,761 words
   (DESIGN.md §16).  Before the key sink, the lazy LP names, the
   list-free CSC build and the sorted quotient edges the same two
   places allocated 47,883 and 518,098 words. *)
let max_key_words = 80.
let max_setup_words = 440_000.

(* minor words come from [Gc.minor_words]: in OCaml 5.1 the minor
   count of [Gc.counters] reads an eighth of the words allocated since
   the last minor collection *)
let words f =
  let direct_major () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let m0 = Gc.minor_words () and d0 = direct_major () in
  let r = f () in
  let minor = Gc.minor_words () -. m0 and major = direct_major () -. d0 in
  (r, minor +. major, Printf.sprintf "%.0f minor + %.0f major" minor major)

let setup_alloc_gate () =
  let eeg n =
    Bench_util.spec_exn ~mode:Wishbone.Movable.Permissive
      ~platform:Profiler.Platform.tmote_sky
      (Apps.Eeg.profile ~duration:10. (Apps.Eeg.build ~n_channels:n ()))
  in
  let eeg14 = Wishbone.Placement.of_spec (eeg 14) in
  ignore (Wishbone.Service.instance_key eeg14);
  let _, key_words, key_split =
    words (fun () -> Wishbone.Service.instance_key eeg14)
  in
  let spec = Wishbone.Spec.scale_rate (eeg 22) 0.92699 in
  let pl = Wishbone.Placement.of_spec spec in
  let c, contract, contract_split =
    words (fun () -> Wishbone.Preprocess.contract spec)
  in
  let enc, encode, encode_split =
    words (fun () ->
        Wishbone.Placement.encode Wishbone.Placement.Restricted pl c)
  in
  let data, csc, csc_split =
    words (fun () -> Lp.Sparse.of_problem enc.Wishbone.Placement.problem)
  in
  let _, session, session_split = words (fun () -> Lp.Sparse.session data) in
  let setup = contract +. encode +. csc +. session in
  Bench_util.row
    "set-up words: eeg14 key %s; eeg22 x0.92699 contract %s, encode %s, \
     of_problem %s, session %s (%.0f in all)\n"
    key_split contract_split encode_split csc_split session_split setup;
  check
    (Printf.sprintf "eeg14 keying allocated %.0f words (> %.0f)" key_words
       max_key_words)
    (key_words <= max_key_words);
  check
    (Printf.sprintf "eeg22 set-up allocated %.0f words (> %.0f)" setup
       max_setup_words)
    (setup <= max_setup_words)

(* CI smoke: a tiny synthetic batch, shards=2, asserting byte-identity
   against the direct path and counter conservation, then six batches
   of new placements on shards 1 and 2 — seconds, not minutes; last,
   the per-query set-up allocation gate *)
let smoke () =
  Bench_util.header "placement service: smoke";
  let pl seed = Wishbone.Placement.of_spec (Apps.Synthetic.random_spec ~seed ~n_ops:8 ()) in
  let q placement request = { Wishbone.Service.placement; request } in
  let queries =
    [|
      q (pl 1) (Wishbone.Service.Rate 0.8);
      q (pl 2) (Wishbone.Service.Rate 1.1);
      q (pl 3) Wishbone.Service.Search;
      q (pl 1) (Wishbone.Service.Rate 1.2);
      q (pl 1) (Wishbone.Service.Rate 0.8);
      q (pl 2) Wishbone.Service.Search;
      q (pl 2) (Wishbone.Service.Rate 1.1);
      q (pl 3) (Wishbone.Service.Rate 0.9);
    |]
  in
  let svc = Wishbone.Service.create ~capacity:4 () in
  let cold = run_pass ~shards:2 svc queries in
  let direct = direct_digests svc queries in
  check "smoke: served digests differ from direct solves"
    (direct = cold.digests);
  let warm = run_pass ~shards:2 svc queries in
  check "smoke: warm replay digests differ" (warm.digests = cold.digests);
  let c = Wishbone.Service.counters svc in
  check "smoke: hits + misses <> queries"
    (c.Wishbone.Service.hits + c.Wishbone.Service.misses
    = c.Wishbone.Service.queries);
  check "smoke: inserts - evictions <> resident"
    (c.Wishbone.Service.inserts - c.Wishbone.Service.evictions
    = c.Wishbone.Service.resident);
  check "smoke: resident over capacity" (c.Wishbone.Service.resident <= 4);
  Bench_util.row
    "smoke ok: %d queries x2 passes, %d hits, %d misses, digests match the \
     direct path\n"
    (Array.length queries) c.Wishbone.Service.hits c.Wishbone.Service.misses;
  (* new placements batch after batch, so the reused pool workers solve
     in every batch: shards=2 must answer as shards=1 does *)
  let one = Wishbone.Service.create ~capacity:4 ()
  and two = Wishbone.Service.create ~capacity:4 () in
  let n_batches = 6 in
  for b = 0 to n_batches - 1 do
    let batch =
      Array.init 4 (fun j ->
          let p = pl (100 + (4 * b) + j) in
          if j = 3 then q p Wishbone.Service.Search
          else q p (Wishbone.Service.Rate (0.8 +. (0.2 *. Float.of_int j))))
    in
    let r1 = run_pass ~shards:1 one batch in
    let r2 = run_pass ~shards:2 two batch in
    let differ what = Printf.sprintf "smoke: batch %d %s differ" b what in
    check (differ "digests") (r1.digests = r2.digests);
    check (differ "counters")
      (Wishbone.Service.counters one = Wishbone.Service.counters two)
  done;
  let c = Wishbone.Service.counters two in
  Bench_util.row
    "smoke ok: %d batches of new placements, %d solved, %d failed; shards=2 \
     answers and counters equal shards=1\n"
    n_batches c.Wishbone.Service.misses c.Wishbone.Service.failed;
  setup_alloc_gate ()
