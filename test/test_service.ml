(* Fleet placement service regression suite (DESIGN.md §16).

   Seven groups:
   - a pinned 32-query mixed eeg14/eeg22/synthetic batch whose
     response digests must be identical for shard counts 1/2/4 and
     equal to the direct no-service solve path, with exact cache
     counters;
   - qcheck: cache-hit replay is byte-identical to the cold solve, and
     an evicted entry re-solves to the first answer;
   - cache safety: the instance key covers every budget, so specs
     equal modulo CPU (or radio) budget never collide, the query key
     separates rates and searches, the keys of profiled tier chains
     and trees are pinned so cached answers and checkpoints stay
     valid, qcheck holds the key sink's writers to [Printf], two
     domains keying at once get the sequential keys, and a placement
     mutated in place between batches is keyed afresh;
   - eviction: a seeded workload against a capacity-4 cache keeps the
     resident bound, conserves the counter algebra, and serves only
     direct-path answers throughout; the cache keeps the answers that
     cost most to solve again (a search outlives cheaper rate answers,
     equal priorities go least recent first, a new entry is never its
     own victim, capacity 0 keeps nothing), and a seeded stream that
     evicts answers, counts and keeps the same entries on 1, 2 and 4
     shards and across a checkpoint;
   - warm hints: a seed that is infeasible at the queried rate is
     dropped, so a warm solve answers as the cold one does, and an
     instance's warm anchor outlives the eviction of its answers,
     with at most [capacity] instances anchored;
   - the worker pool: faulted batch streams on 2 and 4 shards and on a
     second service answer as shards=1 does, two domains serving at
     once answer as they do one after the other, an exception
     raised on a worker reaches the caller, and a batch asking for
     more shards than OCaml has domains is refused untouched;
   - requests at the edge of the grammar: a NaN rate fails at once and
     is not cached, and a service with [tol] 0 answers a search. *)

open Wishbone

let spec_exn ?mode ~platform raw =
  match Spec.of_profile ?mode ~node_platform:platform raw with
  | Ok s -> s
  | Error m -> failwith m

let q placement request = { Service.placement; request }
let rate pl r = q pl (Service.Rate r)
let search pl = q pl Service.Search

let digests responses =
  Array.map (fun (r : Service.response) -> r.Service.digest) responses

(* direct-path reference digests, memoised per cache key *)
let direct_digests svc queries =
  let memo = Hashtbl.create 16 in
  Array.map
    (fun qu ->
      let key = Service.query_key svc qu in
      match Hashtbl.find_opt memo key with
      | Some d -> d
      | None ->
          let d = Service.answer_digest (Service.solve_direct qu) in
          Hashtbl.add memo key d;
          d)
    queries

let synth seed = Placement.of_spec (Apps.Synthetic.random_spec ~seed ~n_ops:8 ())

(* ---- pinned mixed batch: shard determinism ------------------------ *)

(* short profiles: the batch exercises the service, not the profiler *)
let mixed_batch =
  lazy
    (let eeg14 =
       Placement.of_spec
         (spec_exn ~mode:Movable.Permissive
            ~platform:Profiler.Platform.tmote_sky
            (Apps.Eeg.profile ~duration:10. (Apps.Eeg.build ~n_channels:14 ())))
     in
     let eeg22 =
       Placement.of_spec
         (spec_exn ~mode:Movable.Permissive
            ~platform:Profiler.Platform.tmote_sky
            (Apps.Eeg.profile ~duration:10. (Apps.Eeg.build ())))
     in
     let s seed = Placement.of_spec (Apps.Synthetic.random_spec ~seed ~n_ops:12 ()) in
     Array.of_list
       ([ rate eeg14 0.4; rate eeg14 0.7; rate eeg14 1.0; rate eeg14 1.3;
          rate eeg14 0.7 ]
       @ [ rate eeg22 0.4; rate eeg22 0.7; rate eeg22 1.0; rate eeg22 1.3;
           rate eeg22 0.7 ]
       @ List.concat_map
           (fun seed -> [ rate (s seed) 0.8; rate (s seed) 1.2 ])
           [ 1; 2; 3; 4; 5 ]
       @ List.map (fun seed -> search (s seed)) [ 1; 2; 3; 4 ]
       @ [ rate (s 1) 0.8; rate (s 2) 1.2; search (s 1); search (s 2);
           rate (s 3) 0.8 ]
       @ [ rate eeg14 0.4; rate eeg22 1.0; rate (s 4) 1.2 ]))

let test_shard_determinism () =
  let queries = Lazy.force mixed_batch in
  Alcotest.(check int) "batch size" 32 (Array.length queries);
  let run shards =
    let svc = Service.create ~capacity:64 () in
    let responses = Service.run_batch ~shards svc queries in
    (digests responses, Service.counters svc, svc)
  in
  let d1, c1, svc1 = run 1 in
  let d2, c2, _ = run 2 in
  let d4, c4, _ = run 4 in
  Alcotest.(check (array string)) "shards=2 digests" d1 d2;
  Alcotest.(check (array string)) "shards=4 digests" d1 d4;
  (* counters are a pure function of the query history *)
  let pp c =
    Printf.sprintf "q%d h%d m%d w%d i%d e%d r%d" c.Service.queries
      c.Service.hits c.Service.misses c.Service.warm_starts c.Service.inserts
      c.Service.evictions c.Service.resident
  in
  Alcotest.(check string) "shards=2 counters" (pp c1) (pp c2);
  Alcotest.(check string) "shards=4 counters" (pp c1) (pp c4);
  (* 10 duplicate queries in the batch, nothing evicted at capacity 64 *)
  Alcotest.(check string) "exact counters" "q32 h10 m22 w0 i22 e0 r22" (pp c1);
  (* and the whole thing equals the no-service direct path *)
  Alcotest.(check (array string))
    "direct path" (direct_digests svc1 queries) d1

(* ---- qcheck: replay and eviction equivalences --------------------- *)

let prop_replay_equals_cold =
  QCheck.Test.make ~count:40 ~name:"cache-hit replay = cold solve"
    QCheck.small_int (fun seed ->
      let pl = synth (1 + seed) in
      let queries = [| rate pl 0.9; rate pl 1.2; search pl; rate pl 0.9 |] in
      let svc = Service.create ~capacity:8 () in
      let cold = digests (Service.run_batch svc queries) in
      let warm = digests (Service.run_batch svc queries) in
      let direct =
        Array.map
          (fun qu -> Service.answer_digest (Service.solve_direct qu))
          queries
      in
      cold = warm && cold = direct)

let prop_evict_then_requery =
  QCheck.Test.make ~count:40 ~name:"eviction then requery = first solve"
    QCheck.small_int (fun seed ->
      let a = synth (1 + seed) and b = synth (1000 + seed) in
      (* capacity 1: b's insert evicts a, so the requery re-solves *)
      let svc = Service.create ~capacity:1 () in
      let first = (Service.run_batch svc [| rate a 0.9 |]).(0) in
      let _ = Service.run_batch svc [| rate b 0.9 |] in
      let again = (Service.run_batch svc [| rate a 0.9 |]).(0) in
      let c = Service.counters svc in
      first.Service.digest = again.Service.digest
      && again.Service.served <> Service.Hit
      && c.Service.hits = 0 && c.Service.misses = 3
      && c.Service.inserts = 3 && c.Service.evictions = 2
      && c.Service.resident = 1)

(* ---- cache safety: the key covers every budget -------------------- *)

let test_key_covers_budgets () =
  let spec = Apps.Synthetic.random_spec ~seed:5 ~n_ops:8 () in
  let pl = Placement.of_spec spec in
  let tighter_cpu =
    Placement.of_spec { spec with Spec.cpu_budget = spec.Spec.cpu_budget /. 2. }
  in
  let tighter_net =
    Placement.of_spec { spec with Spec.net_budget = spec.Spec.net_budget /. 2. }
  in
  Alcotest.(check bool) "cpu budget in key" false
    (Service.instance_key pl = Service.instance_key tighter_cpu);
  Alcotest.(check bool) "net budget in key" false
    (Service.instance_key pl = Service.instance_key tighter_net);
  let svc = Service.create () in
  Alcotest.(check bool) "rate in key" false
    (Service.query_key svc (rate pl 0.9) = Service.query_key svc (rate pl 1.1));
  Alcotest.(check bool) "search is its own key" false
    (Service.query_key svc (rate pl 0.9) = Service.query_key svc (search pl));
  (* and equal queries do collide, or the cache would never hit *)
  Alcotest.(check string) "identical queries share the key"
    (Service.query_key svc (rate pl 0.9))
    (Service.query_key svc (rate pl 0.9))

(* [serve] keys its cache and checkpoints by [instance_key]; the
   profiled instances [Placement.of_platforms] builds for a --topology
   chain, a --topology tree and a single platform must keep these
   bytes (pinned as MD5 digests of the key) *)
let test_profiled_keys_pinned () =
  let speech = Apps.Speech.build () in
  let raw = Apps.Speech.profile ~duration:10. speech in
  let p = Profiler.Platform.find in
  let spec = spec_exn ~platform:(p "tmote") raw in
  let key pl = Digest.to_hex (Digest.string (Service.instance_key pl)) in
  Alcotest.(check string) "speech tmote,meraki chain"
    "1f056220a7712ad3432e6db6845d5dd5"
    (key (Placement.of_platforms spec raw [ p "tmote"; p "meraki" ]));
  Alcotest.(check string) "speech tmote>2,tmote>2,gumstix tree"
    "6def39b01077f9586ba5bc30dd9c1110"
    (key
       (Placement.of_platforms ~parents:[| 2; 2; 3; -1 |] spec raw
          [ p "tmote"; p "tmote"; p "gumstix" ]));
  Alcotest.(check string) "speech tmote (the two-way cut)"
    "1bc8217a880f4261b0c47d0154b036d2"
    (key (Placement.of_platforms spec raw [ p "tmote" ]));
  (* the large profiled chains, and a synthetic spec whose budgets
     render the infinity and negative-zero bit patterns *)
  let eeg n =
    Placement.of_spec
      (spec_exn ~mode:Movable.Permissive ~platform:Profiler.Platform.tmote_sky
         (Apps.Eeg.profile ~duration:30. (Apps.Eeg.build ~n_channels:n ())))
  in
  Alcotest.(check string) "eeg14 chain" "b77dafedd48e93076d7dc7651bc8c2da"
    (key (eeg 14));
  Alcotest.(check string) "eeg22 chain" "6cf9732ab348c55f996b11570e28c23a"
    (key (eeg 22));
  let spec = Apps.Synthetic.random_spec ~seed:5 ~n_ops:20 () in
  Alcotest.(check string) "synthetic, infinite radio budget, alpha -0."
    "1df41114759c02f3f7fa5f61e103e618"
    (key
       (Placement.of_spec
          { spec with Spec.net_budget = infinity; alpha = -0. }));
  Alcotest.(check string) "synthetic answer digest at x0.35"
    "0ab62a45fc69805e3dce0a0d2523ec99"
    (Service.answer_digest
       (Service.solve_direct (rate (Placement.of_spec spec) 0.35)))

(* the sink's writers, which render every key and answer digest,
   write exactly what [Printf] does; one sink takes many appends, as
   a key does *)
let rendered add x =
  let s = Service.Sink.create () in
  add s x;
  let once = Service.Sink.contents s in
  add s x;
  let twice = Service.Sink.contents s in
  if twice <> once ^ once then Alcotest.fail "appending changed the sink";
  once

let prop_float_writer =
  let special =
    [ 0.; -0.; infinity; neg_infinity; nan; Float.min_float; 1.; -1.;
      Float.max_float ]
    @ List.map Int64.float_of_bits
        [ 0x7ff0000000000001L; 0xfff8000000000000L; 0x7fffffffffffffffL;
          0xffffffffffffffffL; 1L; 0x000fffffffffffffL; 0x8000000000000001L;
          0x0000000100000000L; 0x00000000ffffffffL ]
  in
  let gen =
    QCheck.Gen.(
      frequency
        [
          (4, map Int64.float_of_bits int64);
          (* every hex length: patterns with k leading zero bits *)
          ( 4,
            map2
              (fun b k -> Int64.float_of_bits (Int64.shift_right_logical b k))
              int64 (int_bound 63) );
          (1, oneofl special);
        ])
  in
  QCheck.Test.make ~count:2000 ~name:"float writer matches Printf"
    (QCheck.make
       ~print:(fun x -> Printf.sprintf "%Lx" (Int64.bits_of_float x))
       gen)
    (fun x ->
      rendered Service.Sink.add_float_bits x
      = Printf.sprintf "%Lx;" (Int64.bits_of_float x))

let prop_int_writer =
  let gen =
    QCheck.Gen.(
      frequency
        [
          (4, int);
          (2, map2 (fun n k -> n asr k) int (int_bound 62));
          (1, oneofl [ 0; 1; -1; 9; 10; -10; min_int; max_int; min_int + 1 ]);
        ])
  in
  QCheck.Test.make ~count:2000 ~name:"int writer matches string_of_int"
    (QCheck.make ~print:string_of_int gen)
    (fun n -> rendered Service.Sink.add_int n = string_of_int n)

(* Keying runs on every shard's domain at once, each domain rendering
   into its own sink: two domains keying the same long chains and a
   synthetic placement, in opposite orders, get the sequential keys. *)
let test_keys_on_two_domains () =
  let mixed = Lazy.force mixed_batch in
  let pls =
    [| mixed.(0).Service.placement; mixed.(5).Service.placement; synth 3 |]
  in
  let sequential = Array.map Service.instance_key pls in
  let key_all order () =
    List.init 20 (fun _ ->
        Array.map (fun i -> (i, Service.instance_key pls.(i))) order)
  in
  let other = Domain.spawn (key_all [| 2; 1; 0 |]) in
  let here = key_all [| 0; 1; 2 |] () in
  List.iter
    (Array.iter (fun (i, k) ->
         Alcotest.(check string) "key under concurrent keying"
           sequential.(i) k))
    (here @ Domain.join other)

(* ---- in-place mutation between batches ----------------------------- *)

(* A copy of [pl] sharing no array the key reads: the graph rebuilt
   from its operators and edges, every cost, pin and budget array
   copied (tier 0 keeps sharing the spec's costs if [pl]'s does). *)
let deep_copy (pl : Placement.t) =
  let open Dataflow in
  let spec = pl.Placement.spec in
  let g = spec.Spec.graph in
  let graph =
    Graph.make
      (Array.copy (Graph.ops g))
      (Array.to_list
         (Array.map
            (fun (e : Graph.edge) -> (e.src, e.dst, e.dst_port))
            (Graph.edges g)))
  in
  let cpu = Array.copy spec.Spec.cpu in
  {
    pl with
    Placement.spec =
      {
        spec with
        Spec.graph;
        placement = Array.copy spec.Spec.placement;
        cpu;
        bandwidth = Array.copy spec.Spec.bandwidth;
      };
    tiers =
      Array.map
        (fun (t : Placement.tier) ->
          {
            t with
            Placement.cpu =
              (if t.Placement.cpu == spec.Spec.cpu then cpu
               else Array.copy t.Placement.cpu);
          })
        pl.Placement.tiers;
    links = Array.copy pl.Placement.links;
    tier_pins = Array.copy pl.Placement.tier_pins;
  }

(* [a.(i) <- x], returning the write that undoes it *)
let poke a i x =
  let old = a.(i) in
  a.(i) <- x;
  fun () -> a.(i) <- old

(* One in-place write per array the service's key memo copies, each
   changing the key: an operator, an edge (its source moved to the
   graph's source operator, still a DAG), a [Movable] pin, spec CPU
   costs held apart from tier 0's (so only the spec's array changes),
   a bandwidth, a tier record, the server tier's costs, [of_spec]'s
   tier-0 costs (the very array [spec.cpu] is), a link and a tier
   pin.  Each returns the write that reverts it. *)
let mutations =
  let open Dataflow in
  let spec () = Apps.Synthetic.random_spec ~seed:11 ~n_ops:10 () in
  let two_way () = Placement.of_spec (spec ()) in
  let split_costs () =
    let spec = spec () in
    let pl = Placement.of_spec spec in
    Placement.v ~spec
      ~tiers:
        [
          {
            (pl.Placement.tiers.(0)) with
            Placement.cpu = Array.copy spec.Spec.cpu;
          };
          pl.Placement.tiers.(1);
        ]
      ~links:(Array.to_list pl.Placement.links)
      ()
  in
  let graph (pl : Placement.t) = pl.Placement.spec.Spec.graph in
  let first p a =
    let rec go i = if p a.(i) then i else go (i + 1) in
    go 0
  in
  [
    ( "operator",
      two_way,
      fun pl ->
        let ops = Graph.ops (graph pl) in
        poke ops 3 { (ops.(3)) with Op.name = "renamed" } );
    ( "edge",
      two_way,
      fun pl ->
        let edges = Graph.edges (graph pl) in
        let i = first (fun (e : Graph.edge) -> e.src <> 0) edges in
        poke edges i { (edges.(i)) with Graph.src = 0 } );
    ( "operator pin",
      two_way,
      fun pl ->
        let pins = pl.Placement.spec.Spec.placement in
        poke pins (first (( = ) Movable.Movable) pins) Movable.Pin_node );
    ( "spec cpu",
      split_costs,
      fun pl ->
        let cpu = pl.Placement.spec.Spec.cpu in
        poke cpu 2 (cpu.(2) *. 4.) );
    ( "bandwidth",
      two_way,
      fun pl ->
        let bw = pl.Placement.spec.Spec.bandwidth in
        poke bw 1 (bw.(1) *. 4.) );
    ( "tier",
      two_way,
      fun pl ->
        let tiers = pl.Placement.tiers in
        poke tiers 0
          {
            (tiers.(0)) with
            Placement.cpu_budget = tiers.(0).Placement.cpu_budget *. 0.5;
          } );
    ( "server tier cpu",
      two_way,
      fun pl -> poke pl.Placement.tiers.(1).Placement.cpu 2 0.25 );
    ( "of_spec tier-0 cpu (= spec cpu)",
      two_way,
      fun pl ->
        let cpu = pl.Placement.tiers.(0).Placement.cpu in
        assert (cpu == pl.Placement.spec.Spec.cpu);
        poke cpu 2 (cpu.(2) *. 4.) );
    ( "link",
      two_way,
      fun pl ->
        let links = pl.Placement.links in
        poke links 0
          {
            (links.(0)) with
            Placement.net_budget = links.(0).Placement.net_budget *. 0.5;
          } );
    ( "tier pin",
      two_way,
      fun pl ->
        let pins = pl.Placement.tier_pins in
        poke pins (Array.length pins - 1) (Some 1) );
  ]

(* The service reuses a placement's key across batches only while its
   content is unchanged: after an in-place write the same placement
   value is re-keyed (never a stale hit), answers as the direct path
   does on the new content, and is cached under the key a fresh copy
   of that content gets; reverting the write hits the first entry
   again.  The placement is served in two batches before the write, so
   the memo holds its copies when it changes. *)
let test_mutation_rekeyed () =
  List.iter
    (fun (name, make, mutate) ->
      let label what = Printf.sprintf "%s: %s" name what in
      let pl = make () in
      let q = rate pl 0.9 in
      let svc = Service.create ~capacity:8 () in
      let serve q = (Service.run_batch ~shards:2 svc [| q |]).(0) in
      let first = serve q in
      Alcotest.(check bool) (label "served again, it hits") true
        ((serve q).Service.served = Service.Hit);
      let key = Service.instance_key pl in
      let revert = mutate pl in
      Alcotest.(check bool) (label "the write changes the key") false
        (key = Service.instance_key pl);
      let second = serve q in
      Alcotest.(check bool) (label "not a stale hit") true
        (second.Service.served <> Service.Hit);
      Alcotest.(check string) (label "answers the mutated content")
        (Service.answer_digest (Service.solve_direct q))
        second.Service.digest;
      let copy = rate (deep_copy pl) 0.9 in
      Alcotest.(check string) (label "query key of a fresh copy")
        (Service.query_key svc copy) (Service.query_key svc q);
      Alcotest.(check bool) (label "a fresh copy hits the new entry") true
        ((serve copy).Service.served = Service.Hit);
      revert ();
      let third = serve q in
      Alcotest.(check bool) (label "reverted, it hits again") true
        (third.Service.served = Service.Hit);
      Alcotest.(check string) (label "reverted, the first answer")
        first.Service.digest third.Service.digest)
    mutations

(* ---- eviction ------------------------------------------------------ *)

let pp_counters (c : Service.counters) =
  Printf.sprintf "q%d h%d m%d w%d i%d e%d r%d | ok%d d%d f%d rt%d wd%d | sc%d"
    c.Service.queries c.Service.hits c.Service.misses c.Service.warm_starts
    c.Service.inserts c.Service.evictions c.Service.resident c.Service.ok
    c.Service.degraded c.Service.failed c.Service.retries
    c.Service.worker_deaths c.Service.solve_cost

(* [got] answers as [expected] does, batch by batch: digests, serve
   tags and counters *)
let check_served name expected got =
  Array.iteri
    (fun b (d, s, c) ->
      let d', s', c' = got.(b) in
      let label what = Printf.sprintf "%s, batch %d: %s" name b what in
      Alcotest.(check (array string)) (label "digests") d d';
      Alcotest.(check bool) (label "serve tags") true (s = s');
      Alcotest.(check string) (label "counters") c c')
    expected


let test_churn () =
  let capacity = 4 in
  let svc = Service.create ~capacity () in
  let rng = Prng.create 99 in
  let instances = Array.init 8 (fun i -> synth (200 + i)) in
  let total = ref 0 in
  for _ = 1 to 12 do
    let n = 2 + Prng.int rng 4 in
    let batch =
      Array.init n (fun _ ->
          let pl = instances.(Prng.int rng 8) in
          if Prng.bool rng 0.2 then search pl
          else rate pl (0.8 +. (0.2 *. Float.of_int (Prng.int rng 3))))
    in
    total := !total + n;
    let responses = Service.run_batch ~shards:2 svc batch in
    Alcotest.(check (array string))
      "batch equals direct path" (direct_digests svc batch)
      (digests responses);
    let c = Service.counters svc in
    Alcotest.(check bool) "resident bound" true
      (c.Service.resident <= capacity);
    Alcotest.(check int) "hits + misses = queries" c.Service.queries
      (c.Service.hits + c.Service.misses);
    Alcotest.(check int) "inserts - evictions = resident" c.Service.resident
      (c.Service.inserts - c.Service.evictions)
  done;
  let c = Service.counters svc in
  Alcotest.(check int) "every query counted" !total c.Service.queries;
  Alcotest.(check bool) "churn evicted something" true
    (c.Service.evictions > 0)

(* [queries] served one batch each, returning their serve tags *)
let served_each svc queries =
  List.map
    (fun qu -> (Service.run_batch svc [| qu |]).(0).Service.served)
    queries

let is_hit s = s = Service.Hit

(* the eviction cost of [qu], served alone as a miss *)
let cost_of svc qu =
  let before = (Service.counters svc).Service.solve_cost in
  ignore (served_each svc [ qu ]);
  (Service.counters svc).Service.solve_cost - before

(* At capacity 2 a search, whose answer took one solve per probe,
   outlives two rate answers that took one solve each: the second rate
   insert evicts the first rate answer, where recency alone would have
   evicted the search, the least recent entry. *)
let test_search_outlives_rates () =
  let x = synth 31 and a = synth 32 and b = synth 33 in
  let svc = Service.create ~capacity:2 () in
  let cx = cost_of svc (search x) in
  let ca = cost_of svc (rate a 0.9) in
  let cb = cost_of svc (rate b 0.9) in
  Alcotest.(check bool) "the search costs more than each rate answer" true
    (cx > ca && cx > cb);
  Alcotest.(check int) "one eviction" 1
    (Service.counters svc).Service.evictions;
  match served_each svc [ search x; rate b 0.9; rate a 0.9 ] with
  | [ sx; sb; sa ] ->
      Alcotest.(check bool) "the search is still cached" true (is_hit sx);
      Alcotest.(check bool) "so is the newer rate answer" true (is_hit sb);
      Alcotest.(check bool) "the older rate answer went" false (is_hit sa)
  | _ -> assert false

(* Equal costs give equal priorities, and ties evict the entry asked
   for least recently.  An infeasible rate costs its operators alone,
   so three 8-operator instances far past their feasible rate cost
   alike.  At capacity 2, C's insert evicts A (inserted before B); a
   hit on B makes C the least recent of the two left, so A's
   re-insert evicts C. *)
let test_ties_evict_least_recent () =
  let a = synth 41 and b = synth 42 and c = synth 43 in
  let svc = Service.create ~capacity:2 () in
  let costs = List.map (fun pl -> cost_of svc (rate pl 1e4)) [ a; b; c ] in
  Alcotest.(check (list int)) "equal costs" [ 8; 8; 8 ] costs;
  match
    served_each svc [ rate b 1e4; rate a 1e4; rate b 1e4; rate c 1e4 ]
  with
  | [ b1; a1; b2; c1 ] ->
      Alcotest.(check bool) "B is kept" true (is_hit b1);
      Alcotest.(check bool) "A, the least recent, went" false (is_hit a1);
      Alcotest.(check bool) "B, hit since, is kept" true (is_hit b2);
      Alcotest.(check bool) "C, the least recent now, went" false (is_hit c1)
  | _ -> assert false

(* A new entry is priced after the eviction it causes, so it is never
   its own victim: at capacity 1 a cheap rate answer still takes the
   place of a dear search answer.  Capacity 0 keeps nothing. *)
let test_new_entry_kept () =
  let x = synth 51 and a = synth 52 in
  let one = Service.create ~capacity:1 () in
  (match served_each one [ search x; rate a 0.9; rate a 0.9; search x ] with
  | [ _; _; a2; x2 ] ->
      Alcotest.(check bool) "the rate answer is kept" true (is_hit a2);
      Alcotest.(check bool) "the search went" false (is_hit x2)
  | _ -> assert false);
  let none = Service.create ~capacity:0 () in
  let twice = [ rate a 0.9; search x; rate a 0.9; search x ] in
  let tags = served_each none twice in
  let c = Service.counters none in
  Alcotest.(check bool) "capacity 0: no hit" false (List.exists is_hit tags);
  Alcotest.(check (list int)) "capacity 0: inserts, evictions, resident"
    [ 4; 4; 0 ]
    [ c.Service.inserts; c.Service.evictions; c.Service.resident ]

(* A seeded stream over instances of 6 to 12 operators, whose rates
   and searches cost from 6 to a few hundred, at a capacity that
   evicts: shards 1, 2 and 4, and a service checkpointed and restored
   mid-stream, give the same responses and counters after every batch
   and end with the same resident entries, priced alike (equal
   snapshot bytes). *)
let test_stream_deterministic () =
  let rng = Prng.create 17 in
  let instances =
    Array.init 10 (fun i ->
        Placement.of_spec
          (Apps.Synthetic.random_spec ~seed:(300 + i)
             ~n_ops:(6 + (i mod 7)) ()))
  in
  let batches =
    Array.init 24 (fun _ ->
        Array.init (3 + Prng.int rng 4) (fun _ ->
            let pl = instances.(Prng.int rng 10) in
            if Prng.bool rng 0.25 then search pl
            else rate pl (0.7 +. (0.15 *. Float.of_int (Prng.int rng 4)))))
  in
  let capacity = 5 in
  let path = Filename.temp_file "stream" ".ckpt" in
  let snapshot svc =
    Service.checkpoint svc path;
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let run ~shards ?(restart_at = -1) () =
    let svc = ref (Service.create ~capacity ()) in
    let out =
      Array.mapi
        (fun b batch ->
          if b = restart_at then begin
            ignore (snapshot !svc);
            match Service.restore path with
            | revived, Service.Restored _ -> svc := revived
            | _, Service.Cold_start m -> Alcotest.fail ("cold start: " ^ m)
          end;
          let r = Service.run_batch ~shards !svc batch in
          ( digests r,
            Array.map (fun (r : Service.response) -> r.Service.served) r,
            pp_counters (Service.counters !svc) ))
        batches
    in
    (out, snapshot !svc, Service.counters !svc)
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let expected, final, c = run ~shards:1 () in
      Alcotest.(check bool) "the stream evicts" true (c.Service.evictions > 0);
      List.iter
        (fun (name, (got, final', _)) ->
          check_served name expected got;
          Alcotest.(check bool) (name ^ ": same resident entries") true
            (final = final'))
        [
          ("shards=2", run ~shards:2 ());
          ("shards=4", run ~shards:4 ());
          ("restored at batch 12", run ~shards:2 ~restart_at:12 ());
        ])

(* ---- warm hints never change answers ------------------------------ *)

(* On this random spec the x0.35 optimum loads the node to 1.0000034 of
   its budget at x0.4375: inside branch & bound's 1e-5 row tolerance,
   with an objective below the true optimum.  Taken as the incumbent it
   would prune the whole tree; the solve must drop it and answer as a
   cold solve does, directly and through a warm service query. *)
let test_infeasible_seed_is_dropped () =
  let pl =
    Placement.of_spec
      (Apps.Synthetic.random_spec ~seed:(Prng.derive 410 [ 2; 9 ]) ~n_ops:15 ())
  in
  let target = 0.4375 in
  let cold = Service.solve_direct (rate pl target) in
  let cold_tiers =
    match cold with
    | Service.Placed { report; _ } -> report.Placement.tier_of
    | _ -> Alcotest.fail "the cold solve places the instance"
  in
  List.iter
    (fun from ->
      let seed =
        match Placement.solve (Placement.scale_rate pl from) with
        | Placement.Partitioned r -> r.Placement.tier_of
        | _ -> Alcotest.failf "x%g: expected a partition" from
      in
      let label what = Printf.sprintf "seeded from x%g: %s" from what in
      (match
         Placement.solve ~initial:seed (Placement.scale_rate pl target)
       with
      | Placement.Partitioned r ->
          Alcotest.(check (array int)) (label "cold assignment") cold_tiers
            r.Placement.tier_of
      | _ -> Alcotest.fail (label "expected a partition"));
      let svc = Service.create () in
      ignore (Service.run_batch svc [| rate pl from |]);
      let warm = (Service.run_batch svc [| rate pl target |]).(0) in
      Alcotest.(check bool) (label "served warm") true
        (warm.Service.served = Service.Warm_start);
      Alcotest.(check string) (label "service answer = direct")
        (Service.answer_digest cold) warm.Service.digest)
    [ 0.35; 0.385 ]

(* An instance's warm anchor outlives the eviction of its answers.  At
   capacity 1 an infeasible answer of another instance evicts X's only
   entry but leaves X's anchor (an infeasible answer anchors nothing),
   so X at another rate starts warm and answers as the direct path
   does.  Anchors are bounded like the cache: a placed answer of a
   second instance takes the place of X's anchor, the one committed
   longest ago, at capacity 1 but not at capacity 2, and capacity 0
   keeps none. *)
let test_anchor_outlives_eviction () =
  let x = synth 21 and y = synth 22 and z = synth 23 in
  let svc = Service.create ~capacity:1 () in
  let first = (Service.run_batch svc [| rate x 0.9 |]).(0) in
  Alcotest.(check bool) "X is placed" true
    (match first.Service.answer with Service.Placed _ -> true | _ -> false);
  let other = (Service.run_batch svc [| rate y 1000. |]).(0) in
  Alcotest.(check bool) "Y is infeasible" true
    (other.Service.answer = Service.Infeasible);
  Alcotest.(check int) "X's entry is evicted" 1
    (Service.counters svc).Service.evictions;
  let again = (Service.run_batch svc [| rate x 1.1 |]).(0) in
  Alcotest.(check bool) "served warm" true
    (again.Service.served = Service.Warm_start);
  Alcotest.(check string) "the direct path's answer"
    (Service.answer_digest (Service.solve_direct (rate x 1.1)))
    again.Service.digest;
  let served_after ~capacity others =
    let svc = Service.create ~capacity () in
    ignore (Service.run_batch svc [| rate x 0.9 |]);
    List.iter (fun q -> ignore (Service.run_batch svc [| q |])) others;
    (Service.run_batch svc [| rate x 1.1 |]).(0).Service.served
  in
  Alcotest.(check bool) "capacity 1: Z's anchor replaces X's" true
    (served_after ~capacity:1 [ rate z 0.9 ] = Service.Cold);
  Alcotest.(check bool) "capacity 2: X keeps its anchor" true
    (served_after ~capacity:2 [ rate z 0.9 ] = Service.Warm_start);
  Alcotest.(check bool) "capacity 0: no anchor" true
    (served_after ~capacity:0 [] = Service.Cold)

(* ---- the worker pool ---------------------------------------------- *)

(* [n] batches of four queries over placements no earlier batch used,
   so every query is a cold solve *)
let fresh_batches ~first n =
  Array.init n (fun b ->
      let pl j = synth (5000 + (4 * (first + b)) + j) in
      let p0 = pl 0 in
      [| rate p0 0.9; rate (pl 1) 1.1; search (pl 2); rate p0 1.2 |])

let faulted () =
  Service.create ~capacity:16
    ~fault_plan:(Service.Fault_plan.seeded ~rate:0.35 3)
    ()

(* every batch's digests, serve tags and counters *)
let serve ~shards svc batches =
  Array.map
    (fun batch ->
      let responses = Service.run_batch ~shards svc batch in
      ( digests responses,
        Array.map (fun (r : Service.response) -> r.Service.served) responses,
        pp_counters (Service.counters svc) ))
    batches

(* The pool's workers are reused by every batch and every service:
   sixty faulted batches on 2, then 4 (the pool grows), then 2 shards on
   a second service answer as the shards=1 replay does, worker kills
   and retries included. *)
let test_pool_reuse_under_faults () =
  let p0 = fresh_batches ~first:0 20
  and p1 = fresh_batches ~first:20 20
  and p2 = fresh_batches ~first:40 20 in
  let one = faulted () and one' = faulted () in
  let e0 = serve ~shards:1 one p0 in
  let e1 = serve ~shards:1 one p1 in
  let e2 = serve ~shards:1 one' p2 in
  let svc = faulted () and svc' = faulted () in
  let a = serve ~shards:2 svc p0 in
  let deaths_a = (Service.counters svc).Service.worker_deaths in
  let b = serve ~shards:4 svc p1 in
  let deaths_b = (Service.counters svc).Service.worker_deaths in
  let c = serve ~shards:2 svc' p2 in
  check_served "shards=2" e0 a;
  check_served "shards=4" e1 b;
  check_served "second service" e2 c;
  (* the plan must kill workers in every phase *)
  Alcotest.(check bool) "kills on 2 shards" true (deaths_a > 0);
  Alcotest.(check bool) "kills on 4 shards" true (deaths_b > deaths_a);
  Alcotest.(check bool) "kills on the second service" true
    ((Service.counters svc').Service.worker_deaths > 0)

(* Two domains drive [run_batch ~shards:2] on their own services at
   once, sharing the pool: each call waits for its own work only, so
   both answer as they do one after the other.  Every batch also
   serves the eeg14 and eeg22 placements (hits after the first batch):
   their long keys keep both calls' copies busy at once in the first
   two batches, and each batch after those checks them against its
   service's key memo. *)
let test_concurrent_callers () =
  let mixed = Lazy.force mixed_batch in
  let with_eeg = Array.map (Array.append [| mixed.(0); mixed.(5) |]) in
  let xs = with_eeg (fresh_batches ~first:100 16)
  and ys = with_eeg (fresh_batches ~first:116 16) in
  let seq_x = serve ~shards:2 (faulted ()) xs in
  let seq_y = serve ~shards:2 (faulted ()) ys in
  let ready = Atomic.make 0 in
  let racer batches () =
    let svc = faulted () in
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    serve ~shards:2 svc batches
  in
  let dx = Domain.spawn (racer xs) and dy = Domain.spawn (racer ys) in
  let par_x = Domain.join dx and par_y = Domain.join dy in
  check_served "first caller" seq_x par_x;
  check_served "second caller" seq_y par_y

(* An exception from a job reaches the caller, whichever domain raised
   it, and the pool keeps serving.  The caller claims the long eeg14
   key first, so a worker usually keys the malformed placement (no
   bandwidths); ten rounds make that near certain. *)
let test_job_exception_reaches_caller () =
  let eeg14 = (Lazy.force mixed_batch).(0).Service.placement in
  for seed = 1 to 10 do
    let pl = synth seed in
    let spec = { pl.Placement.spec with Spec.bandwidth = [||] } in
    let bad = { pl with Placement.spec } in
    match
      Service.run_batch ~shards:2 (Service.create ())
        [| rate eeg14 0.9; rate bad 0.9 |]
    with
    | _ -> Alcotest.fail "keying a malformed placement must raise"
    | exception Invalid_argument _ -> ()
  done;
  let batch = [| rate (synth 7) 0.9; rate (synth 8) 1.1; search (synth 9) |] in
  let svc = Service.create () in
  Alcotest.(check (array string)) "the pool serves on"
    (direct_digests svc batch)
    (digests (Service.run_batch ~shards:2 svc batch))

(* OCaml 5.1 runs at most 128 domains.  A batch asking for more shards
   is refused before it counts a query; neither call below spawns a
   domain, because a one-query batch needs no helper. *)
let test_shards_past_domain_limit () =
  let svc = Service.create () in
  let before = Service.counters svc in
  (match Service.run_batch ~shards:129 svc [| rate (synth 1) 0.9 |] with
  | _ -> Alcotest.fail "shards above 128 must be refused"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "counters unchanged" true
    (Service.counters svc = before);
  let served = Service.run_batch ~shards:128 svc [| rate (synth 1) 0.9 |] in
  Alcotest.(check (array string)) "128 shards serve"
    (direct_digests svc [| rate (synth 1) 0.9 |])
    (digests served)

(* [Spec.scale_rate] rejects NaN, so the supervisor contains the
   exception into [Failed], which is never cached.  Every attempt
   would fail the same way, so none is retried. *)
let test_nan_rate_fails () =
  let svc = Service.create () in
  let served = Service.run_batch svc [| rate (synth 1) Float.nan |] in
  (match served.(0).Service.answer with
  | Service.Failed _ -> ()
  | _ -> Alcotest.fail "a NaN rate must be answered failed");
  Alcotest.(check int) "nothing resident" 0
    (Service.counters svc).Service.resident;
  Alcotest.(check int) "not retried" 0 (Service.counters svc).Service.retries

(* bisection stops at adjacent floats, so a zero [tol] returns *)
let test_zero_tol_search () =
  let svc = Service.create ~tol:0. () in
  let qu = search (synth 1) in
  let served = Service.run_batch svc [| qu |] in
  (match served.(0).Service.answer with
  | Service.Placed _ | Service.Degraded _ -> ()
  | _ -> Alcotest.fail "a zero-tol search must place");
  Alcotest.(check string) "direct digest"
    (Service.answer_digest (Service.solve_direct ~tol:0. qu))
    served.(0).Service.digest

let () =
  Alcotest.run "service"
    [
      ( "determinism",
        [
          Alcotest.test_case "32-query batch, shards 1/2/4" `Quick
            test_shard_determinism;
        ] );
      ( "replay",
        [
          QCheck_alcotest.to_alcotest prop_replay_equals_cold;
          QCheck_alcotest.to_alcotest prop_evict_then_requery;
        ] );
      ( "cache-safety",
        [
          Alcotest.test_case "keys cover budgets and requests" `Quick
            test_key_covers_budgets;
          Alcotest.test_case "profiled chain and tree keys pinned" `Quick
            test_profiled_keys_pinned;
          QCheck_alcotest.to_alcotest prop_float_writer;
          QCheck_alcotest.to_alcotest prop_int_writer;
          Alcotest.test_case "keys on two domains at once" `Quick
            test_keys_on_two_domains;
          Alcotest.test_case "in-place mutation between batches is re-keyed"
            `Quick test_mutation_rekeyed;
        ] );
      ( "eviction",
        [
          Alcotest.test_case "seeded churn" `Quick test_churn;
          Alcotest.test_case "a search outlives cheaper answers" `Quick
            test_search_outlives_rates;
          Alcotest.test_case "ties evict the least recent entry" `Quick
            test_ties_evict_least_recent;
          Alcotest.test_case "a new entry is never its own victim" `Quick
            test_new_entry_kept;
          Alcotest.test_case "shards and restore evict alike" `Quick
            test_stream_deterministic;
        ] );
      ( "warm-hints",
        [
          Alcotest.test_case "infeasible seed gives the cold answer" `Quick
            test_infeasible_seed_is_dropped;
          Alcotest.test_case "anchors outlive eviction, bounded by capacity"
            `Quick test_anchor_outlives_eviction;
        ] );
      ( "pool",
        [
          Alcotest.test_case "reuse under faults, shards 2/4, two services"
            `Quick test_pool_reuse_under_faults;
          Alcotest.test_case "concurrent callers" `Quick
            test_concurrent_callers;
          Alcotest.test_case "job exceptions reach the caller" `Quick
            test_job_exception_reaches_caller;
          Alcotest.test_case "shards past the domain limit refused" `Quick
            test_shards_past_domain_limit;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "a NaN rate fails and is not cached" `Quick
            test_nan_rate_fails;
          Alcotest.test_case "a zero-tol search answers" `Quick
            test_zero_tol_search;
        ] );
    ]
