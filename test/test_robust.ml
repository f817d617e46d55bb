(* Fault containment and crash-safe checkpoint suite (DESIGN.md §17).

   Six groups:
   - faults off is bit-identical: a service with the containment layer
     armed (retries, Fault_plan.none) serves the pinned 32-query batch
     byte-identically to the plain direct path, with ok = queries;
   - fault-plan replay determinism: a seeded plan over the same batch
     yields identical digests and identical containment counters for
     shards 1/2/4, and re-runs bit-identically for the same seed; every
     non-failed answer equals the faults-off answer byte for byte, and
     counters conserve (ok + degraded + failed = queries);
   - retry accounting: at fault rate 1.0 every solve misbehaves; more
     retries can only convert failures into successes, never change a
     successful answer;
   - worker deaths: when every solving domain, the calling one
     included, dies on its first claim, the sweep finishes the batch
     with the faults-off answers and shard-independent counters;
   - checkpoints: kill-and-restore mid-history replays the rest of the
     workload byte-identically to an uninterrupted service (faulted,
     fault-free, and after an instance's last entry was evicted, which
     its warm anchor outlives), two services serving one history write
     byte-identical snapshots, an anchor whose answer is resident adds
     no copy of its tiers and basis, and corrupt / truncated / stale /
     previous-format / missing snapshots, and entries priced as no
     eviction could have left them, restore to a cold cache, never to
     wrong answers;
   - degradation: work-unit budgets surface gap-certified Degraded
     answers that are feasible and deterministic across shard counts. *)

open Wishbone

let q placement request = { Service.placement; request }
let rate pl r = q pl (Service.Rate r)
let search pl = q pl Service.Search

let digests responses =
  Array.map (fun (r : Service.response) -> r.Service.digest) responses

let synth ?(n_ops = 8) seed =
  Placement.of_spec (Apps.Synthetic.random_spec ~seed ~n_ops ())

let spec_exn ?mode ~platform raw =
  match Spec.of_profile ?mode ~node_platform:platform raw with
  | Ok s -> s
  | Error m -> failwith m

(* the same pinned 32-query mixed eeg14/eeg22/synthetic batch as the
   service suite: short profiles, repeats and near-repeats *)
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
     let s seed = synth ~n_ops:12 seed in
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

let pp_counters (c : Service.counters) =
  Printf.sprintf "q%d h%d m%d w%d i%d e%d r%d | ok%d d%d f%d rt%d wd%d"
    c.Service.queries c.Service.hits c.Service.misses c.Service.warm_starts
    c.Service.inserts c.Service.evictions c.Service.resident c.Service.ok
    c.Service.degraded c.Service.failed c.Service.retries
    c.Service.worker_deaths

let check_conservation name (c : Service.counters) =
  Alcotest.(check int)
    (name ^ ": ok + degraded + failed = queries")
    c.Service.queries
    (c.Service.ok + c.Service.degraded + c.Service.failed);
  Alcotest.(check int)
    (name ^ ": hits + misses = queries")
    c.Service.queries
    (c.Service.hits + c.Service.misses);
  Alcotest.(check int)
    (name ^ ": inserts - evictions = resident")
    c.Service.resident
    (c.Service.inserts - c.Service.evictions)

(* ---- faults off: the containment layer is invisible --------------- *)

let test_faults_off_identity () =
  let queries = Lazy.force mixed_batch in
  let plain = Service.create ~capacity:64 () in
  let armed =
    Service.create ~capacity:64 ~retries:3 ~fault_plan:Service.Fault_plan.none
      ()
  in
  let d_plain = digests (Service.run_batch ~shards:2 plain queries) in
  let d_armed = digests (Service.run_batch ~shards:2 armed queries) in
  Alcotest.(check (array string)) "digests bit-identical" d_plain d_armed;
  let c = Service.counters armed in
  check_conservation "faults off" c;
  Alcotest.(check int) "all ok" c.Service.queries c.Service.ok;
  Alcotest.(check int) "no retries" 0 c.Service.retries;
  Alcotest.(check int) "no deaths" 0 c.Service.worker_deaths

(* ---- seeded fault plans: deterministic containment ---------------- *)

let faulted_run ?(seed = 1) ?(rate = 0.35) ?(retries = 1) ~shards queries =
  let svc =
    Service.create ~capacity:64 ~retries
      ~fault_plan:(Service.Fault_plan.seeded ~rate seed)
      ()
  in
  let responses = Service.run_batch ~shards svc queries in
  (responses, Service.counters svc)

let test_fault_replay_shards () =
  let queries = Lazy.force mixed_batch in
  let r1, c1 = faulted_run ~shards:1 queries in
  let r2, c2 = faulted_run ~shards:2 queries in
  let r4, c4 = faulted_run ~shards:4 queries in
  Alcotest.(check (array string)) "shards=2 digests" (digests r1) (digests r2);
  Alcotest.(check (array string)) "shards=4 digests" (digests r1) (digests r4);
  Alcotest.(check string) "shards=2 counters" (pp_counters c1) (pp_counters c2);
  Alcotest.(check string) "shards=4 counters" (pp_counters c1) (pp_counters c4);
  check_conservation "faulted batch" c1;
  (* the plan at this rate must actually exercise the machinery *)
  Alcotest.(check bool) "some queries failed" true (c1.Service.failed > 0);
  Alcotest.(check bool) "some retries happened" true (c1.Service.retries > 0);
  Alcotest.(check bool) "a worker died" true (c1.Service.worker_deaths > 0);
  (* same seed replays bit-identically *)
  let r1', c1' = faulted_run ~shards:2 queries in
  Alcotest.(check (array string)) "same seed, same digests" (digests r1)
    (digests r1');
  Alcotest.(check string) "same seed, same counters" (pp_counters c1)
    (pp_counters c1');
  (* containment never corrupts: every answer either equals the
     faults-off answer byte for byte, or is an injected failure *)
  let plain = Service.create ~capacity:64 () in
  let d0 = digests (Service.run_batch ~shards:2 plain queries) in
  Array.iteri
    (fun i (r : Service.response) ->
      match r.Service.answer with
      | Service.Failed _ -> ()
      | _ ->
          Alcotest.(check string)
            (Printf.sprintf "query %d: non-failed answer untouched" i)
            d0.(i) r.Service.digest)
    r1

let test_retry_accounting () =
  let queries = Array.init 12 (fun i -> rate (synth (300 + i)) 0.9) in
  (* rate 1.0: every solved query misbehaves somehow *)
  let r0, c0 = faulted_run ~rate:1.0 ~retries:0 ~shards:2 queries in
  let r1, c1 = faulted_run ~rate:1.0 ~retries:1 ~shards:2 queries in
  check_conservation "retries=0" c0;
  check_conservation "retries=1" c1;
  Alcotest.(check bool) "failures at retries=0" true (c0.Service.failed > 0);
  (* more retries only converts failures into successes *)
  Alcotest.(check bool) "retry reduces failures" true
    (c1.Service.failed <= c0.Service.failed);
  Array.iteri
    (fun i (r1i : Service.response) ->
      match (r1i.Service.answer, r0.(i).Service.answer) with
      | Service.Failed _, _ | _, Service.Failed _ -> ()
      | _ ->
          Alcotest.(check string)
            (Printf.sprintf "query %d: answer independent of retry budget" i)
            r0.(i).Service.digest r1i.Service.digest)
    r1;
  (* with one retry, every faulted query burns at least its failure's
     attempts: retries >= failed (permanent faults retry then fail) *)
  Alcotest.(check bool) "retry accounting" true
    (c1.Service.retries >= c1.Service.failed)

(* Under plan seed 977 at rate 1.0 the first four solved queries all
   draw a worker kill (found by scanning seeds through the plan's
   derivation).  With four queries every solving domain, the calling
   one included, dies on its first claim and the sweep finishes the
   batch inline; the answers and counters cannot tell. *)
let test_every_domain_dies () =
  let queries = Array.init 4 (fun i -> rate (synth (900 + i)) 0.9) in
  let plain = Service.create ~capacity:64 () in
  let d0 = digests (Service.run_batch plain queries) in
  List.iter
    (fun shards ->
      let r, c = faulted_run ~seed:977 ~rate:1.0 ~retries:1 ~shards queries in
      let name = Printf.sprintf "shards=%d" shards in
      Alcotest.(check (array string)) (name ^ ": answers untouched") d0
        (digests r);
      Alcotest.(check string)
        (name ^ ": counters")
        "q4 h0 m4 w0 i4 e0 r4 | ok4 d0 f0 rt4 wd4" (pp_counters c);
      check_conservation name c)
    [ 1; 2; 4 ]

(* ---- checkpoints --------------------------------------------------- *)

let tmpfile name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "wishbone_robust_%d_%s" (Unix.getpid ()) name)

let split_batch queries =
  let n = Array.length queries in
  (Array.sub queries 0 (n / 2), Array.sub queries (n / 2) (n - (n / 2)))

let run_split_with_checkpoint ~fault_plan ~retries queries path =
  let first, rest = split_batch queries in
  (* uninterrupted reference *)
  let whole = Service.create ~capacity:64 ~retries ~fault_plan () in
  let _ = Service.run_batch ~shards:2 whole first in
  let d_whole = digests (Service.run_batch ~shards:2 whole rest) in
  (* kill after the first half, restore, serve the rest *)
  let victim = Service.create ~capacity:64 ~retries ~fault_plan () in
  let _ = Service.run_batch ~shards:2 victim first in
  Service.checkpoint victim path;
  let revived, outcome = Service.restore ~retries ~fault_plan path in
  (match outcome with
  | Service.Restored n ->
      Alcotest.(check int)
        "restored entry count"
        (Service.counters victim).Service.resident n
  | Service.Cold_start reason -> Alcotest.fail ("cold start: " ^ reason));
  Alcotest.(check string) "counters survive the crash"
    (pp_counters (Service.counters victim))
    (pp_counters (Service.counters revived));
  let d_revived = digests (Service.run_batch ~shards:2 revived rest) in
  Alcotest.(check (array string))
    "post-restore replay = uninterrupted run" d_whole d_revived;
  Alcotest.(check string) "final counters identical"
    (pp_counters (Service.counters whole))
    (pp_counters (Service.counters revived))

let test_checkpoint_roundtrip () =
  let queries = Lazy.force mixed_batch in
  let path = tmpfile "roundtrip.ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      run_split_with_checkpoint ~fault_plan:Service.Fault_plan.none ~retries:1
        queries path;
      (* checkpointing is deterministic: same state, same bytes *)
      let svc = Service.create ~capacity:8 () in
      let _ = Service.run_batch svc (Array.sub queries 10 6) in
      Service.checkpoint svc path;
      let read_all p =
        let ic = open_in_bin p in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let b1 = read_all path in
      Service.checkpoint svc path;
      Alcotest.(check bool) "snapshot bytes stable" true (b1 = read_all path))

let test_checkpoint_roundtrip_faulted () =
  (* the fault plan keys on the global query sequence number, which the
     checkpoint preserves — so even an injected-fault workload resumes
     bit-identically *)
  let queries = Lazy.force mixed_batch in
  let path = tmpfile "faulted.ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      run_split_with_checkpoint
        ~fault_plan:(Service.Fault_plan.seeded ~rate:0.35 1)
        ~retries:1 queries path)

(* A history that evicts an instance's last entry before the
   checkpoint: at capacity 3, three infeasible answers (which anchor
   nothing) of 100-operator instances, each dearer than any placed
   answer of the 12-operator A and B, push out all three placed
   entries, the last of instance B's among them.  B's warm anchor
   outlives them, so an uninterrupted service serves B warm
   afterwards, and a restored one must plan the same way: equal
   digests, serve tags and counters. *)
let test_checkpoint_roundtrip_evicted () =
  let a = synth ~n_ops:12 2 and b = synth ~n_ops:12 5 in
  let before =
    [|
      [| rate a 0.6; rate b 0.6 |];
      [| rate a 0.8 |];
      Array.init 3 (fun i -> rate (synth ~n_ops:100 (700 + i)) 1000.);
    |]
  and after = [| [| rate a 0.7; rate b 0.7; search b |]; [| rate b 0.8 |] |] in
  let serve svc batches =
    Array.map
      (fun batch ->
        let r = Service.run_batch ~shards:2 svc batch in
        ( digests r,
          Array.map (fun (r : Service.response) -> r.Service.served) r,
          pp_counters (Service.counters svc) ))
      batches
  in
  let path = tmpfile "evicted.ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let whole = Service.create ~capacity:3 () in
      ignore (serve whole before);
      let expected = serve whole after in
      let victim = Service.create ~capacity:3 () in
      ignore (serve victim before);
      Alcotest.(check string) "three placed entries are evicted"
        "q6 h0 m6 w1 i6 e3 r3 | ok6 d0 f0 rt0 wd0"
        (pp_counters (Service.counters victim));
      let probe = Service.create ~capacity:3 () in
      ignore (serve probe before);
      Alcotest.(check bool) "B's last entry is evicted" false
        (let _, served, _ = (serve probe [| [| rate b 0.6 |] |]).(0) in
         served.(0) = Service.Hit);
      Service.checkpoint victim path;
      match Service.restore path with
      | _, Service.Cold_start reason -> Alcotest.fail ("cold start: " ^ reason)
      | revived, Service.Restored n ->
          Alcotest.(check int) "restored entry count" 3 n;
          let got = serve revived after in
          Alcotest.(check bool) "B served warm" true
            (let _, served, _ = got.(0) in
             served.(1) = Service.Warm_start);
          Array.iteri
            (fun i (d, s, c) ->
              let d', s', c' = got.(i) in
              let label what = Printf.sprintf "batch %d: %s" i what in
              Alcotest.(check (array string)) (label "digests") d d';
              Alcotest.(check bool) (label "serve tags") true (s = s');
              Alcotest.(check string) (label "counters") c c')
            expected)

let test_checkpoint_rejects_damage () =
  let queries = Array.init 6 (fun i -> rate (synth (500 + i)) 1.1) in
  let svc = Service.create ~capacity:16 () in
  let _ = Service.run_batch svc queries in
  let path = tmpfile "damage.ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Service.checkpoint svc path;
      let bytes =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> Bytes.of_string (really_input_string ic (in_channel_length ic)))
      in
      let write s =
        let oc = open_out_bin path in
        output_string oc s;
        close_out oc
      in
      let expect_cold name =
        match Service.restore path with
        | _, Service.Cold_start _ -> ()
        | _, Service.Restored _ ->
            Alcotest.fail (name ^ ": damaged snapshot restored")
      in
      (* flip one byte deep in the payload *)
      let flipped = Bytes.copy bytes in
      let pos = Bytes.length flipped - 7 in
      Bytes.set flipped pos (Char.chr (Char.code (Bytes.get flipped pos) lxor 0x40));
      write (Bytes.to_string flipped);
      expect_cold "bit flip";
      (* truncate mid-entry *)
      write (String.sub (Bytes.to_string bytes) 0 (Bytes.length bytes / 2));
      expect_cold "truncation";
      (* not a snapshot at all *)
      write "definitely not a checkpoint\n";
      expect_cold "garbage";
      (* the previous format, whose entries carry no cost or priority *)
      let intact = Bytes.to_string bytes in
      let eol = String.index intact '\n' in
      write
        ("WISHBONE-SERVICE-CHECKPOINT v4"
        ^ String.sub intact eol (String.length intact - eol));
      (match Service.restore path with
      | _, Service.Cold_start reason ->
          Alcotest.(check string) "a v4 snapshot is named"
            "snapshot rejected: format v4, this build reads v5" reason
      | _, Service.Restored _ -> Alcotest.fail "a v4 snapshot restored");
      (* stale parameters: same bytes, different search tolerance *)
      write (Bytes.to_string bytes);
      (match Service.restore ~tol:0.05 path with
      | _, Service.Cold_start _ -> ()
      | _, Service.Restored _ -> Alcotest.fail "stale tol restored");
      (* missing file *)
      Sys.remove path;
      expect_cold "missing file";
      (* and the intact snapshot still restores *)
      Service.checkpoint svc path;
      match Service.restore path with
      | _, Service.Restored n ->
          Alcotest.(check int) "intact snapshot restores"
            (Service.counters svc).Service.resident n
      | _, Service.Cold_start reason ->
          Alcotest.fail ("intact snapshot went cold: " ^ reason))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* the first section header claims 64 MiB on a file of a few hundred
   bytes: the snapshot must be rejected before anything that large is
   allocated *)
let test_checkpoint_oversized_length () =
  let path = tmpfile "oversized.ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Service.checkpoint (Service.create ~capacity:4 ()) path;
      let bytes = read_file path in
      let header = String.index bytes '\n' + 1 in
      let sp = String.index_from bytes header ' ' in
      write_file path
        (String.sub bytes 0 header
        ^ string_of_int (64 lsl 20)
        ^ String.sub bytes sp (String.length bytes - sp));
      let a0 = Gc.allocated_bytes () in
      let outcome = snd (Service.restore path) in
      let allocated = Gc.allocated_bytes () -. a0 in
      (match outcome with
      | Service.Cold_start _ -> ()
      | Service.Restored _ -> Alcotest.fail "oversized section restored");
      Alcotest.(check bool)
        (Printf.sprintf "restore allocated %.0f bytes (< 1 MiB)" allocated)
        true
        (allocated < 1048576.))

(* a two-entry snapshot cut short at every offset, and 200 seeded
   single-byte flips of it: [restore] never raises, and only the
   intact file restores *)
let test_checkpoint_mutations_restore_cold () =
  let svc = Service.create ~capacity:4 () in
  ignore
    (Service.run_batch svc
       [| rate (synth ~n_ops:4 600) 1.1; rate (synth ~n_ops:4 601) 1.1 |]);
  let path = tmpfile "mutated.ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Service.checkpoint svc path;
      let bytes = read_file path in
      let restores what s =
        write_file path s;
        match Service.restore path with
        | _, Service.Restored _ -> true
        | _, Service.Cold_start _ -> false
        | exception e ->
            Alcotest.failf "%s: restore raised %s" what (Printexc.to_string e)
      in
      Alcotest.(check bool) "the intact two-entry snapshot restores" true
        (restores "intact" bytes);
      for len = 0 to String.length bytes - 1 do
        if restores "truncation" (String.sub bytes 0 len) then
          Alcotest.failf "truncated to %d of %d bytes, it restored" len
            (String.length bytes)
      done;
      let rng = Prng.create 23 in
      for _ = 1 to 200 do
        let b = Bytes.of_string bytes in
        let pos = Prng.int rng (Bytes.length b) in
        let mask = 1 + Prng.int rng 255 in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask));
        if restores "flip" (Bytes.to_string b) then
          Alcotest.failf "byte %d xor %d, it restored" pos mask
      done)

(* Two services that serve the same history apart write the same
   bytes: no wall-clock reading reaches a snapshot, so snapshots of one
   history compare equal across processes.  Either one restores, and
   the history then replays as hits with its first digests. *)
let test_checkpoint_equal_histories () =
  let queries =
    [|
      rate (synth ~n_ops:12 1) 0.8; search (synth ~n_ops:12 2);
      rate (synth ~n_ops:12 3) 1.2; search (synth ~n_ops:12 4);
    |]
  in
  let path = tmpfile "equal-history.ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let snapshot () =
        let svc = Service.create ~capacity:8 () in
        let d = digests (Service.run_batch ~shards:2 svc queries) in
        Service.checkpoint svc path;
        (d, read_file path)
      in
      let d, a = snapshot () in
      let _, b = snapshot () in
      Alcotest.(check bool) "byte-identical snapshots" true (a = b);
      match Service.restore path with
      | svc, Service.Restored n ->
          Alcotest.(check int) "every entry restores" (Array.length queries) n;
          let r = Service.run_batch svc queries in
          Alcotest.(check (array string)) "restored digests" d (digests r);
          Alcotest.(check bool) "every query hits" true
            (Array.for_all
               (fun (r : Service.response) -> r.Service.served = Service.Hit)
               r)
      | _, Service.Cold_start reason ->
          Alcotest.fail ("cold start: " ^ reason))

(* A snapshot is one Marshal value, so the warm anchor of a resident
   answer is written as a reference to that entry's tier array and
   basis.  One placed eeg14 answer, whose tiers and basis make up most
   of its bytes, then costs its own Marshal size plus a fixed allowance
   for the magic and section lines, the options, the counters, the two
   keys and the stamps; writing the anchor's tiers and basis again
   would pass the allowance by their size. *)
let test_checkpoint_resident_anchor () =
  let eeg14_x1 = (Lazy.force mixed_batch).(2) in
  let svc = Service.create ~capacity:4 () in
  let answer = (Service.run_batch svc [| eeg14_x1 |]).(0).Service.answer in
  (match answer with
  | Service.Placed _ -> ()
  | _ -> Alcotest.fail "eeg14 x1 is not placed");
  let path = tmpfile "resident-anchor.ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Service.checkpoint svc path;
      let bytes = String.length (read_file path)
      and answer_bytes = String.length (Marshal.to_string answer [])
      and allowance = 512 in
      Alcotest.(check bool)
        (Printf.sprintf "snapshot %d bytes <= answer %d + %d" bytes
           answer_bytes allowance)
        true
        (bytes <= answer_bytes + allowance);
      match Service.restore path with
      | revived, Service.Restored 1 ->
          let r = Service.run_batch revived [| eeg14_x1 |] in
          Alcotest.(check bool) "the restored entry replays" true
            (r.(0).Service.served = Service.Hit)
      | _, Service.Restored n -> Alcotest.failf "%d entries restored" n
      | _, Service.Cold_start reason -> Alcotest.fail ("cold start: " ^ reason))

let test_checkpoint_rejects_stale_options () =
  (* under a one-node budget both searches answer degraded; a service
     with the default options must solve them afresh, not replay the
     budgeted incumbents as hits *)
  let budgeted = { Lp.Branch_bound.default_options with max_nodes = 1 } in
  let queries = [| search (synth ~n_ops:12 2); search (synth ~n_ops:12 5) |] in
  let svc = Service.create ~options:budgeted () in
  let _ = Service.run_batch svc queries in
  Alcotest.(check int) "budgeted answers degraded" 2
    (Service.counters svc).Service.degraded;
  let path = tmpfile "stale-options.ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Service.checkpoint svc path;
      (match Service.restore path with
      | _, Service.Cold_start reason ->
          Alcotest.(check bool)
            ("stale options named: " ^ reason)
            true
            (String.starts_with ~prefix:"snapshot rejected: stale parameters"
               reason)
      | _, Service.Restored _ ->
          Alcotest.fail "budgeted snapshot restored under the defaults");
      match Service.restore ~options:budgeted path with
      | _, Service.Restored n ->
          Alcotest.(check int) "the same options restore" 2 n
      | _, Service.Cold_start reason ->
          Alcotest.fail ("the same options went cold: " ^ reason))

(* The layout [Service.checkpoint] marshals in format v5, mirrored field
   for field (the fields this test does not touch as [Obj.t]) so the test
   can forge a snapshot whose section digest holds but whose entry
   prices no eviction could have set.  The unforged rewrite must
   restore, which holds the mirror to the real layout. *)
type forged_entry = {
  f_answer : Obj.t;
  f_digest : string;
  f_cost : int;
  f_priority : int;
  f_stamp : int;
}

type forged = {
  f_capacity : int;
  f_tol : Obj.t;
  f_max_multiplier : Obj.t;
  f_options : Obj.t;
  f_clock : int;
  f_inflation : int;
  f_counters : Obj.t;
  f_entries : (string * forged_entry) list;
  f_anchors : Obj.t;
}

(* A history that evicts, so the inflation value is above 0, then its
   snapshot re-marshalled with a negative cost, and with a priority
   below the inflation value: each restores cold, naming the fault. *)
let test_checkpoint_rejects_forged_prices () =
  let svc = Service.create ~capacity:3 () in
  ignore
    (Service.run_batch svc
       (Array.init 6 (fun i -> rate (synth (800 + i)) 0.9)));
  let path = tmpfile "forged.ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Service.checkpoint svc path;
      let bytes = read_file path in
      let eol = String.index bytes '\n' in
      let header_end = String.index_from bytes (eol + 1) '\n' in
      let (snap : forged) = Marshal.from_string bytes (header_end + 1) in
      Alcotest.(check bool) "the history raised the inflation value" true
        (snap.f_inflation > 0);
      let restore_forged (f : forged) =
        let payload = Marshal.to_string f [] in
        write_file path
          (Printf.sprintf "%s\n%d %s\n%s" (String.sub bytes 0 eol)
             (String.length payload)
             (Digest.to_hex (Digest.string payload))
             payload);
        Service.restore path
      in
      (match restore_forged snap with
      | _, Service.Restored n -> Alcotest.(check int) "unforged restores" 3 n
      | _, Service.Cold_start m -> Alcotest.fail ("unforged went cold: " ^ m));
      let reprice f =
        {
          snap with
          f_entries =
            List.mapi
              (fun i (k, e) -> (k, if i = 0 then f e else e))
              snap.f_entries;
        }
      in
      List.iter
        (fun (name, forged, reason) ->
          match restore_forged forged with
          | revived, Service.Cold_start m ->
              Alcotest.(check string) name ("snapshot rejected: " ^ reason) m;
              Alcotest.(check int) (name ^ ": cold") 0
                (Service.counters revived).Service.queries
          | _, Service.Restored _ -> Alcotest.fail (name ^ ": restored"))
        [
          ( "negative cost",
            reprice (fun e -> { e with f_cost = -1 }),
            "entry with a negative cost" );
          ( "priority below the inflation value",
            reprice (fun e -> { e with f_priority = snap.f_inflation - 1 }),
            "entry priority below the inflation value" );
        ])

(* ---- degradation under work-unit budgets -------------------------- *)

let test_degraded_answers () =
  (* a tiny node budget forces unproved incumbents somewhere in a
     varied workload; answers stay deterministic and feasible *)
  let options = { Lp.Branch_bound.default_options with max_nodes = 1 } in
  let queries =
    Array.init 10 (fun i -> rate (synth ~n_ops:12 (700 + i)) 1.0)
  in
  let run shards =
    let svc = Service.create ~capacity:32 ~options () in
    let responses = Service.run_batch ~shards svc queries in
    (responses, Service.counters svc)
  in
  let r1, c1 = run 1 in
  let r2, c2 = run 2 in
  Alcotest.(check (array string)) "degraded digests shard-stable" (digests r1)
    (digests r2);
  Alcotest.(check string) "degraded counters shard-stable" (pp_counters c1)
    (pp_counters c2);
  check_conservation "degraded workload" c1;
  let saw = ref 0 in
  Array.iteri
    (fun i (r : Service.response) ->
      match r.Service.answer with
      | Service.Degraded { rate = rr; report; gap } ->
          incr saw;
          Alcotest.(check bool)
            (Printf.sprintf "query %d: gap sane" i)
            true
            (Float.is_nan gap || gap >= 0.);
          Alcotest.(check bool)
            (Printf.sprintf "query %d: incumbent feasible" i)
            true
            (Placement.feasible
               (Placement.scale_rate queries.(i).Service.placement rr)
               ~tier_of:report.Placement.tier_of)
      | _ -> ())
    r1;
  Alcotest.(check int) "degraded counter counts them" !saw c1.Service.degraded

let () =
  Alcotest.run "robust"
    [
      ( "faults-off",
        [
          Alcotest.test_case "containment layer is bit-invisible" `Quick
            test_faults_off_identity;
        ] );
      ( "fault-plan",
        [
          Alcotest.test_case "replay determinism, shards 1/2/4" `Quick
            test_fault_replay_shards;
          Alcotest.test_case "retry accounting" `Quick test_retry_accounting;
          Alcotest.test_case "every domain dies, sweep finishes" `Quick
            test_every_domain_dies;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "kill-and-restore round trip" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "faulted kill-and-restore round trip" `Quick
            test_checkpoint_roundtrip_faulted;
          Alcotest.test_case "round trip after an evicted last entry" `Quick
            test_checkpoint_roundtrip_evicted;
          Alcotest.test_case "damaged snapshots fall back to cold" `Quick
            test_checkpoint_rejects_damage;
          Alcotest.test_case "changed solver options fall back to cold"
            `Quick test_checkpoint_rejects_stale_options;
          Alcotest.test_case "forged entry prices fall back to cold" `Quick
            test_checkpoint_rejects_forged_prices;
          Alcotest.test_case "oversized section length allocates nothing"
            `Quick test_checkpoint_oversized_length;
          Alcotest.test_case "truncations and byte flips restore cold" `Quick
            test_checkpoint_mutations_restore_cold;
          Alcotest.test_case "equal histories write equal snapshots" `Quick
            test_checkpoint_equal_histories;
          Alcotest.test_case "a resident anchor costs only its key and stamp"
            `Quick test_checkpoint_resident_anchor;
        ] );
      ( "degraded",
        [
          Alcotest.test_case "budgeted answers are certified and stable"
            `Quick test_degraded_answers;
        ] );
    ]
