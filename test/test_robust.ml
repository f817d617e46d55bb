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
     workload byte-identically to an uninterrupted service (faulted and
     fault-free), and corrupt / truncated / stale / missing snapshots
     restore to a cold cache, never to wrong answers;
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
          Alcotest.test_case "damaged snapshots fall back to cold" `Quick
            test_checkpoint_rejects_damage;
          Alcotest.test_case "changed solver options fall back to cold"
            `Quick test_checkpoint_rejects_stale_options;
        ] );
      ( "degraded",
        [
          Alcotest.test_case "budgeted answers are certified and stable"
            `Quick test_degraded_answers;
        ] );
    ]
