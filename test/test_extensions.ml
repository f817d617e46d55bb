(* §9 extensions: in-network aggregation, mixed networks, three-tier
   partitioning. *)

open Dataflow
open Wishbone

(* a small averaging app: node sources -> reduce(mean of 4) -> sink *)
let reduce_app () =
  let b = Builder.create () in
  let reduce = ref 0 in
  let src = ref 0 in
  Builder.in_node b (fun () ->
      let s = Builder.source b ~name:"sample" () in
      src := Builder.op_id s;
      let r =
        Aggregation.reduce_op b ~name:"mean4" ~window:4
          ~combine:(fun vs ->
            let total =
              List.fold_left
                (fun acc v ->
                  match v with Value.Float f -> acc +. f | _ -> acc)
                0. vs
            in
            ( Value.Float (total /. 4.),
              Workload.make ~float_ops:5. ~call_ops:1. () ))
          s
      in
      reduce := Builder.op_id r;
      Builder.sink b ~name:"log" r);
  (Builder.build b, !src, !reduce)

let test_reduce_op_windows () =
  let g, src, _ = reduce_app () in
  let exec = Runtime.Exec.full g in
  let outs = ref [] in
  for i = 1 to 8 do
    let fired =
      Runtime.Exec.fire exec ~op:src ~port:0 (Value.Float (Float.of_int i))
    in
    outs := !outs @ fired.sink_values
  done;
  (* two windows: mean(1..4) = 2.5, mean(5..8) = 6.5 *)
  Alcotest.(check bool) "two aggregates" true
    (!outs = [ Value.Float 2.5; Value.Float 6.5 ])

let test_aggregation_cost_annotation () =
  let g, src, reduce = reduce_app () in
  let events =
    Profiler.Profile.Trace.periodic ~source:src ~rate:8. ~duration:10.
      ~gen:(fun i -> Value.Float (Float.of_int i))
  in
  let raw = Profiler.Profile.collect ~duration:10. g events in
  match
    Spec.of_profile ~mode:Movable.Permissive
      ~node_platform:Profiler.Platform.tmote_sky raw
  with
  | Error m -> Alcotest.fail m
  | Ok spec ->
      let fanned = Aggregation.annotate_fan_in spec ~op:reduce ~fan_in:5. in
      Alcotest.(check (float 1e-12)) "cpu scaled by fan-in"
        (5. *. spec.Spec.cpu.(reduce))
        fanned.Spec.cpu.(reduce);
      (* aggregation saves bandwidth in-network: 4 floats in, 1 out *)
      Alcotest.(check bool) "positive in-network benefit" true
        (Aggregation.in_network_benefit spec ~op:reduce > 0.);
      Alcotest.check_raises "fan_in < 1"
        (Invalid_argument "Aggregation.annotate_fan_in: fan_in < 1")
        (fun () -> ignore (Aggregation.annotate_fan_in spec ~op:reduce ~fan_in:0.5))

let test_aggregation_changes_partition () =
  (* with high fan-in the reduce op becomes too expensive for the node
     and moves to the server *)
  let g, src, reduce = reduce_app () in
  let events =
    Profiler.Profile.Trace.periodic ~source:src ~rate:8. ~duration:10.
      ~gen:(fun i -> Value.Float (Float.of_int i))
  in
  let raw = Profiler.Profile.collect ~duration:10. g events in
  match
    Spec.of_profile ~mode:Movable.Permissive
      ~node_platform:Profiler.Platform.tmote_sky raw
  with
  | Error m -> Alcotest.fail m
  | Ok spec -> (
      (* make the reduce meaningfully expensive, then inflate by fan-in *)
      let cpu = Array.copy spec.Spec.cpu in
      cpu.(reduce) <- 0.3;
      let spec = { spec with Spec.cpu } in
      let solve spec = Placement.solve (Placement.of_spec spec) in
      let in_network = solve spec in
      let overloaded =
        solve (Aggregation.annotate_fan_in spec ~op:reduce ~fan_in:5.)
      in
      match (in_network, overloaded) with
      | Placement.Partitioned a, Placement.Partitioned b ->
          Alcotest.(check bool) "cheap reduce runs in-network" true
            (a.tier_of.(reduce) = 0);
          Alcotest.(check bool) "overloaded reduce moves to the server" true
            (b.tier_of.(reduce) = 1)
      | _ -> Alcotest.fail "partitioning failed")

let test_mixed_network_plans () =
  let speech = Apps.Speech.build () in
  let raw = Apps.Speech.profile ~duration:10. speech in
  match
    Mixed.plan raw
      ~classes:
        [
          { Mixed.platform = Profiler.Platform.tmote_sky; n_nodes = 10;
            net_share = None };
          { Mixed.platform = Profiler.Platform.meraki; n_nodes = 1;
            net_share = None };
        ]
  with
  | Error m -> Alcotest.fail m
  | Ok plans ->
      Alcotest.(check int) "one plan per class" 2 (List.length plans);
      let by name =
        List.find
          (fun p -> p.Mixed.platform.Profiler.Platform.name = name)
          plans
      in
      let tmote_ops = List.length (Placement.ops_on (by "tmote").Mixed.report 0)
      and meraki_ops =
        List.length (Placement.ops_on (by "meraki").Mixed.report 0)
      in
      (* the classes end up with different physical partitions *)
      Alcotest.(check bool)
        (Printf.sprintf "different cuts (tmote %d vs meraki %d)" tmote_ops
           meraki_ops)
        true
        (tmote_ops <> meraki_ops)

(* the §9 mote -> Meraki microserver -> server chain over speech at 8%
   of the native rate, where the mote tier can run the front end;
   [micro_net_budget] replaces the Meraki's radio budget on the
   microserver uplink *)
let three_tier_of_speech ?micro_net_budget () =
  let speech = Apps.Speech.build () in
  let raw =
    Profiler.Profile.scale_rate (Apps.Speech.profile ~duration:10. speech) 0.08
  in
  match Spec.of_profile ~node_platform:Profiler.Platform.tmote_sky raw with
  | Error m -> Alcotest.fail m
  | Ok spec ->
      let pl =
        Placement.of_platforms spec raw
          Profiler.Platform.[ tmote_sky; meraki ]
      in
      let links = Array.copy pl.Placement.links in
      Option.iter
        (fun b -> links.(1) <- { (links.(1)) with Placement.net_budget = b })
        micro_net_budget;
      (speech, { pl with Placement.links })

let solve_three_tier pl =
  match Placement.solve pl with
  | Placement.Partitioned r -> r
  | Placement.No_feasible_partition ->
      Alcotest.fail "expected a three-tier partition"
  | Placement.Solver_failure m -> Alcotest.fail m

let test_three_tier_pipeline () =
  let speech, pl = three_tier_of_speech () in
  let r = solve_three_tier pl in
  let tiers = r.Placement.tier_of in
  Alcotest.(check int) "all ops placed" 9 (Array.length tiers);
  (* source on the mote, sink central *)
  Alcotest.(check int) "source on mote" 0 tiers.(speech.Apps.Speech.source);
  let sink = List.hd (Dataflow.Graph.sinks speech.Apps.Speech.graph) in
  Alcotest.(check int) "sink central" 2 tiers.(sink);
  (* tiers descend monotonically along the pipeline *)
  Array.iter
    (fun (e : Graph.edge) ->
      Alcotest.(check bool) "monotone descent" true
        (tiers.(e.src) <= tiers.(e.dst)))
    (Graph.edges speech.Apps.Speech.graph);
  (* budget respected on the mote radio *)
  Alcotest.(check bool) "mote net within budget" true
    (r.Placement.link_net.(0)
    <= Profiler.Platform.tmote_sky.Profiler.Platform.radio_bytes_per_sec
       +. 1e-6)

let test_three_tier_uses_middle () =
  (* when the mote cannot afford a stage but the microserver can, the
     middle tier must actually be used: a tight uplink pushes work
     into the middle *)
  let _, pl = three_tier_of_speech ~micro_net_budget:300. () in
  let r = solve_three_tier pl in
  Alcotest.(check bool) "microserver tier non-empty" true
    (Placement.ops_on r 1 <> [])

let test_mixed_matches_brute_force () =
  (* every per-class ILP answer must equal exhaustive search over the
     class's reconstructed spec *)
  let speech = Apps.Speech.build () in
  let raw = Apps.Speech.profile ~duration:10. speech in
  let raw = Profiler.Profile.scale_rate raw 0.05 in
  let classes =
    [
      { Mixed.platform = Profiler.Platform.tmote_sky; n_nodes = 4;
        net_share = Some 1e7 };
      { Mixed.platform = Profiler.Platform.meraki; n_nodes = 1;
        net_share = Some 1e7 };
    ]
  in
  match Mixed.plan raw ~classes with
  | Error m -> Alcotest.fail m
  | Ok plans ->
      List.iter
        (fun (p : Mixed.class_plan) ->
          (* reconstruct the spec exactly as Mixed.plan does *)
          match
            Spec.of_profile ~net_budget:1e7
              ~node_platform:p.Mixed.platform raw
          with
          | Error m -> Alcotest.fail m
          | Ok spec -> (
              Alcotest.(check bool)
                (p.Mixed.platform.Profiler.Platform.name ^ " at rate 1")
                true
                (p.Mixed.report.Placement.solver.Lp.Branch_bound
                   .proved_optimal);
              match Check.Reference.two_tier_brute_force spec with
              | None -> Alcotest.fail "brute force found no feasible cut"
              | Some (_, best) ->
                  Alcotest.(check (float 1e-6))
                    (p.Mixed.platform.Profiler.Platform.name
                    ^ " objective = brute force")
                    best p.Mixed.report.Placement.objective))
        plans

let check_three_tier_matches_brute pl =
  match (Placement.solve pl, Check.Reference.three_tier_brute_force pl) with
  | Placement.Partitioned r, Some (tiers, best) ->
      Alcotest.(check (float 1e-6)) "objective = brute force" best
        r.Placement.objective;
      Alcotest.(check int) "same tier count" (Array.length tiers)
        (Array.length r.Placement.tier_of)
  | Placement.Partitioned _, None ->
      Alcotest.fail "ILP found a partition but brute force did not"
  | Placement.No_feasible_partition, Some _ ->
      Alcotest.fail "brute force found a partition but the ILP did not"
  | Placement.No_feasible_partition, None -> ()
  | Placement.Solver_failure m, _ -> Alcotest.fail m

let test_three_tier_matches_brute_force () =
  check_three_tier_matches_brute (snd (three_tier_of_speech ()))

let test_three_tier_matches_brute_force_tight () =
  check_three_tier_matches_brute
    (snd (three_tier_of_speech ~micro_net_budget:300. ()))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "extensions"
    [
      ( "aggregation",
        [
          tc "windowed reduce" test_reduce_op_windows;
          tc "fan-in cost annotation" test_aggregation_cost_annotation;
          tc "fan-in changes the partition" test_aggregation_changes_partition;
        ] );
      ( "mixed",
        [
          tc "per-class plans" test_mixed_network_plans;
          tc "matches brute force" test_mixed_matches_brute_force;
        ] );
      ( "three_tier",
        [
          tc "speech pipeline tiers" test_three_tier_pipeline;
          tc "middle tier used" test_three_tier_uses_middle;
          tc "matches brute force" test_three_tier_matches_brute_force;
          tc "matches brute force (tight uplink)"
            test_three_tier_matches_brute_force_tight;
        ] );
    ]
