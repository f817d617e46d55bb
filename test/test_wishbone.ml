(* Wishbone core tests: relocation rules, preprocessing, ILP
   encodings, optimality against brute force, rate search, cut-point
   analysis, the Figure 3 example. *)

open Dataflow
open Wishbone

let feq ?(tol = 1e-6) = Alcotest.(check (float tol))

(* the paper's two-way cut: the two-tier placement of a spec, tier 0
   the node *)
let solve ?encoding ?preprocess ?resources spec =
  Placement.solve ?encoding ?preprocess ?resources (Placement.of_spec spec)

let node_side (r : Placement.report) = Array.map (fun t -> t = 0) r.tier_of

let search ?tol ?incremental spec =
  Rate_search.search_placement ?tol ?incremental (Placement.of_spec spec)

let passthrough () =
  Op.stateless_instance (fun v -> ([ v ], Workload.make ~call_ops:1. ()))

let mk_op ?(namespace = Op.Node) ?(stateful = false) ?(side_effect = Op.Pure)
    id name =
  { Op.id; name; kind = "t"; namespace; stateful; side_effect;
    fresh = passthrough }

(* chain: src(pinned node) -> a -> b -> sink(pinned server) *)
let chain_graph ?(a_stateful = false) ?(b_stateful = false) () =
  let ops =
    [|
      mk_op ~side_effect:Op.Sensor_input 0 "src";
      mk_op ~stateful:a_stateful 1 "a";
      mk_op ~stateful:b_stateful 2 "b";
      mk_op ~namespace:Op.Server ~side_effect:Op.Display_output 3 "sink";
    |]
  in
  Graph.make ops [ (0, 1, 0); (1, 2, 0); (2, 3, 0) ]

(* ---- Movable ---- *)

let test_classify_stateless () =
  match Movable.classify Movable.Conservative (chain_graph ()) with
  | Error m -> Alcotest.fail m
  | Ok p ->
      Alcotest.(check bool) "src pinned node" true (p.(0) = Movable.Pin_node);
      Alcotest.(check bool) "a movable" true (p.(1) = Movable.Movable);
      Alcotest.(check bool) "b movable" true (p.(2) = Movable.Movable);
      Alcotest.(check bool) "sink pinned server" true (p.(3) = Movable.Pin_server)

let test_classify_stateful_modes () =
  let g = chain_graph ~b_stateful:true () in
  (match Movable.classify Movable.Conservative g with
  | Error m -> Alcotest.fail m
  | Ok p ->
      Alcotest.(check bool) "stateful pinned (conservative)" true
        (p.(2) = Movable.Pin_node);
      (* single-crossing closure pins everything upstream too *)
      Alcotest.(check bool) "upstream closure" true (p.(1) = Movable.Pin_node));
  match Movable.classify Movable.Permissive g with
  | Error m -> Alcotest.fail m
  | Ok p ->
      Alcotest.(check bool) "stateful movable (permissive)" true
        (p.(2) = Movable.Movable)

let test_classify_server_namespace_pins () =
  let ops =
    [|
      mk_op ~side_effect:Op.Sensor_input 0 "src";
      mk_op ~namespace:Op.Server 1 "server_op";
      mk_op 2 "node_op";
      mk_op ~namespace:Op.Server ~side_effect:Op.Display_output 3 "sink";
    |]
  in
  (* src -> server_op -> node_op -> sink: node_op downstream of a
     server-pinned op gets server-pinned by the closure *)
  let g = Graph.make ops [ (0, 1, 0); (1, 2, 0); (2, 3, 0) ] in
  match Movable.classify Movable.Conservative g with
  | Error m -> Alcotest.fail m
  | Ok p ->
      Alcotest.(check bool) "server op pinned" true (p.(1) = Movable.Pin_server);
      Alcotest.(check bool) "downstream closure" true (p.(2) = Movable.Pin_server)

let test_classify_conflict_detected () =
  (* sink-side actuator downstream of a server-pinned op: data would
     need to cross twice *)
  let ops =
    [|
      mk_op ~side_effect:Op.Sensor_input 0 "src";
      mk_op ~namespace:Op.Server 1 "server_op";
      mk_op ~side_effect:Op.Actuator 2 "led";
    |]
  in
  let g = Graph.make ops [ (0, 1, 0); (1, 2, 0) ] in
  match Movable.classify Movable.Conservative g with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "conflict not detected"

let test_classify_hardware_in_server_namespace () =
  let ops = [| mk_op ~namespace:Op.Server ~side_effect:Op.Sensor_input 0 "adc" |] in
  let g = Graph.make ops [] in
  match Movable.classify Movable.Conservative g with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "should reject sensor declared on server"

(* ---- Spec ---- *)

let simple_spec ?(cpu_budget = 10.) ?(net_budget = 1e6) ?(alpha = 0.)
    ?(beta = 1.) ~cpu ~bw graph =
  match Movable.classify Movable.Conservative graph with
  | Error m -> Alcotest.fail m
  | Ok placement ->
      { Spec.graph; placement; cpu; bandwidth = bw; cpu_budget; net_budget;
        alpha; beta }

let test_spec_cut_stats () =
  let g = chain_graph () in
  let spec =
    simple_spec ~cpu:[| 0.1; 0.2; 0.3; 0. |] ~bw:[| 100.; 50.; 10. |] g
  in
  let node_side = [| true; true; false; false |] in
  let cpu, net = Spec.cut_stats spec ~node_side in
  feq "cpu" 0.3 cpu;
  feq "net" 50. net;
  feq "objective" 50. (Spec.objective_value spec ~node_side)

let test_spec_feasibility () =
  let g = chain_graph () in
  let spec =
    simple_spec ~cpu_budget:0.25 ~cpu:[| 0.1; 0.2; 0.3; 0. |]
      ~bw:[| 100.; 50.; 10. |] g
  in
  Alcotest.(check bool) "within budget" true
    (Spec.feasible spec ~node_side:[| true; false; false; false |]);
  Alcotest.(check bool) "cpu exceeded" false
    (Spec.feasible spec ~node_side:[| true; true; false; false |]);
  Alcotest.(check bool) "pin violated" false
    (Spec.feasible spec ~node_side:[| false; false; false; false |]);
  Alcotest.(check bool) "single crossing violated" false
    (Spec.feasible spec ~node_side:[| true; false; true; false |])

let test_spec_scale_rate () =
  let g = chain_graph () in
  let spec = simple_spec ~cpu:[| 0.1; 0.2; 0.3; 0. |] ~bw:[| 100.; 50.; 10. |] g in
  let s2 = Spec.scale_rate spec 2. in
  feq "cpu scaled" 0.4 s2.Spec.cpu.(1);
  feq "bw scaled" 100. s2.Spec.bandwidth.(1);
  feq "original untouched" 0.2 spec.Spec.cpu.(1)

(* ---- Preprocess ---- *)

let test_preprocess_merges_expanding () =
  (* a expands data (bw 10 in, 20 out): it must merge downstream *)
  let g = chain_graph () in
  let spec = simple_spec ~cpu:[| 0.1; 0.1; 0.1; 0. |] ~bw:[| 10.; 20.; 5. |] g in
  let c = Preprocess.contract spec in
  Alcotest.(check bool) "a and b merged" true
    (c.Preprocess.super_of.(1) = c.Preprocess.super_of.(2));
  (* the merged supernode has summed cpu *)
  let s = c.Preprocess.super_of.(1) in
  feq "summed cpu" 0.2 c.Preprocess.cpu.(s)

let test_preprocess_keeps_reducing () =
  let g = chain_graph () in
  let spec = simple_spec ~cpu:[| 0.1; 0.1; 0.1; 0. |] ~bw:[| 100.; 50.; 10. |] g in
  let c = Preprocess.contract spec in
  Alcotest.(check int) "nothing merged" 4 c.Preprocess.n_super

let test_preprocess_identity () =
  let g = chain_graph () in
  let spec = simple_spec ~cpu:[| 0.1; 0.1; 0.1; 0. |] ~bw:[| 10.; 20.; 5. |] g in
  let c = Preprocess.identity spec in
  Alcotest.(check int) "identity keeps all" 4 c.Preprocess.n_super

let test_preprocess_preserves_optimum () =
  (* optimum with and without preprocessing agree on random specs *)
  for seed = 0 to 30 do
    let spec = Apps.Synthetic.random_spec ~seed ~n_ops:9 () in
    let a = solve ~preprocess:true spec in
    let b = solve ~preprocess:false spec in
    match (a, b) with
    | Placement.Partitioned ra, Placement.Partitioned rb ->
        if Float.abs (ra.objective -. rb.objective) > 1e-6 then
          Alcotest.failf "seed %d: preprocessed %g vs raw %g" seed ra.objective
            rb.objective
    | Placement.No_feasible_partition, Placement.No_feasible_partition -> ()
    | _ -> Alcotest.failf "seed %d: feasibility disagreement" seed
  done

(* ---- Figure 3 ---- *)

let test_fig3_budgets () =
  List.iter
    (fun (budget, expect_bw) ->
      let spec = Apps.Synthetic.fig3_spec ~cpu_budget:budget in
      match solve spec with
      | Placement.Partitioned r -> feq "cut bandwidth" expect_bw r.link_net.(0)
      | _ -> Alcotest.failf "budget %g failed" budget)
    [ (2., 8.); (3., 6.); (4., 5.) ]

let test_fig3_partition_shape () =
  (* at budget 4 a whole chain moves to the node (vertical cut).  The A
     and B chains mirror each other, so {S,A1,A2} and {S,B1,B2} both
     cut 5; the search returns B, and A must be just as good *)
  let spec = Apps.Synthetic.fig3_spec ~cpu_budget:4. in
  match solve spec with
  | Placement.Partitioned r ->
      Alcotest.(check (list int)) "node ops" [ 0; 3; 4 ] (Placement.ops_on r 0);
      let pl = Placement.of_spec spec in
      let a_chain = [| 0; 0; 0; 1; 1; 1 |] in
      Alcotest.(check bool) "A chain feasible" true
        (Placement.feasible pl ~tier_of:a_chain);
      feq "A chain co-optimal" r.objective
        (Placement.objective_value pl ~tier_of:a_chain)
  | _ -> Alcotest.fail "no partition"

(* ---- encodings ---- *)

let test_encodings_agree () =
  (* the general encoding (eqs. 1-5) allows back-and-forth crossings,
     so it dominates the restricted one (eqs. 6-7): whenever the
     restricted problem is feasible, general is too and at least as
     good.  The two coincide exactly on linear pipelines. *)
  for seed = 0 to 30 do
    let spec = Apps.Synthetic.random_spec ~seed ~n_ops:10 () in
    let a = solve ~encoding:Placement.Restricted spec in
    let b = solve ~encoding:Placement.General ~preprocess:false spec in
    match (a, b) with
    | Placement.Partitioned ra, Placement.Partitioned rb ->
        if rb.objective > ra.objective +. 1e-6 then
          Alcotest.failf "seed %d: general %g worse than restricted %g" seed
            rb.objective ra.objective
    | Placement.No_feasible_partition, _ -> ()
    | Placement.Partitioned _, Placement.No_feasible_partition ->
        Alcotest.failf "seed %d: general infeasible, restricted not" seed
    | Placement.Solver_failure m, _ | _, Placement.Solver_failure m ->
        Alcotest.failf "seed %d: solver failure %s" seed m
  done;
  for seed = 0 to 15 do
    let spec = Apps.Synthetic.random_pipeline_spec ~seed ~n_ops:8 () in
    let a = solve ~encoding:Placement.Restricted spec in
    let b = solve ~encoding:Placement.General spec in
    match (a, b) with
    | Placement.Partitioned ra, Placement.Partitioned rb ->
        if Float.abs (ra.objective -. rb.objective) > 1e-6 then
          Alcotest.failf "pipeline seed %d: restricted %g vs general %g" seed
            ra.objective rb.objective
    | Placement.No_feasible_partition, Placement.No_feasible_partition ->
        ()
    | _ -> Alcotest.failf "pipeline seed %d: feasibility disagreement" seed
  done

let test_general_encoding_bidirectional () =
  (* without the single-crossing rule, the general encoding can place
     a heavy middle op on the server between two node ops; the
     restricted one cannot.  Build: src -> heavy -> act(sink on node is
     not allowed, so check objective difference directly) *)
  let ops =
    [|
      mk_op ~side_effect:Op.Sensor_input 0 "src";
      mk_op 1 "mid";
      mk_op ~namespace:Op.Server ~side_effect:Op.Display_output 2 "sink";
    |]
  in
  let g = Graph.make ops [ (0, 1, 0); (1, 2, 0) ] in
  let spec = simple_spec ~cpu_budget:0.05 ~cpu:[| 0.; 0.5; 0. |] ~bw:[| 1.; 1. |] g in
  let c = Preprocess.identity spec in
  let enc = Placement.encode Placement.General (Placement.of_spec spec) c in
  (match Lp.Branch_bound.solve enc.problem with
  | Lp.Solution.Optimal s, _ ->
      let tiers = Placement.tiers_of_solution enc c s in
      Alcotest.(check bool) "mid on server" true (tiers.(1) = 1)
  | st, _ -> Alcotest.failf "general encoding: %a" Lp.Solution.pp_status st)

(* ---- partitioner vs brute force ---- *)

let prop_ilp_matches_brute =
  QCheck.Test.make ~count:120 ~name:"ILP partition matches brute force"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let spec =
        Apps.Synthetic.random_spec ~seed ~n_ops:(5 + (seed mod 8))
          ~cpu_budget:(0.2 +. Float.of_int (seed mod 5) /. 5.)
          ~net_budget:(50. +. Float.of_int (seed mod 7) *. 40.)
          ()
      in
      let ilp = solve spec in
      let brute = Check.Reference.two_tier_brute_force spec in
      match (ilp, brute) with
      | Placement.Partitioned r, Some (_, best_obj) ->
          if Float.abs (r.objective -. best_obj) > 1e-6 then
            QCheck.Test.fail_reportf "seed %d: ilp %.9g brute %.9g" seed
              r.objective best_obj
          else Spec.feasible spec ~node_side:(node_side r)
      | Placement.No_feasible_partition, None -> true
      | Placement.Partitioned _, None ->
          QCheck.Test.fail_reportf "seed %d: ilp found, brute did not" seed
      | Placement.No_feasible_partition, Some _ ->
          QCheck.Test.fail_reportf "seed %d: brute found, ilp did not" seed
      | Placement.Solver_failure m, _ ->
          QCheck.Test.fail_reportf "seed %d: solver failure %s" seed m)

let prop_alpha_beta_tradeoff =
  QCheck.Test.make ~count:60 ~name:"objective weights steer the cut"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let base = Apps.Synthetic.random_spec ~seed ~n_ops:8 () in
      let net_heavy = { base with Spec.alpha = 0.; beta = 1. } in
      let cpu_heavy = { base with Spec.alpha = 1.; beta = 0. } in
      match (solve net_heavy, solve cpu_heavy) with
      | Placement.Partitioned rn, Placement.Partitioned rc ->
          (* each optimum is at least as good as the other point under
             its own objective *)
          rn.link_net.(0) <= rc.link_net.(0) +. 1e-6
          && rc.tier_cpu.(0) <= rn.tier_cpu.(0) +. 1e-6
      | _ -> true)

(* ---- rate search ---- *)

let test_rate_search_finds_max () =
  (* pipeline with cpu 0.2 per stage: at most budget/cpu rate *)
  let g = chain_graph () in
  let spec =
    simple_spec ~cpu_budget:1.0 ~net_budget:30.
      ~cpu:[| 0.01; 0.2; 0.2; 0. |]
      ~bw:[| 100.; 50.; 10. |] g
  in
  (* at x1: cut at b->sink needs cpu 0.41 (ok) net 10 (ok): feasible.
     max rate: cpu-bound 1/0.41 = 2.43; net-bound 30/10 = 3 -> 2.43 *)
  match search ~tol:0.001 spec with
  | Some { placement_multiplier = rate; placement_report = report; _ } ->
      Alcotest.(check bool) "close to 2.43" true
        (Float.abs (rate -. (1. /. 0.41)) < 0.05);
      Alcotest.(check bool) "report feasible at found rate" true
        (Spec.feasible (Spec.scale_rate spec rate)
           ~node_side:(node_side report))
  | None -> Alcotest.fail "rate search failed"

let test_rate_search_monotonicity () =
  (* feasibility is monotone in rate on every random spec *)
  for seed = 0 to 20 do
    let spec = Apps.Synthetic.random_spec ~seed ~n_ops:8 ~net_budget:100. () in
    match search spec with
    | None -> ()
    | Some { placement_multiplier = rate; _ } ->
        (match
           Placement.solve ~options:Rate_search.default_search_options
             (Placement.of_spec (Spec.scale_rate spec (rate /. 2.)))
         with
        | Placement.Partitioned _ -> ()
        | _ -> Alcotest.failf "seed %d: infeasible below the found max" seed)
  done

let test_rate_search_overloaded_start () =
  (* infeasible at x1 forces the search below 1 *)
  let g = chain_graph () in
  let spec =
    simple_spec ~cpu_budget:0.5 ~net_budget:20.
      ~cpu:[| 0.01; 2.0; 2.0; 0. |]
      ~bw:[| 100.; 50.; 10. |] g
  in
  match search spec with
  | Some { placement_multiplier; _ } ->
      Alcotest.(check bool) "below 1" true (placement_multiplier < 1.)
  | None -> Alcotest.fail "expected a reduced-rate partition"

let test_rate_search_incremental_consistent () =
  (* incumbent seeding and root-basis reuse are performance hints:
     the found rate must match the cold search *)
  for seed = 0 to 9 do
    let spec = Apps.Synthetic.random_spec ~seed ~n_ops:14 () in
    match
      (search ~incremental:false spec, search ~incremental:true spec)
    with
    | Some a, Some b ->
        if
          Float.abs (a.placement_multiplier -. b.placement_multiplier)
          > 0.02 *. a.placement_multiplier
        then
          Alcotest.failf "seed %d: cold rate %g, incremental rate %g" seed
            a.placement_multiplier b.placement_multiplier
    | None, None -> ()
    | _ -> Alcotest.failf "seed %d: feasibility disagreement" seed
  done

let test_rate_search_zero_tol () =
  (* a [tol] below the float spacing stops when the bracket's ends are
     adjacent floats, at a rate no lower than the [tol] 0.01 search's *)
  for seed = 1 to 6 do
    let pl = Placement.of_spec (Apps.Synthetic.random_spec ~seed ~n_ops:10 ()) in
    match
      ( Rate_search.search_placement ~tol:0.01 pl,
        Rate_search.search_placement ~tol:0. pl )
    with
    | Some coarse, Some fine ->
        let r = fine.placement_multiplier in
        if r < coarse.placement_multiplier then
          Alcotest.failf "seed %d: tol 0 rate %g below tol 0.01 rate %g" seed r
            coarse.placement_multiplier;
        if
          not
            (Placement.feasible (Placement.scale_rate pl r)
               ~tier_of:fine.placement_report.Placement.tier_of)
        then Alcotest.failf "seed %d: report infeasible at rate %g" seed r
    | None, None -> ()
    | _ -> Alcotest.failf "seed %d: feasibility disagreement" seed
  done

(* ---- cutpoints ---- *)

let test_cutpoints_on_speech () =
  let t = Apps.Speech.build () in
  let raw = Apps.Speech.profile ~duration:5. t in
  let cuts = Cutpoints.enumerate raw Profiler.Platform.tmote_sky in
  Alcotest.(check int) "8 cuts for 9 ops" 8 (List.length cuts);
  let viable = List.filter (fun c -> c.Cutpoints.viable) cuts in
  Alcotest.(check (list string)) "viable labels"
    [ "source"; "filtbank"; "cepstrals" ]
    (List.map (fun c -> c.Cutpoints.label) viable);
  (* compute-bound rate decreases with depth *)
  let rates = List.map (fun c -> c.Cutpoints.max_rate_compute) cuts in
  List.iteri
    (fun i r ->
      if i > 0 && r > List.nth rates (i - 1) +. 1e-9 then
        Alcotest.fail "compute rate should fall with cut depth")
    rates;
  (* best throughput cut is the filterbank (paper: cut point 4) *)
  match Cutpoints.best_by_rate cuts with
  | Some c -> Alcotest.(check string) "best cut" "filtbank" c.Cutpoints.label
  | None -> Alcotest.fail "no best cut"

let test_cutpoints_reject_nonpipeline () =
  let spec = Apps.Synthetic.fig3_spec ~cpu_budget:2. in
  let g = spec.Spec.graph in
  let events =
    [ { Profiler.Profile.Trace.time = 0.; source = 0; value = Value.Unit } ]
  in
  let raw = Profiler.Profile.collect ~duration:1. g events in
  Alcotest.check_raises "not a pipeline"
    (Invalid_argument "Cutpoints: graph is not a linear pipeline") (fun () ->
      ignore (Cutpoints.enumerate raw Profiler.Platform.tmote_sky))

(* ---- viz ---- *)

let test_viz_shapes_and_cut () =
  let t = Apps.Speech.build () in
  let raw = Apps.Speech.profile ~duration:2. t in
  let costed = Profiler.Profile.cost raw Profiler.Platform.tmote_sky in
  let assignment = Apps.Speech.cut_assignment t 6 in
  let dot = Viz.render ~assignment ~costed raw in
  let contains n h =
    let nl = String.length n and hl = String.length h in
    let rec go i = i + nl <= hl && (String.sub h i nl = n || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "node ops are boxes" true (contains "box" dot);
  Alcotest.(check bool) "server ops are ellipses" true (contains "ellipse" dot);
  Alcotest.(check bool) "cut edge dashed" true (contains "dashed" dot)


(* ---- resource constraints (§4.2.1 RAM / code storage) ---- *)

let test_resource_constraint_forces_server () =
  let g = chain_graph () in
  let spec =
    simple_spec ~cpu_budget:10. ~cpu:[| 0.1; 0.1; 0.1; 0. |]
      ~bw:[| 100.; 50.; 10. |] g
  in
  (* without the RAM row, everything fits on the node *)
  (match solve spec with
  | Placement.Partitioned r ->
      Alcotest.(check int) "all three on node" 3
        (List.length (Placement.ops_on r 0))
  | _ -> Alcotest.fail "base problem should partition");
  (* op b needs 8 kB of RAM but the mote only has 10 kB total with a
     6 kB budget for operators *)
  let ram =
    { Placement.rname = "ram"; per_op = [| 100.; 500.; 8000.; 0. |];
      budget = 6000. }
  in
  match solve ~resources:[ ram ] spec with
  | Placement.Partitioned r ->
      Alcotest.(check bool) "b forced to the server" true (r.tier_of.(2) = 1);
      Alcotest.(check bool) "a still on node" true (r.tier_of.(1) = 0)
  | _ -> Alcotest.fail "resource-constrained problem should partition"

let test_resource_infeasible () =
  let g = chain_graph () in
  let spec =
    simple_spec ~cpu:[| 0.1; 0.1; 0.1; 0. |] ~bw:[| 100.; 50.; 10. |] g
  in
  (* even the pinned source exceeds the budget: no partition at all *)
  let ram =
    { Placement.rname = "ram"; per_op = [| 9000.; 1.; 1.; 0. |];
      budget = 6000. }
  in
  match solve ~resources:[ ram ] spec with
  | Placement.No_feasible_partition -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_resource_wrong_length () =
  let g = chain_graph () in
  let spec =
    simple_spec ~cpu:[| 0.1; 0.1; 0.1; 0. |] ~bw:[| 100.; 50.; 10. |] g
  in
  let bad = { Placement.rname = "ram"; per_op = [| 1. |]; budget = 5. } in
  Alcotest.check_raises "length check"
    (Invalid_argument "Placement.encode: resource ram has wrong length")
    (fun () -> ignore (solve ~resources:[ bad ] spec))

(* ---- pipeline prefix-cut oracle ---- *)

let prop_pipeline_prefix_matches_ilp =
  QCheck.Test.make ~count:100 ~name:"pipeline enumeration matches the ILP"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let spec =
        Apps.Synthetic.random_pipeline_spec ~seed ~n_ops:(4 + (seed mod 8))
          ~cpu_budget:(0.3 +. Float.of_int (seed mod 4) /. 4.)
          ~net_budget:(200. +. Float.of_int (seed mod 5) *. 150.)
          ()
      in
      match (Check.Reference.pipeline_prefix_cut spec, solve spec) with
      | Some (_, dp_obj), Placement.Partitioned r ->
          if Float.abs (dp_obj -. r.objective) > 1e-6 then
            QCheck.Test.fail_reportf "seed %d: dp %.9g vs ilp %.9g" seed dp_obj
              r.objective
          else true
      | None, Placement.No_feasible_partition -> true
      | Some _, _ ->
          QCheck.Test.fail_reportf "seed %d: dp found a cut, ilp did not" seed
      | None, Placement.Partitioned _ ->
          QCheck.Test.fail_reportf "seed %d: ilp found a cut, dp did not" seed
      | _, Placement.Solver_failure m ->
          QCheck.Test.fail_reportf "seed %d: %s" seed m)

let test_pipeline_prefix_rejects_dag () =
  let spec = Apps.Synthetic.fig3_spec ~cpu_budget:2. in
  Alcotest.check_raises "dag rejected"
    (Invalid_argument "Reference.pipeline_prefix_cut: not a linear pipeline")
    (fun () -> ignore (Check.Reference.pipeline_prefix_cut spec))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "wishbone"
    [
      ( "movable",
        [
          tc "stateless classification" test_classify_stateless;
          tc "stateful modes" test_classify_stateful_modes;
          tc "server namespace pins" test_classify_server_namespace_pins;
          tc "conflict detected" test_classify_conflict_detected;
          tc "hardware on server rejected" test_classify_hardware_in_server_namespace;
        ] );
      ( "spec",
        [
          tc "cut stats" test_spec_cut_stats;
          tc "feasibility" test_spec_feasibility;
          tc "rate scaling" test_spec_scale_rate;
        ] );
      ( "preprocess",
        [
          tc "merges expanding ops" test_preprocess_merges_expanding;
          tc "keeps reducing ops" test_preprocess_keeps_reducing;
          tc "identity" test_preprocess_identity;
          tc "preserves optimum" test_preprocess_preserves_optimum;
        ] );
      ( "fig3",
        [
          tc "budgets 2/3/4 -> bw 8/6/5" test_fig3_budgets;
          tc "vertical cut at budget 4" test_fig3_partition_shape;
        ] );
      ( "encodings",
        [
          tc "restricted = general on one-crossing" test_encodings_agree;
          tc "general is bidirectional" test_general_encoding_bidirectional;
        ] );
      ( "optimality",
        [
          QCheck_alcotest.to_alcotest prop_ilp_matches_brute;
          QCheck_alcotest.to_alcotest prop_alpha_beta_tradeoff;
        ] );
      ( "rate_search",
        [
          tc "finds the max rate" test_rate_search_finds_max;
          tc "monotone feasibility" test_rate_search_monotonicity;
          tc "overloaded start" test_rate_search_overloaded_start;
          tc "incremental = cold" test_rate_search_incremental_consistent;
          tc "zero tol returns" test_rate_search_zero_tol;
        ] );
      ( "cutpoints",
        [
          tc "speech pipeline" test_cutpoints_on_speech;
          tc "rejects non-pipeline" test_cutpoints_reject_nonpipeline;
        ] );
      ("viz", [ tc "shapes and cut edges" test_viz_shapes_and_cut ]);
      ( "resources",
        [
          tc "RAM row forces an op off the node"
            test_resource_constraint_forces_server;
          tc "infeasible when pinned ops exceed it" test_resource_infeasible;
          tc "wrong length rejected" test_resource_wrong_length;
        ] );
      ( "pipeline_dp",
        [
          QCheck_alcotest.to_alcotest prop_pipeline_prefix_matches_ilp;
          tc "rejects non-pipelines" test_pipeline_prefix_rejects_dag;
        ] );
    ]
