(* End-to-end integration tests: the paper's qualitative results as
   regressions.  Each test runs the full chain
   build -> profile -> partition -> (deploy) and asserts the *shape*
   reported in the evaluation section (§7). *)

open Wishbone

let speech = Apps.Speech.build ()
let speech_raw = lazy (Apps.Speech.profile ~duration:20. speech)

let node_names report =
  List.map
    (fun i -> (Dataflow.Graph.op speech.Apps.Speech.graph i).Dataflow.Op.name)
    (Placement.ops_on report 0)

(* the paper's two-way cut is the two-tier placement of a spec *)
let solve spec = Placement.solve (Placement.of_spec spec)

let search ?tol ?options spec =
  Rate_search.search_placement ?tol ?options (Placement.of_spec spec)

(* §7.3: binary search finds ~3 input events/s on the TMote, cutting
   right after the filter bank *)
let test_speech_tmote_rate_search () =
  let raw = Lazy.force speech_raw in
  match Spec.of_profile ~node_platform:Profiler.Platform.tmote_sky raw with
  | Error m -> Alcotest.fail m
  | Ok spec -> (
      (* the full 40 windows/s rate must NOT fit on a TMote *)
      (match solve spec with
      | Placement.No_feasible_partition -> ()
      | _ -> Alcotest.fail "full rate should not fit a TMote");
      match search spec with
      | Some { placement_multiplier; placement_report = report; _ } ->
          let wps = placement_multiplier *. Apps.Speech.frame_rate in
          Alcotest.(check bool)
            (Printf.sprintf "2..6 windows/s (got %.2f)" wps)
            true
            (wps > 2. && wps < 6.);
          Alcotest.(check (list string)) "cut after the filter bank"
            [ "source"; "preemph"; "hamming"; "prefilt"; "fft"; "filtbank" ]
            (node_names report)
      | None -> Alcotest.fail "rate search failed")

(* §7.3: the Meraki has 10x the bandwidth, so its optimum is cut
   point 1 - send the raw data *)
let test_speech_meraki_raw_cut () =
  let raw = Lazy.force speech_raw in
  match Spec.of_profile ~node_platform:Profiler.Platform.meraki raw with
  | Error m -> Alcotest.fail m
  | Ok spec -> (
      match search spec with
      | Some { placement_multiplier; placement_report = report; _ } ->
          Alcotest.(check bool) "sustains at least the full rate" true
            (placement_multiplier >= 1.);
          Alcotest.(check (list string)) "raw data off the node"
            [ "source" ] (node_names report)
      | None -> Alcotest.fail "rate search failed")

(* Figure 5(b): platform ordering of compute-bound sustainable rates *)
let test_fig5b_platform_ordering () =
  let raw = Lazy.force speech_raw in
  let full_pipeline_rate p =
    let cuts = Cutpoints.enumerate raw p in
    (List.nth cuts (List.length cuts - 1)).Cutpoints.max_rate_compute
  in
  let r = full_pipeline_rate in
  let open Profiler.Platform in
  Alcotest.(check bool) "tmote slowest" true
    (r tmote_sky < r nokia_n80);
  Alcotest.(check bool) "n80 only a few x the mote (jvm)" true
    (r nokia_n80 < 8. *. r tmote_sky);
  Alcotest.(check bool) "meraki ~15x mote" true
    (r meraki > 10. *. r tmote_sky && r meraki < 40. *. r tmote_sky);
  Alcotest.(check bool) "iphone ~3x slower than gumstix" true
    (r iphone < r gumstix /. 1.5 && r iphone > r gumstix /. 6.);
  Alcotest.(check bool) "voxnet and scheme fastest" true
    (r voxnet > r iphone && r scheme_server > r voxnet);
  Alcotest.(check bool) "mote cannot sustain the full rate" true
    (r tmote_sky < 0.1);
  Alcotest.(check bool) "server sustains hundreds of x" true
    (r scheme_server > 100.)

(* Figure 7: cumulative TMote CPU through the filter bank is a few
   hundred ms per frame; the cepstral stage dominates the total *)
let test_fig7_tmote_costs () =
  let raw = Lazy.force speech_raw in
  let cuts = Cutpoints.enumerate raw Profiler.Platform.tmote_sky in
  let by_label l = List.find (fun c -> c.Cutpoints.label = l) cuts in
  let filtbank_ms = (by_label "filtbank").Cutpoints.node_us_per_input /. 1000. in
  let total_ms = (by_label "cepstrals").Cutpoints.node_us_per_input /. 1000. in
  Alcotest.(check bool)
    (Printf.sprintf "filtbank cumulative 150..450 ms (got %.0f)" filtbank_ms)
    true
    (filtbank_ms > 150. && filtbank_ms < 450.);
  Alcotest.(check bool)
    (Printf.sprintf "total 1..3 s (got %.0f ms)" total_ms)
    true
    (total_ms > 1000. && total_ms < 3000.);
  Alcotest.(check bool) "cepstrals dominate" true
    (total_ms -. (by_label "logs").Cutpoints.node_us_per_input /. 1000.
    > 0.6 *. total_ms)

(* Figure 8: the float-heavy cepstral stage is a far larger share of
   total CPU on the mote than on the server *)
let test_fig8_relative_costs () =
  let raw = Lazy.force speech_raw in
  let order = Cutpoints.pipeline_order raw in
  let share p =
    let cum = Profiler.Report.normalized_cumulative_cpu raw p ~order in
    (* share of the last two compute stages (logs+cepstrals) *)
    1. -. cum.(Array.length cum - 4)
  in
  let mote = share Profiler.Platform.tmote_sky in
  let server = share Profiler.Platform.xeon_server in
  Alcotest.(check bool)
    (Printf.sprintf "mote %.2f vs server %.2f" mote server)
    true
    (mote > 1.35 *. server)

(* Figures 9/10: deployment goodput across cut points *)
let deploy_goodput ~n_nodes cut =
  let assignment = Apps.Speech.cut_assignment speech cut in
  let config =
    Netsim.Testbed.default_config ~n_nodes ~duration:60. ~seed:5
      ~platform:Profiler.Platform.tmote_sky ~link:Netsim.Link.cc2420 ()
  in
  let sources = Apps.Speech.testbed_sources ~rate_mult:1.0 speech in
  let r =
    Netsim.Testbed.run config ~graph:speech.Apps.Speech.graph
      ~node_of:(fun i -> assignment.(i))
      ~sources
  in
  r.goodput_fraction

let test_fig9_single_mote_peak () =
  let cuts = Apps.Speech.relevant_cutpoints speech in
  let goodputs = List.map (fun c -> (c, deploy_goodput ~n_nodes:1 c)) cuts in
  let best, best_g =
    List.fold_left
      (fun (bc, bg) (c, g) -> if g > bg then (c, g) else (bc, bg))
      (-1, -1.) goodputs
  in
  (* paper: peak at the 4th relevant cut point = after the filter bank *)
  Alcotest.(check int) "single-mote peak after filtbank" 6 best;
  (* early cut points drive reception to zero *)
  let g1 = List.assoc 1 goodputs in
  Alcotest.(check bool) "raw-data cut collapses" true (g1 < 0.005);
  (* picking the best working partition beats the worst working one by
     a large factor (paper: 20x) *)
  let worst_working =
    List.fold_left
      (fun acc (_, g) -> if g > 0.001 then Float.min acc g else acc)
      infinity goodputs
  in
  Alcotest.(check bool)
    (Printf.sprintf "best %.3f >> worst %.4f" best_g worst_working)
    true
    (best_g > 3. *. worst_working)

let test_fig10_network_peak () =
  let cuts = Apps.Speech.relevant_cutpoints speech in
  let goodputs = List.map (fun c -> (c, deploy_goodput ~n_nodes:20 c)) cuts in
  let best, _ =
    List.fold_left
      (fun (bc, bg) (c, g) -> if g > bg then (c, g) else (bc, bg))
      (-1, -1.) goodputs
  in
  (* paper: the 20-node network peaks at the final cut (cepstral):
     compute-bound, so the aggregate CPU wins *)
  Alcotest.(check int) "20-node peak at the final cut" 8 best

(* model vs deployment: the predicted optimal cut matches the
   empirically best cut on the simulated testbed (the §7.3 claim) *)
let test_predicted_matches_empirical () =
  let raw = Lazy.force speech_raw in
  match Spec.of_profile ~node_platform:Profiler.Platform.tmote_sky raw with
  | Error m -> Alcotest.fail m
  | Ok spec -> (
      match search spec with
      | None -> Alcotest.fail "no partition"
      | Some { placement_report = report; _ } ->
          let predicted_cut = List.length (Placement.ops_on report 0) in
          let cuts = Apps.Speech.relevant_cutpoints speech in
          let best, _ =
            List.fold_left
              (fun (bc, bg) c ->
                let g = deploy_goodput ~n_nodes:1 c in
                if g > bg then (c, g) else (bc, bg))
              (-1, -1.) cuts
          in
          Alcotest.(check int) "ILP cut = empirical best cut" best
            predicted_cut)

(* §7.3.1: the additive cost model underestimates the measured CPU
   (OS overhead + processor cost of communication) *)
let test_predicted_vs_measured_cpu () =
  let raw = Lazy.force speech_raw in
  match
    Spec.of_profile ~node_platform:Profiler.Platform.gumstix raw
  with
  | Error m -> Alcotest.fail m
  | Ok spec ->
      let assignment = Apps.Speech.cut_assignment speech 8 in
      let config =
        Netsim.Testbed.default_config ~n_nodes:1 ~duration:30. ~seed:4
          ~platform:Profiler.Platform.gumstix ~link:Netsim.Link.wifi ()
      in
      let sources = Apps.Speech.testbed_sources ~rate_mult:1.0 speech in
      let c = Deploy.run ~config ~sources ~spec ~assignment in
      Alcotest.(check bool)
        (Printf.sprintf "measured %.4f > predicted %.4f" c.measured_cpu
           c.predicted_cpu)
        true
        (c.measured_cpu > c.predicted_cpu);
      Alcotest.(check bool) "but within 2x" true
        (c.measured_cpu < 2. *. c.predicted_cpu)

(* ---- EEG ---- *)

let test_fig5a_rate_sweep_shape () =
  (* one channel: the number of operators in the optimal node
     partition falls monotonically (in steps) as the rate grows, and
     the N80 fits at least as many as the TMote *)
  let t = Apps.Eeg.single_channel () in
  let raw = Apps.Eeg.profile ~duration:120. t in
  let ops_on_node platform mult =
    match Spec.of_profile ~mode:Movable.Permissive ~node_platform:platform raw with
    | Error m -> Alcotest.fail m
    | Ok spec -> (
        match solve (Spec.scale_rate spec mult) with
        | Placement.Partitioned r -> List.length (Placement.ops_on r 0)
        | Placement.No_feasible_partition -> -1
        | Placement.Solver_failure m -> Alcotest.fail m)
  in
  let rates = [ 1.; 4.; 16.; 64.; 256. ] in
  let tmote = List.map (ops_on_node Profiler.Platform.tmote_sky) rates in
  let n80 = List.map (ops_on_node Profiler.Platform.nokia_n80) rates in
  (* at the native 256 Hz rate everything fits on either platform *)
  Alcotest.(check bool) "all ops fit at x1 (tmote)" true
    (List.hd tmote >= 50);
  (* monotone non-increasing in rate *)
  let check_monotone name l =
    List.iteri
      (fun i v ->
        if i > 0 && v > List.nth l (i - 1) then
          Alcotest.failf "%s: node ops grew with rate" name)
      l
  in
  check_monotone "tmote" tmote;
  check_monotone "n80" n80;
  (* the N80 sustains at least as much as the TMote at every rate *)
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "n80 >= tmote" true (b >= a))
    tmote n80;
  (* and at some high rate the TMote holds fewer operators *)
  Alcotest.(check bool) "tmote eventually sheds work" true
    (List.nth tmote 4 < List.hd tmote)

let test_eeg_full_app_partitions () =
  let t = Apps.Eeg.build () in
  let raw = Apps.Eeg.profile ~duration:60. t in
  match Spec.of_profile ~mode:Movable.Permissive
          ~node_platform:Profiler.Platform.tmote_sky raw with
  | Error m -> Alcotest.fail m
  | Ok spec -> (
      let c = Preprocess.contract spec in
      let orig, super = Preprocess.reduction c in
      Alcotest.(check bool)
        (Printf.sprintf "preprocessing shrinks %d -> %d movable" orig super)
        true
        (super < orig * 7 / 10);
      match solve spec with
      | Placement.Partitioned r ->
          Alcotest.(check bool) "proved optimal" true
            r.solver.Lp.Branch_bound.proved_optimal;
          Alcotest.(check bool)
            (Printf.sprintf "solved in %.1f s"
               r.solver.Lp.Branch_bound.time_total)
            true
            (r.solver.Lp.Branch_bound.time_total < 120.);
          (* the sources must stay on the node, the sink on the server *)
          Array.iter
            (fun s ->
              Alcotest.(check bool) "source on node" true (r.tier_of.(s) = 0))
            t.Apps.Eeg.sources
      | Placement.No_feasible_partition ->
          (* acceptable at full 22-channel load on a mote: then a rate
             search must succeed below x1 (coarse tolerance and a small
             per-solve budget keep the test fast) *)
          (match
             search ~tol:0.1
               ~options:
                 {
                   Rate_search.default_search_options with
                   Lp.Branch_bound.time_limit = 2.;
                 }
               spec
           with
          | Some { placement_multiplier; _ } ->
              Alcotest.(check bool) "reduced rate found" true
                (placement_multiplier > 0.)
          | None -> Alcotest.fail "EEG has no feasible rate at all")
      | Placement.Solver_failure m -> Alcotest.fail m)

let test_eeg_conservative_vs_permissive () =
  (* ablation: permissive mode must expose strictly more movable
     operators (the EEG cascade is stateful) *)
  let t = Apps.Eeg.single_channel () in
  let g = t.Apps.Eeg.graph in
  match
    ( Movable.classify Movable.Conservative g,
      Movable.classify Movable.Permissive g )
  with
  | Ok cons, Ok perm ->
      Alcotest.(check bool) "permissive strictly more movable" true
        (Movable.movable_count perm > Movable.movable_count cons)
  | _ -> Alcotest.fail "classification failed"

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "integration"
    [
      ( "speech",
        [
          tc "tmote rate search (3 events/s, filtbank cut)"
            test_speech_tmote_rate_search;
          tc "meraki sends raw data" test_speech_meraki_raw_cut;
          tc "fig5b platform ordering" test_fig5b_platform_ordering;
          tc "fig7 tmote costs" test_fig7_tmote_costs;
          tc "fig8 relative costs" test_fig8_relative_costs;
        ] );
      ( "deployment",
        [
          tc "fig9 single-mote peak at filtbank" test_fig9_single_mote_peak;
          tc "fig10 20-node peak at cepstral" test_fig10_network_peak;
          tc "model matches empirical best cut"
            test_predicted_matches_empirical;
          tc "additive model underestimates CPU"
            test_predicted_vs_measured_cpu;
        ] );
      ( "eeg",
        [
          tc "fig5a rate sweep shape" test_fig5a_rate_sweep_shape;
          tc "full 1126-op app partitions" test_eeg_full_app_partitions;
          tc "conservative vs permissive" test_eeg_conservative_vs_permissive;
        ] );
    ]
