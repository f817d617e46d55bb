(* §7 headline numbers that are not a single figure:
   - the TMote binary search lands at ~3 input events/s with the cut
     right after the filter bank;
   - the Meraki optimum is cut point 1 (raw data);
   - picking the best working partition beats the worst by a large
     factor (paper: 20x);
   - the additive cost model underestimates deployed CPU (paper:
     Gumstix predicted 11.5% vs measured 15%). *)

let run () =
  let speech = Lazy.force Bench_util.speech in
  let raw = Lazy.force Bench_util.speech_profile in
  Bench_util.header "Headline: TMote rate search";
  Bench_util.paper_vs
    "highest feasible rate = 3 events/s; optimal cut right after the \
     filter bank (cut point 4)";
  (let spec = Bench_util.spec_exn ~platform:Profiler.Platform.tmote_sky raw in
   match
     Wishbone.Rate_search.search_placement (Wishbone.Placement.of_spec spec)
   with
   | Some { placement_multiplier = rate; placement_report = report; _ } ->
       Bench_util.row
         "max rate x%.3f = %.2f windows/s; node = {%s}; cut bw %.0f B/s\n"
         rate (rate *. Apps.Speech.frame_rate)
         (String.concat "," (Bench_util.cut_names speech report))
         report.link_net.(0)
   | None -> Bench_util.row "rate search failed\n");
  Bench_util.header "Headline: Meraki partition";
  Bench_util.paper_vs
    "~15x the TMote CPU but >=10x the bandwidth: optimal cut is point 1, \
     send the raw data";
  (let spec = Bench_util.spec_exn ~platform:Profiler.Platform.meraki raw in
   match
     Wishbone.Rate_search.search_placement (Wishbone.Placement.of_spec spec)
   with
   | Some { placement_multiplier; placement_report = report; _ } ->
       Bench_util.row "max rate x%.2f; node = {%s}\n" placement_multiplier
         (String.concat "," (Bench_util.cut_names speech report))
   | None -> Bench_util.row "rate search failed\n");
  Bench_util.header "Headline: best vs worst working partition (1 TMote)";
  Bench_util.paper_vs
    "0% of results at the all-server cut, 0.5% all-node; the right \
     intermediate cut is ~20x better";
  (let cuts = Apps.Speech.relevant_cutpoints speech in
   let goodputs =
     List.map (fun c -> (c, (Fig9_10.deploy ~n_nodes:1 c).goodput_fraction)) cuts
   in
   let best = List.fold_left (fun a (_, g) -> Float.max a g) 0. goodputs in
   let all_server = List.assoc 1 goodputs in
   let all_node = List.assoc 8 goodputs in
   Bench_util.row
     "all-server %.2f%%, all-node %.2f%%, best %.2f%% (%.0fx the all-node cut)\n"
     (100. *. all_server) (100. *. all_node) (100. *. best)
     (best /. Float.max 1e-9 all_node));
  Bench_util.header "Headline: predicted vs measured CPU (Gumstix)";
  Bench_util.paper_vs "predicted 11.5% CPU from profiles; measured ~15%";
  let spec = Bench_util.spec_exn ~platform:Profiler.Platform.gumstix raw in
  let assignment = Apps.Speech.cut_assignment speech 8 in
  let config =
    Netsim.Testbed.default_config ~n_nodes:1 ~duration:30. ~seed:4
      ~platform:Profiler.Platform.gumstix ~link:Netsim.Link.wifi ()
  in
  let sources = Apps.Speech.testbed_sources ~rate_mult:1.0 speech in
  let c = Wishbone.Deploy.run ~config ~sources ~spec ~assignment in
  Bench_util.row
    "whole pipeline on node: predicted %.2f%% CPU, measured %.2f%% (x%.2f)\n"
    (100. *. c.predicted_cpu) (100. *. c.measured_cpu)
    (c.measured_cpu /. Float.max 1e-9 c.predicted_cpu)
