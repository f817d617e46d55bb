(* The paper's acoustic speech-detection scenario end to end:

   1. build the MFCC pipeline (§6.2),
   2. profile it on synthetic audio,
   3. compare the candidate platforms (Figure 5b style),
   4. binary-search the highest sustainable rate on a TMote (§4.3),
   5. deploy the chosen partition on the simulated 20-mote testbed and
      compare against the exhaustive per-cut ground truth (§7.3).

     dune exec examples/speech_detection.exe *)

let () =
  let app = Apps.Speech.build () in
  print_endline "profiling the MFCC pipeline on 30 s of synthetic speech...";
  let raw = Apps.Speech.profile ~duration:30. app in

  (* platform comparison *)
  Printf.printf "\n%-10s %16s %18s\n" "platform" "pipeline us/frame"
    "max rate (x8 kHz)";
  List.iter
    (fun p ->
      let cuts = Wishbone.Cutpoints.enumerate raw p in
      let last = List.nth cuts (List.length cuts - 1) in
      Printf.printf "%-10s %16.0f %18.3f\n" p.Profiler.Platform.name
        last.Wishbone.Cutpoints.node_us_per_input
        last.Wishbone.Cutpoints.max_rate_compute)
    Profiler.Platform.
      [ tmote_sky; nokia_n80; iphone; gumstix; meraki; voxnet; scheme_server ];

  (* TMote: find the best partition and rate *)
  let spec =
    match
      Wishbone.Spec.of_profile ~node_platform:Profiler.Platform.tmote_sky raw
    with
    | Ok s -> s
    | Error m -> failwith m
  in
  print_newline ();
  (match
     Wishbone.Rate_search.search_placement (Wishbone.Placement.of_spec spec)
   with
  | Some { placement_multiplier = rate; placement_report = report; _ } ->
      Printf.printf
        "TMote: highest sustainable rate x%.3f (%.1f windows/s), cut after %s\n"
        rate (rate *. Apps.Speech.frame_rate)
        (match List.rev (Wishbone.Placement.ops_on report 0) with
        | last :: _ ->
            (Dataflow.Graph.op app.Apps.Speech.graph last).Dataflow.Op.name
        | [] -> "nothing")
  | None -> print_endline "TMote: no feasible partition at any rate");

  (* empirical ground truth on the simulated testbed *)
  Printf.printf "\nper-cut goodput on the simulated testbed (60 s each):\n";
  Printf.printf "%-4s %-10s %12s %12s\n" "cut" "after" "1 mote %" "20 motes %";
  List.iter
    (fun cut ->
      let assignment = Apps.Speech.cut_assignment app cut in
      let run n_nodes =
        let config =
          Netsim.Testbed.default_config ~n_nodes ~duration:60. ~seed:5
            ~platform:Profiler.Platform.tmote_sky ~link:Netsim.Link.cc2420 ()
        in
        Netsim.Testbed.run config ~graph:app.Apps.Speech.graph
          ~node_of:(fun i -> assignment.(i))
          ~sources:(Apps.Speech.testbed_sources ~rate_mult:1.0 app)
      in
      let name =
        (Dataflow.Graph.op app.Apps.Speech.graph
           app.Apps.Speech.order.(cut - 1))
          .Dataflow.Op.name
      in
      Printf.printf "%-4d %-10s %12.2f %12.2f\n" cut name
        (100. *. (run 1).goodput_fraction)
        (100. *. (run 20).goodput_fraction))
    (Apps.Speech.relevant_cutpoints app);
  print_newline ();
  print_endline
    "note how the single mote peaks at the filterbank cut while the\n\
     20-mote network, throttled by the shared channel, peaks at the\n\
     final compute-bound cut - exactly Figures 9/10 of the paper."
