(* The paper's EEG seizure-onset detection scenario (§6.1):

   1. build the 22-channel, 1126-operator wavelet-cascade application,
   2. train a patient-specific SVM on labelled synthetic windows,
   3. run the detector live over a stretch of signal,
   4. profile and partition the full graph for a wearable (TMote-class)
      processor, sweeping the input rate as in Figure 5(a).

     dune exec examples/eeg_monitor.exe *)

open Dataflow

let () =
  (* train a patient-specific detector *)
  print_endline "collecting labelled feature windows for SVM training...";
  let trainer = Apps.Eeg.build () in
  let data = Apps.Eeg.collect_features ~seed:33 ~n_windows:150 trainer in
  let svm = Dsp.Svm.train data in
  let correct =
    Array.fold_left
      (fun acc (x, label) ->
        let c, _ = Dsp.Svm.classify svm x in
        if c = label then acc + 1 else acc)
      0 data
  in
  Printf.printf "training accuracy: %d/%d windows\n" correct (Array.length data);

  (* run the detector over fresh signal *)
  let app = Apps.Eeg.build ~svm () in
  let exec = Runtime.Exec.full app.Apps.Eeg.graph in
  let gen = Dsp.Siggen.Eeg.create ~seed:77 ~n_channels:22 () in
  let alarms = ref 0 and windows = 60 in
  for w = 1 to windows do
    let ictal = Dsp.Siggen.Eeg.in_seizure gen in
    let channels = Dsp.Siggen.Eeg.window gen Apps.Eeg.window_samples in
    let outputs = ref [] in
    Array.iteri
      (fun ch samples ->
        let q =
          Array.map (fun x -> int_of_float (Float.round x)) samples
        in
        let fired =
          Runtime.Exec.fire exec ~op:app.Apps.Eeg.sources.(ch) ~port:0
            (Value.Int16_arr q)
        in
        outputs := fired.sink_values @ !outputs)
      channels;
    List.iter
      (fun v ->
        match v with
        | Value.Tuple [ Value.Bool true; Value.Float d ] ->
            incr alarms;
            Printf.printf "window %3d: SEIZURE DECLARED (decision %+.2f, %s)\n"
              w d
              (if ictal then "true positive" else "false positive")
        | _ -> ())
      !outputs
  done;
  Printf.printf "%d alarm(s) over %d windows (2 s each)\n" !alarms windows;

  (* partition the 1126-operator graph for a wearable processor *)
  print_endline "\nprofiling the full 22-channel graph (120 s of signal)...";
  let raw = Apps.Eeg.profile ~duration:120. app in
  (match
     Wishbone.Spec.of_profile ~mode:Wishbone.Movable.Permissive
       ~node_platform:Profiler.Platform.tmote_sky raw
   with
  | Error m -> print_endline m
  | Ok spec ->
      let contracted = Wishbone.Preprocess.contract spec in
      let orig, super = Wishbone.Preprocess.reduction contracted in
      Printf.printf
        "preprocessing: %d movable operators -> %d movable supernodes\n" orig
        super;
      Printf.printf "%-8s %22s %14s\n" "rate x" "operators on node"
        "cut bandwidth B/s";
      let pl = Wishbone.Placement.of_spec spec in
      let node_ops r = List.length (Wishbone.Placement.ops_on r 0) in
      List.iter
        (fun mult ->
          match
            Wishbone.Placement.solve (Wishbone.Placement.scale_rate pl mult)
          with
          | Wishbone.Placement.Partitioned r ->
              Printf.printf "%-8.2f %22d %14.1f\n" mult (node_ops r)
                r.link_net.(0)
          | Wishbone.Placement.No_feasible_partition ->
              Printf.printf "%-8.2f %22s %14s\n" mult "(does not fit)" "-"
          | Wishbone.Placement.Solver_failure m ->
              Printf.printf "%-8.2f solver failure: %s\n" mult m)
        [ 0.25; 0.5; 0.75; 1.0 ];
      print_endline
        "\nwhen the full 256 Hz x 22-channel load does not fit, Wishbone\n\
         reports how far the rate must drop (§4.3):";
      match Wishbone.Rate_search.search_placement pl with
      | Some { placement_multiplier; placement_report = r; _ } ->
          Printf.printf
            "max sustainable rate x%.3f; %d operators in-network; %.1f B/s \
             to the server\n"
            placement_multiplier (node_ops r) r.link_net.(0)
      | None -> print_endline "no feasible partition at any rate")
