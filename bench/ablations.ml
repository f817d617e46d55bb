(* Ablation benches for the design choices DESIGN.md calls out. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let encoding () =
  Bench_util.header
    "Ablation: restricted (eq. 6-7) vs general (eq. 1-5) encoding";
  let raw = Lazy.force Bench_util.eeg_profile in
  let spec =
    Bench_util.spec_exn ~mode:Wishbone.Movable.Permissive
      ~platform:Profiler.Platform.tmote_sky raw
  in
  let pl = Wishbone.Placement.of_spec (Wishbone.Spec.scale_rate spec 0.5) in
  let solve encoding =
    time (fun () -> Wishbone.Placement.solve ~encoding pl)
  in
  let describe name (outcome, dt) =
    match outcome with
    | Wishbone.Placement.Partitioned r ->
        Bench_util.row
          "%-12s obj %10.2f  %6.2fs  %5d B&B nodes  %5d LPs  %d vars\n" name
          r.Wishbone.Placement.objective dt
          r.Wishbone.Placement.solver.Lp.Branch_bound.nodes_explored
          r.Wishbone.Placement.solver.Lp.Branch_bound.lp_solves
          r.Wishbone.Placement.supernodes
    | Wishbone.Placement.No_feasible_partition ->
        Bench_util.row "%-12s infeasible (%.2fs)\n" name dt
    | Wishbone.Placement.Solver_failure m ->
        Bench_util.row "%-12s FAILURE %s\n" name m
  in
  describe "restricted" (solve Wishbone.Placement.Restricted);
  describe "general" (solve Wishbone.Placement.General)

let preprocess () =
  Bench_util.header "Ablation: §4.1 preprocessing on vs off (EEG app)";
  let raw = Lazy.force Bench_util.eeg_profile in
  let spec =
    Bench_util.spec_exn ~mode:Wishbone.Movable.Permissive
      ~platform:Profiler.Platform.tmote_sky raw
  in
  let pl = Wishbone.Placement.of_spec (Wishbone.Spec.scale_rate spec 0.5) in
  List.iter
    (fun (name, preprocess) ->
      let outcome, dt =
        time (fun () -> Wishbone.Placement.solve ~preprocess pl)
      in
      match outcome with
      | Wishbone.Placement.Partitioned r ->
          Bench_util.row "%-6s obj %10.2f  %6.2fs  %4d supernodes (%d movable)\n"
            name r.Wishbone.Placement.objective dt
            r.Wishbone.Placement.supernodes
            r.Wishbone.Placement.movable_supernodes
      | _ -> Bench_util.row "%-6s no partition (%.2fs)\n" name dt)
    [ ("on", true); ("off", false) ]

let modes () =
  Bench_util.header "Ablation: conservative vs permissive stateful relocation";
  let raw = Lazy.force Bench_util.eeg_profile in
  List.iter
    (fun (name, mode) ->
      match
        Wishbone.Spec.of_profile ~mode
          ~node_platform:Profiler.Platform.tmote_sky raw
      with
      | Error m -> Bench_util.row "%-14s error: %s\n" name m
      | Ok spec -> (
          let movable = Wishbone.Movable.movable_count spec.Wishbone.Spec.placement in
          match
            Wishbone.Rate_search.search_placement
              (Wishbone.Placement.of_spec spec)
          with
          | Some { placement_multiplier; placement_report = r; _ } ->
              Bench_util.row
                "%-14s %5d movable ops; max rate x%.3f; cut bw %.1f B/s\n" name
                movable placement_multiplier r.Wishbone.Placement.link_net.(0)
          | None ->
              Bench_util.row "%-14s %5d movable ops; no feasible rate\n" name
                movable))
    [ ("conservative", Wishbone.Movable.Conservative);
      ("permissive", Wishbone.Movable.Permissive) ]

let mean_peak () =
  Bench_util.header "Ablation: mean vs peak load profiles (bursty input)";
  (* a bursty synthetic source: all frames of each second arrive in its
     first 250 ms *)
  let speech = Lazy.force Bench_util.speech in
  let duration = 30. in
  let events =
    List.concat_map
      (fun sec ->
        List.init 10 (fun i ->
            {
              Profiler.Profile.Trace.time =
                Float.of_int sec +. (Float.of_int i *. 0.025);
              source = speech.Apps.Speech.source;
              value = Apps.Speech.frame_gen ~seed:5 ((sec * 10) + i);
            }))
      (List.init (int_of_float duration) Fun.id)
  in
  let raw =
    Profiler.Profile.collect ~window:0.25 ~duration speech.Apps.Speech.graph
      events
  in
  List.iter
    (fun (name, use_peak) ->
      match
        Wishbone.Spec.of_profile ~use_peak
          ~node_platform:Profiler.Platform.tmote_sky raw
      with
      | Error m -> Bench_util.row "%-6s error: %s\n" name m
      | Ok spec -> (
          match
            Wishbone.Rate_search.search_placement
              (Wishbone.Placement.of_spec spec)
          with
          | Some { placement_multiplier; placement_report = r; _ } ->
              Bench_util.row
                "%-6s max rate x%.3f; node cpu %.1f%%; cut bw %.1f B/s\n" name
                placement_multiplier
                (100. *. r.Wishbone.Placement.tier_cpu.(0))
                r.Wishbone.Placement.link_net.(0)
          | None -> Bench_util.row "%-6s no feasible rate\n" name))
    [ ("mean", false); ("peak", true) ]

let run () =
  encoding ();
  preprocess ();
  modes ();
  mean_peak ()
