(* LP warm-start micro-benchmark: the EEG rate search (the paper's
   §7.2 hot path — every bracket/bisection step is a full ILP solve)
   run twice, cold (every branch & bound node pays a fresh two-phase
   primal solve, no incumbent carried between rate steps) vs warm
   (parent-basis dual simplex re-solves + incremental rate search).

   Prints total simplex pivots and wall time for both modes and
   writes BENCH_lp.json at the repo root so later PRs have a perf
   baseline to regress against:

     dune exec bench/main.exe -- lp        -- default 22-channel EEG
     dune exec bench/main.exe -- lp 8      -- smaller instance *)

type mode_result = {
  pivots : int;
  lp_solves : int;
  refactorisations : int;
  ft_updates : int;
  ft_entries : int;
  wall_s : float;
  rate : float;
}

let run_mode ~label ~warm spec =
  let options =
    {
      Wishbone.Rate_search.default_search_options with
      Lp.Branch_bound.warm_start = warm;
    }
  in
  let c0 = Lp.Sparse.counters () in
  let t0 = Unix.gettimeofday () in
  let result =
    Wishbone.Rate_search.search_placement ~incremental:warm ~options
      (Wishbone.Placement.of_spec spec)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let c1 = Lp.Sparse.counters () in
  let pivots = c1.Lp.Sparse.pivots - c0.Lp.Sparse.pivots in
  let lp_solves, rate =
    match result with
    | Some r ->
        let solver =
          r.Wishbone.Rate_search.placement_report.Wishbone.Placement.solver
        in
        ( solver.Lp.Branch_bound.lp_solves,
          r.Wishbone.Rate_search.placement_multiplier )
    | None -> (0, nan)
  in
  Bench_util.row "%-6s %10d pivots  %8.3f s  rate x%.4f\n" label pivots wall_s
    rate;
  {
    pivots;
    lp_solves;
    refactorisations =
      c1.Lp.Sparse.refactorisations - c0.Lp.Sparse.refactorisations;
    ft_updates = c1.Lp.Sparse.ft_updates - c0.Lp.Sparse.ft_updates;
    ft_entries = c1.Lp.Sparse.ft_entries - c0.Lp.Sparse.ft_entries;
    wall_s;
    rate;
  }

(* Fixed-rate comparison: partition the same scaled instance once with
   warm starts and once without, under a budget generous enough that
   both finish.  Same problem in, same partition out — this isolates
   the solver speedup from the rate search's budget dynamics. *)
type resolve_result = {
  r_pivots : int;
  r_refactorisations : int;
  r_ft_updates : int;
  r_wall_s : float;
  objective : float;
}

let resolve_at ~warm spec rate =
  let scaled =
    Wishbone.Placement.of_spec (Wishbone.Spec.scale_rate spec rate)
  in
  let options =
    {
      Wishbone.Rate_search.default_search_options with
      Lp.Branch_bound.warm_start = warm;
      time_limit = 120.;
    }
  in
  let c0 = Lp.Sparse.counters () in
  let t0 = Unix.gettimeofday () in
  match Wishbone.Placement.solve ~options scaled with
  | Wishbone.Placement.Partitioned r ->
      let c1 = Lp.Sparse.counters () in
      Some
        {
          r_pivots = c1.Lp.Sparse.pivots - c0.Lp.Sparse.pivots;
          r_refactorisations =
            c1.Lp.Sparse.refactorisations - c0.Lp.Sparse.refactorisations;
          r_ft_updates = c1.Lp.Sparse.ft_updates - c0.Lp.Sparse.ft_updates;
          r_wall_s = Unix.gettimeofday () -. t0;
          objective = r.Wishbone.Placement.objective;
        }
  | _ -> None

let write_json ~n_channels ~(cold : mode_result) ~(warm : mode_result)
    ~(rc : resolve_result option) ~(rw : resolve_result option) =
  let oc = open_out "BENCH_lp.json" in
  let mode name (r : mode_result) =
    Printf.sprintf
      "  \"%s\": {\"total_pivots\": %d, \"final_solve_lps\": %d, \
       \"refactorisations\": %d, \"ft_updates\": %d, \"ft_entries\": %d, \
       \"wall_s\": %.6f, \"rate_multiplier\": %.6f}"
      name r.pivots r.lp_solves r.refactorisations r.ft_updates r.ft_entries
      r.wall_s r.rate
  in
  let resolve name = function
    | Some r ->
        Printf.sprintf
          "  \"resolve_%s\": {\"pivots\": %d, \"refactorisations\": %d, \
           \"ft_updates\": %d, \"wall_s\": %.6f, \"objective\": %.6f}"
          name r.r_pivots r.r_refactorisations r.r_ft_updates r.r_wall_s
          r.objective
    | None -> Printf.sprintf "  \"resolve_%s\": null" name
  in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"eeg_rate_search_warm_vs_cold\",\n\
    \  \"n_channels\": %d,\n\
     %s,\n\
     %s,\n\
     %s,\n\
     %s,\n\
    \  \"pivot_ratio\": %.3f,\n\
    \  \"speedup\": %.3f\n\
     }\n"
    n_channels (mode "cold" cold) (mode "warm" warm) (resolve "cold" rc)
    (resolve "warm" rw)
    (Float.of_int cold.pivots /. Float.max 1. (Float.of_int warm.pivots))
    (cold.wall_s /. Float.max 1e-9 warm.wall_s);
  close_out oc

(* The node-LP work gate: eeg22 at x0.92699 on the sparse engine, a
   search of a few hundred nodes whose LPs are almost all one- or
   two-pivot warm re-solves.  Its trajectory (nodes, LP solves, pivots,
   factor work, objective bits) is deterministic and pinned, and so is
   the minor-heap allocation of each node LP: about 20,400 words while
   every solve copied its bases and snapshots through [Array.blit] and
   boxed a column value per constraint term, about 5,500 since, and
   about 5,000 once the set-up before the first pivot stopped
   formatting names and consing per entry.  The ceiling sits between
   the two. *)
let max_words_per_node_lp = 10_000.

let node_lp_gate () =
  let fail fmt =
    Printf.ksprintf (fun m -> prerr_endline ("smoke eeg22: " ^ m); exit 1) fmt
  in
  let spec =
    Bench_util.spec_exn ~mode:Wishbone.Movable.Permissive
      ~platform:Profiler.Platform.tmote_sky
      (Apps.Eeg.profile ~duration:30. (Apps.Eeg.build ()))
  in
  let pl = Wishbone.Placement.of_spec (Wishbone.Spec.scale_rate spec 0.92699) in
  let c0 = Lp.Sparse.counters () and fb0 = Lp.Sparse.dense_fallbacks () in
  let w0 = Gc.minor_words () in
  let r =
    match Wishbone.Placement.solve pl with
    | Wishbone.Placement.Partitioned r -> r
    | Wishbone.Placement.No_feasible_partition -> fail "unexpectedly infeasible"
    | Wishbone.Placement.Solver_failure m -> fail "solver failure: %s" m
  in
  let words = Gc.minor_words () -. w0 in
  let c1 = Lp.Sparse.counters () in
  let s = r.Wishbone.Placement.solver in
  let per_lp = words /. Float.of_int (Int.max 1 s.Lp.Branch_bound.lp_solves) in
  Bench_util.row
    "eeg22 x0.92699: %d nodes, %d LPs, %d pivots, %d refactorisations, \
     %d FT updates, %d FT entries, objective %.17g, %.0f minor words/node LP\n"
    s.nodes_explored s.lp_solves s.total_pivots
    (c1.refactorisations - c0.refactorisations)
    (c1.ft_updates - c0.ft_updates) (c1.ft_entries - c0.ft_entries)
    r.objective per_lp;
  List.iter
    (fun (what, got, want) ->
      if got <> want then fail "%s %d, pinned %d" what got want)
    [
      ("nodes", s.nodes_explored, 253);
      ("LP solves", s.lp_solves, 505);
      ("pivots", s.total_pivots, 1_968);
      ("refactorisations", c1.refactorisations - c0.refactorisations, 252);
      ("FT updates", c1.ft_updates - c0.ft_updates, 1_465);
      ("FT entries", c1.ft_entries - c0.ft_entries, 142_097);
      ("dense fallbacks", Lp.Sparse.dense_fallbacks () - fb0, 0);
    ];
  if not (Float.equal r.objective 1062.3305399999988) then
    fail "objective %.17g, pinned 1062.3305399999988" r.objective;
  if per_lp > max_words_per_node_lp then
    fail "%.0f minor words per node LP (> %.0f)" per_lp max_words_per_node_lp

(* CI smoke: partition the speech and eeg14 instances once each and
   fail loudly if an objective leaves its pin (the values the
   repository benchmark pins for the same instances), if the sparse
   run never refactorised (meaning the LU path silently did not run),
   or if any solve declined to the dense fallback; then run the
   node-LP work gate above.  Kept small enough that the CI step's
   wall-clock ceiling (see .github/workflows/ci.yml) catches any
   solver-path regression that turns sub-second solves into minutes. *)
let smoke () =
  Bench_util.header "bench smoke: speech + eeg14 objectives; eeg22 node LPs";
  let run name rate ~pin spec =
    let fail fmt =
      Printf.ksprintf
        (fun m -> prerr_endline ("smoke " ^ name ^ ": " ^ m); exit 1)
        fmt
    in
    let pl = Wishbone.Placement.of_spec (Wishbone.Spec.scale_rate spec rate) in
    let c0 = Lp.Sparse.counters () and fb0 = Lp.Sparse.dense_fallbacks () in
    let t0 = Unix.gettimeofday () in
    let obj =
      match Wishbone.Placement.solve pl with
      | Wishbone.Placement.Partitioned r -> r.Wishbone.Placement.objective
      | Wishbone.Placement.No_feasible_partition ->
          fail "unexpectedly infeasible"
      | Wishbone.Placement.Solver_failure m -> fail "solver failure: %s" m
    in
    let t = Unix.gettimeofday () -. t0 in
    let c1 = Lp.Sparse.counters () in
    Bench_util.row "%-8s x%-5g objective %12.6f (%6.3f s)\n" name rate obj t;
    if Float.abs (obj -. pin) > 1e-6 *. Float.max 1. (Float.abs pin) then
      fail "objective %.9g, pinned %.9g" obj pin;
    if c1.Lp.Sparse.refactorisations <= c0.Lp.Sparse.refactorisations then
      fail "the sparse run never refactorised — LU path did not run";
    if Lp.Sparse.dense_fallbacks () <> fb0 then
      fail "%d dense fallbacks" (Lp.Sparse.dense_fallbacks () - fb0)
  in
  run "speech" 0.05 ~pin:260.
    (Bench_util.spec_exn ~platform:Profiler.Platform.tmote_sky
       (Lazy.force Bench_util.speech_profile));
  run "eeg14" 1.0 ~pin:84.
    (Bench_util.spec_exn ~mode:Wishbone.Movable.Permissive
       ~platform:Profiler.Platform.tmote_sky
       (Apps.Eeg.profile ~duration:30. (Apps.Eeg.build ~n_channels:14 ())));
  node_lp_gate ();
  Bench_util.row "smoke ok\n"

(* Default to 14 channels: the largest EEG instance where neither mode
   hits the rate search's 10 s per-attempt solver budget, so cold and
   warm provably agree on the found rate and the comparison is
   apples-to-apples.  At 22 channels the warm search proves feasibility
   at rates the cold search's budget cannot reach (run [lp 22] to see
   it win outright). *)
let run ?(n_channels = 14) () =
  Bench_util.header
    (Printf.sprintf
       "LP micro: warm-started dual simplex vs cold solves, %d-channel EEG \
        rate search"
       n_channels);
  Bench_util.paper_vs
    "MILP folklore: warm-starting child LPs from the parent basis is worth \
     10-100x on tree search";
  let raw = Apps.Eeg.profile ~duration:30. (Apps.Eeg.build ~n_channels ()) in
  let spec =
    Bench_util.spec_exn ~mode:Wishbone.Movable.Permissive
      ~platform:Profiler.Platform.tmote_sky raw
  in
  let cold = run_mode ~label:"cold" ~warm:false spec in
  let warm = run_mode ~label:"warm" ~warm:true spec in
  let ratio =
    Float.of_int cold.pivots /. Float.max 1. (Float.of_int warm.pivots)
  in
  Bench_util.row "pivot reduction: %.1fx  (wall-clock %.1fx)\n" ratio
    (cold.wall_s /. Float.max 1e-9 warm.wall_s);
  (* fixed-rate re-solve at the cold search's found rate: both modes
     complete, partitions are identical, only the work differs *)
  let rc, rw =
    if Float.is_nan cold.rate then (None, None)
    else
      let rc = resolve_at ~warm:false spec cold.rate in
      let rw = resolve_at ~warm:true spec cold.rate in
      (match (rc, rw) with
      | Some c, Some w ->
          Bench_util.row
            "fixed-rate solve at x%.4f: cold %d pivots %.3f s | warm %d \
             pivots %.3f s (%.1fx wall)\n"
            cold.rate c.r_pivots c.r_wall_s w.r_pivots w.r_wall_s
            (c.r_wall_s /. Float.max 1e-9 w.r_wall_s)
      | _ -> ());
      (rc, rw)
  in
  write_json ~n_channels ~cold ~warm ~rc ~rw;
  Bench_util.row "wrote BENCH_lp.json\n"
