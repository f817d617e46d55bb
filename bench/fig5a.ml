(* Figure 5(a): one EEG channel.  Sweep the input data rate and report
   the number of operators in the computed optimal node partition for
   the TMote and the N80 (alpha = 0, beta = 1: minimize network
   subject to fitting the CPU). *)

let ops_on_node spec mult =
  match
    Wishbone.Placement.solve
      (Wishbone.Placement.of_spec (Wishbone.Spec.scale_rate spec mult))
  with
  | Wishbone.Placement.Partitioned r ->
      List.length (Wishbone.Placement.ops_on r 0)
  | Wishbone.Placement.No_feasible_partition -> -1
  | Wishbone.Placement.Solver_failure m -> failwith m

let run () =
  Bench_util.header
    "Figure 5(a): EEG single channel, operators on node vs input rate";
  Bench_util.paper_vs
    "sloping staircase: fewer operators fit as the rate grows; N80 above TMote";
  let raw = Lazy.force Bench_util.eeg_channel_profile in
  (* as in the paper, the network budget is left unconstrained here to
     remove confounding factors (alpha = 0, beta = 1) *)
  let spec p =
    match
      Wishbone.Spec.of_profile ~mode:Wishbone.Movable.Permissive
        ~net_budget:infinity ~node_platform:p raw
    with
    | Ok s -> s
    | Error m -> failwith m
  in
  let tmote = spec Profiler.Platform.tmote_sky in
  let n80 = spec Profiler.Platform.nokia_n80 in
  Bench_util.row "%-10s %10s %10s\n" "rate x" "tmote" "n80";
  List.iter
    (fun mult ->
      Bench_util.row "%-10.1f %10d %10d\n" mult (ops_on_node tmote mult)
        (ops_on_node n80 mult))
    [ 1.; 2.; 4.; 8.; 12.; 16.; 20.; 24.; 28.; 32.; 40.; 48.; 64.; 96.;
      128.; 192.; 256. ]
