(* Figure 6: CDF of solver runtime for the full EEG application,
   invoked across linearly spaced data rates.  Two distributions:
   time until the final incumbent was discovered, and time until
   optimality was proved.  (The paper ran lp_solve 2100 times; the
   default here is 200 invocations - pass a count to change it.) *)

let run ?(count = 200) () =
  Bench_util.header
    (Printf.sprintf
       "Figure 6: solver runtime CDF, full EEG app, %d invocations" count);
  Bench_util.paper_vs
    "95%% of runs find the optimum quickly; proving optimality has a \
     longer tail; all runs finish";
  let raw = Lazy.force Bench_util.eeg_profile in
  let spec =
    Bench_util.spec_exn ~mode:Wishbone.Movable.Permissive
      ~platform:Profiler.Platform.tmote_sky raw
  in
  (* rates from "everything fits easily" to "nothing fits" *)
  let lo = 0.01 and hi = 2.0 in
  (* the paper notes worst-case proofs of ~12 minutes and suggests an
     approximate-bound termination condition; we cap each solve at 20 s
     and report how many runs hit the cap *)
  let options =
    { Lp.Branch_bound.default_options with Lp.Branch_bound.time_limit = 20. }
  in
  let discover = ref [] and prove = ref [] in
  let feasible = ref 0 and capped = ref 0 in
  for i = 0 to count - 1 do
    let mult = lo +. ((hi -. lo) *. Float.of_int i /. Float.of_int (count - 1)) in
    match
      Wishbone.Placement.solve ~options
        (Wishbone.Placement.of_spec (Wishbone.Spec.scale_rate spec mult))
    with
    | Wishbone.Placement.Partitioned r ->
        incr feasible;
        if not r.solver.Lp.Branch_bound.proved_optimal then incr capped;
        discover := r.solver.Lp.Branch_bound.time_to_incumbent :: !discover;
        prove := r.solver.Lp.Branch_bound.time_total :: !prove
    | Wishbone.Placement.No_feasible_partition -> ()
    | Wishbone.Placement.Solver_failure _ -> incr capped
  done;
  let d = Array.of_list !discover and p = Array.of_list !prove in
  Array.sort compare d;
  Array.sort compare p;
  Bench_util.row "feasible at %d of %d rates; %d proofs hit the 20 s cap\n"
    !feasible count !capped;
  Bench_util.row "%-12s %12s %12s\n" "percentile" "discover(s)" "prove(s)";
  List.iter
    (fun q ->
      Bench_util.row "%-12.0f %12.4f %12.4f\n" (q *. 100.)
        (Bench_util.percentile d q) (Bench_util.percentile p q))
    [ 0.5; 0.9; 0.95; 0.99; 1.0 ]
