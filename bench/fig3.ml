(* Figure 3: the motivating example.  Six operators, CPU budgets 2, 3
   and 4; the optimal node partition's cut bandwidth must fall 8, 6, 5
   and flip between "horizontal" and "vertical" shapes. *)

let run () =
  Bench_util.header "Figure 3: motivating example (budget sweep)";
  Bench_util.paper_vs "optimal cut bandwidth 8 / 6 / 5 at CPU budgets 2 / 3 / 4";
  List.iter
    (fun budget ->
      let spec = Apps.Synthetic.fig3_spec ~cpu_budget:budget in
      match Wishbone.Placement.solve (Wishbone.Placement.of_spec spec) with
      | Wishbone.Placement.Partitioned r ->
          let names =
            List.map
              (fun i ->
                (Dataflow.Graph.op spec.Wishbone.Spec.graph i).Dataflow.Op.name)
              (Wishbone.Placement.ops_on r 0)
          in
          Bench_util.row "budget %.0f -> cut bandwidth %.0f, cpu %.0f, node = {%s}\n"
            budget r.link_net.(0) r.tier_cpu.(0) (String.concat "," names)
      | Wishbone.Placement.No_feasible_partition ->
          Bench_util.row "budget %.0f -> infeasible\n" budget
      | Wishbone.Placement.Solver_failure m ->
          Bench_util.row "budget %.0f -> solver failure: %s\n" budget m)
    [ 2.; 3.; 4. ]
