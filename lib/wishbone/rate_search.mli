(** Data rate as a free variable (§4.3).

    When no placement satisfies the budgets at the requested input
    rate, Wishbone binary-searches for the maximum rate multiplier
    that still admits a feasible one.  Because CPU and network load
    grow monotonically with input rate, feasibility is monotone and
    binary search is exact (up to [tol]).  The search runs over any
    {!Placement.t} — the paper's two-way cut is
    [Placement.of_spec spec]. *)

type placement_result = {
  placement_multiplier : float;
      (** highest feasible multiple of the profiled input rate *)
  placement_report : Placement.report;  (** the placement at that rate *)
  placement_exact : bool;
      (** [true]: every probe that steered the search carried a proof —
          kept reports were proved optimal, rejections were proven
          infeasibilities — so the rate is the true maximum (up to
          [tol]).  [false]: some probe died on the solver budget
          (either returning an unproven incumbent, or no verdict at
          all, which the search conservatively treats as infeasible),
          so the returned rate is a {e safe lower bound} on the
          maximum: the reported placement is verified feasible at it,
          but a larger budget might have certified a higher rate. *)
}

val default_search_options : Lp.Branch_bound.options
(** A small optimality gap (0.5%) and a per-solve node/time budget.
    Near the feasibility boundary the CPU constraint is a tight
    knapsack and exact proofs can take minutes (the paper's §7.1 tail);
    the search trades marginal optimality for bounded runtime, as the
    paper itself suggests ("use an approximate lower bound to establish
    a termination condition").  Engine selection and worker count are
    inherited from {!Lp.Branch_bound.default_options} ([Auto] /
    sequential); override [solver]/[workers] here to force an engine or
    parallelise each solve — the rates found are identical either way. *)

val search_placement :
  ?encoding:Placement.encoding ->
  ?preprocess:bool ->
  ?options:Lp.Branch_bound.options ->
  ?tol:float ->
  ?max_multiplier:float ->
  ?incremental:bool ->
  ?initial_tiers:int array ->
  ?root_basis:Lp.Basis.t ->
  Placement.t ->
  placement_result option
(** The maximum rate multiplier at which [Placement.solve] finds a
    feasible placement, by bracket and bisection over
    {!Placement.scale_rate}: from 1 the lower bracket falls by 4x
    until feasible, the upper one doubles while feasible (up to
    [max_multiplier], default 65536), and geometric bisection stops
    at relative width [tol] (default 0.01).  [None] when even a
    vanishing input rate has no feasible placement (contradictory
    pinning or zero budgets).  [options] defaults to
    {!default_search_options}.

    [incremental] (default [true]) makes each bracket/bisection step
    reuse the previous one: the last feasible tier assignment seeds
    the next solve's incumbent, and the root LP basis is carried
    across the rescaled instances.  On any instance a step solves to
    completion, reuse cannot change the feasibility verdict — warm
    starts are performance hints only.  When a step instead dies on
    [options]' node or time budget, a warm-started solve may prove
    feasibility inside a budget the cold solve exhausts, so on
    budget-bound instances the incremental search can find a
    ({e genuinely feasible}) rate the cold search misses — never the
    other way around.  Pass [false] to measure the cold baseline.

    [initial_tiers] and [root_basis] pre-seed the incremental state
    from a completed solve of the same placement structure at another
    rate — {!Service}'s near-repeat warm start.  Both are performance
    hints with the same caveats as [incremental] itself. *)
