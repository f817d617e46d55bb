(** Best-first branch & bound for mixed-integer linear programs, with
    warm-started LP re-solves.

    Every LP relaxation is solved by the sparse revised simplex
    ({!Sparse}); open nodes are kept in a min-heap ordered by
    relaxation bound so the most promising subtree is explored first
    (this mirrors how [lp_solve]'s branch-and-bound behaves on the
    Wishbone formulations and lets us reproduce the paper's Figure 6
    "time to discover" vs "time to prove" distinction).

    Each node stores the optimal basis of its LP relaxation, and both
    children re-solve from it: the basis is refactorised and a few
    dual pivots repair the one bound change.  One reusable
    {!Sparse.session} serves the whole tree, so the second child
    restores the factorisation the first child built instead of
    refactorising again.  Disable with [warm_start = false] to measure
    the difference (see [bench/lp_micro.ml]).

    The search is sequential, so the returned point and every
    statistic except wall-clock time are the same on every run of a
    build.  Among the integer leaves the search reaches with
    numerically tied objectives, the lexicographically smallest point
    is kept.  A subtree whose bound only ties the incumbent is pruned
    unexplored, so which of several tied optima is returned can depend
    on the order the search meets them.

    Statistics record when the final incumbent was found
    ([time_to_incumbent]) separately from when optimality was proved
    ([time_total]). *)

type options = {
  max_nodes : int;
      (** open-node exploration budget — the deterministic {e node
          budget}: it counts work units, not seconds, so a bounded
          run stops at the same node on any machine (the CLI exposes
          it as [--node-budget]) *)
  int_tol : float;  (** how close to integral a relaxed value must be *)
  gap_tol : float;
      (** terminate when (incumbent - bound) / max(1, |incumbent|)
          falls below this; [0.] demands a full proof *)
  time_limit : float;  (** wall-clock seconds; [infinity] = unlimited *)
  pivot_budget : int;
      (** tree-wide simplex pivot budget ([max_int] = unlimited).
          Checked cooperatively at every node boundary and threaded
          into each LP solve as a per-solve pivot cap, so — unlike
          [time_limit] — a budgeted run is a pure function of the
          problem: the same machine-independent answer everywhere.
          [max_int] leaves every code path bit-identical to a build
          without the budget. *)
  on_node : (nodes:int -> pivots:int -> unit) option;
      (** cooperative checkpoint, called with the deterministic node
          and cumulative-pivot counters before the root solve and
          before each node expansion.  An exception raised here
          aborts the search and propagates to the caller — the
          fault-injection hook of the placement service's
          {!Wishbone.Service.Fault_plan}.  [None] (the default) adds
          no work at all. *)
  warm_start : bool;
      (** start child LPs from the parent's optimal basis (default
          [true]; results are identical either way, only pivot counts
          differ) *)
  simplex : Simplex.options;
}

val default_options : options

type stats = {
  nodes_explored : int;
  lp_solves : int;
  hot_solves : int;
      (** always [0]: no LP solve replays a retained tableau.  Kept
          only because the repository benchmark reads it. *)
  total_pivots : int;
      (** simplex pivots summed over every LP solve of the tree *)
  time_to_incumbent : float;
      (** seconds until the returned solution was first discovered *)
  time_total : float;  (** seconds until termination (proof or budget) *)
  proved_optimal : bool;
  best_bound : float;
      (** strongest dual bound at termination, in the problem's own
          direction *)
  incumbent_trace : (float * float) list;
      (** (time, objective) for each incumbent improvement, in
          chronological order *)
  root_basis : Basis.t option;
      (** optimal basis of the root relaxation; feed it back as
          [?root_basis] when re-solving a rescaled instance of the
          same problem (rate search) *)
}

val fractional_var : int_tol:float -> int list -> float array -> int option
(** The integer variable whose value is farthest from any integer
    (ties broken towards the lowest index), or [None] when all are
    within [int_tol] of integrality.  Exposed for testing. *)

type bound_delta = {
  bvar : int;  (** branching variable *)
  bup : bool;  (** [true]: raise [lo.(bvar)]; [false]: lower [hi.(bvar)] *)
  bval : float;
}
(** Open nodes store their bounds delta-encoded: one tightened bound
    per node plus a parent reference, materialised into full arrays
    only when the node is popped for expansion. *)

val materialise :
  lo0:float array ->
  hi0:float array ->
  bound_delta list ->
  float array * float array
(** [materialise ~lo0 ~hi0 deltas] replays a root-to-leaf delta chain
    over the root bounds with plain assignments and returns the
    leaf's [(lo, hi)].  Exposed for testing the round-trip against
    eagerly maintained bound arrays. *)

val solve :
  ?options:options ->
  ?initial:float array ->
  ?root_basis:Basis.t ->
  Problem.t ->
  Solution.status * stats
(** Solves the problem honouring the [integer] markers set through
    {!Problem.add_var}.  Never mutates the problem.

    [initial], when given and feasible, seeds the incumbent before the
    search starts — a valid primal bound that prunes every subtree
    whose relaxation cannot beat it.  [root_basis] warm-starts the
    root relaxation (useful across rate-search steps, where only the
    coefficients scale).  Both are performance hints: they never
    change the returned status or objective. *)
