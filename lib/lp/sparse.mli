(** Sparse revised simplex for the partitioning hot path, and the only
    LP engine {!Branch_bound} calls.

    The partition ILPs are near-network-flow: 2-3 nonzeros in almost
    every row.  The dense tableau in {!Simplex} pays O(rows x cols)
    per pivot regardless; this solver stores the constraint matrix
    once in compressed sparse column form (built by {!of_problem} in
    two passes over the rows, at a cost of about its nonzeros, and
    no second copy of the rows: the post-solve check reads the
    {!Problem.t}'s own term arrays), keeps
    the basis as a sparse LU factorisation with Forrest–Tomlin updates
    ({!Factor}, refreshed when an update turns numerically marginal
    rather than on a fixed cadence), and so pays O(nnz) per pivot.  Pricing is
    devex: reference-framework weights pick the steepest scaled
    reduced cost, and the BTRAN of the pivot row that feeds the weight
    update also updates the duals incrementally, so no pivot pays a
    BTRAN of the basic costs.  After {!Simplex.degen_window}
    degenerate pivots it falls back to Bland's rule, as the dense
    tableau does; every tolerance is a {!Simplex} constant.

    This is the one warm-start path.  A solve may start from a
    {!Basis.t} snapshot of a structurally identical problem: the basis
    is refactorised against the current coefficients and bounds, a
    bounded-variable {e dual} simplex repairs primal infeasibility
    (typically a handful of pivots after one bound change, as in
    branch & bound), and a primal pass mops up.  Cold solves share
    {!Simplex.solve}'s column layout (structural, slack, artificial)
    and row equilibration, so a basis recorded by either engine
    warm-starts this one, but not its start.  Phase 1 starts from a
    crash basis built from the LP alone: every inequality row on its
    slack, every equality row on its artificial, and each movable
    structural column that holds the negative entry of a precedence
    row (an inequality with two structural entries of opposite sign,
    such as the placement encodings' [dir] and chain level rows) basic
    in the first such row instead of that row's slack.  Over
    precedence rows that follow a DAG this basis is triangular, a
    spanning forest as in network simplex, so it factorises without
    fill and one pivot at a cut edge moves a whole subtree: the EEG
    chains' cold roots take 2–4 pivots where the all-artificial start
    took 616–967.  A row gets a phase-1 artificial only when its slack
    starts negative.  Phase 1 starts from the all-artificial basis
    instead when the crash basis is singular (a crashed cycle) or puts
    a crashed column outside its bounds.  It also reruns from there
    when phase 1 from the crash ends infeasible by a residual small
    enough to spread over every row within the row check's tolerance:
    only a phase 1 that measures every row, as the dense engine's
    does, can tell such a point from a feasible one.  Whenever the
    sparse path cannot be trusted (singular basis, marginal dual
    pivot, post-solve feasibility breach) the solve falls down a
    ladder: sparse warm, then sparse cold, then a dense cold
    {!Simplex.solve} with the remaining pivot budget.  Neither the
    start nor the rung changes an optimal value, only the work to
    reach it; where optimal vertices tie, they decide which one comes
    back.  See DESIGN.md §14–15. *)

type data
(** A problem compiled to CSC form.  It keeps no second copy of the
    rows: the post-solve check ({!Simplex.violated}) reads them from
    the {!Problem.t} itself.  Immutable once built; safe to share
    across domains (the problem's accessor caches are forced at build
    time, so no read path fills one). *)

val of_problem : Problem.t -> data
(** Compile a problem: one pass over the rows' term arrays sums
    duplicate terms in term order, equilibrates each row and counts
    every column's entries, a second scatters them, so each column
    lists its rows in increasing order.  Nothing is consed per
    entry. *)

type session
(** A reusable solve workspace bound to one {!data}: the per-solve
    state arrays, the shifted right-hand side included, plus a
    snapshot of the most recent warm-start factorisation, keyed by its
    basis.  Every {!solve_warm} runs in a session: a call without one
    opens a fresh one, so a caller that solves the same {!data} more
    than once should keep its own.  With a kept session,
    {!solve_warm} allocates no workspace, warm or cold: a cold solve
    resets the session's state in place and leaves its snapshot as it
    is.  It still allocates the point and the basis it returns, which
    for a large model start in the major heap.  When the requested warm
    basis matches the snapshotted one (as a column set — bounds may
    differ) the refactorisation is skipped and the byte-identical
    factorisation restored, which is the common case for the second
    child of every branch & bound node.  A session is single-domain:
    never share one across threads.  Results are bit-identical with
    and without a session. *)

val session : data -> session

val solve_warm :
  ?options:Simplex.options ->
  ?warm:Basis.t ->
  ?lo:float array ->
  ?hi:float array ->
  ?session:session ->
  data ->
  Simplex.result
(** Solve the LP relaxation of the compiled problem, starting warm
    from [warm] when it is given.  [lo] / [hi] override the bounds as
    in {!Simplex.solve}.  A warm start refactorises the basis
    snapshot.  That is not free.  Over the
    [compile] benchmark's solves the refactorisation (factorise, then
    basic values and duals) takes 23 % of [solve_warm] time and the
    dual repair 19 %;
    primal cleanup takes 10 %, warm re-initialisation, point and
    basis extraction and snapshot restore 6–7 % each, the
    feasibility check 4 % and the snapshot save 3 %, and cold root
    solves the rest (timed around each phase in an instrumented
    build on a 2-vCPU Xeon VM; DESIGN.md §15).  A ring of the last
    nodes' final factors cut eeg22 ×0.92699's refactorisations from
    252 to 49 but did not lower the [compile] benchmark's pass time
    (ROADMAP.md).

    [warm_used] reports whether the supplied basis survived the sparse
    warm start; [pivots] counts sparse and (rare) dense-fallback pivots
    together, and each solve adds it once to {!counters}' [pivots]. *)

val dense_fallbacks : unit -> int
(** Process-wide count of solves that ended on the dense fallback
    path; tests read deltas to assert the sparse path actually ran. *)

type counters = {
  pivots : int;
  refactorisations : int;
  ft_updates : int;
  ft_entries : int;
}
(** Process-wide solver work: simplex pivots (dense-fallback pivots
    included), basis refactorisations, Forrest–Tomlin updates applied,
    and row-eta entries appended by those updates.  The counters only
    grow; benchmarks, tests and the verbose CLI report read deltas
    around a solve to track the pivot/refactorisation trajectory. *)

val counters : unit -> counters
