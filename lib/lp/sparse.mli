(** Sparse revised simplex for the partitioning hot path, and the only
    LP engine {!Branch_bound} calls.

    The partition ILPs are near-network-flow: 2-3 nonzeros in almost
    every row.  The dense tableau in {!Simplex} pays O(rows x cols)
    per pivot regardless; this solver stores the constraint matrix
    once in compressed sparse column form (built by {!of_problem} in
    two passes over the rows, at a cost of about its nonzeros), keeps
    the basis as a sparse LU factorisation with Forrest–Tomlin updates
    ({!Factor}, refreshed when an update turns numerically marginal
    rather than on a fixed cadence), and so pays O(nnz) per pivot.  Pricing is
    devex: reference-framework weights pick the steepest scaled
    reduced cost, and the BTRAN of the pivot row that feeds the weight
    update also updates the duals incrementally, so no pivot pays a
    BTRAN of the basic costs.  After [degen_window] degenerate pivots
    it falls back to Bland's rule, as the dense tableau does.

    This is the one warm-start path.  A solve may start from a
    {!Basis.t} snapshot of a structurally identical problem: the basis
    is refactorised against the current coefficients and bounds, a
    bounded-variable {e dual} simplex repairs primal infeasibility
    (typically a handful of pivots after one bound change, as in
    branch & bound), and a primal pass mops up.  Cold solves mirror
    {!Simplex.solve}: the same column layout (structural, slack,
    artificial) and row equilibration, so a basis recorded by either
    engine warm-starts this one.  Whenever the sparse path cannot be
    trusted (singular basis, marginal dual pivot, post-solve
    feasibility breach) the solve falls down a ladder: sparse warm,
    then sparse cold, then a dense cold {!Simplex.solve} with the
    remaining pivot budget.  Results never change, only the work to
    reach them.  See DESIGN.md §14–15. *)

type data
(** A problem compiled to CSC form.  Immutable once built; safe to
    share across domains (the underlying {!Problem.t} accessor caches
    are forced at build time). *)

val of_problem : Problem.t -> data
(** Compile a problem: one pass over the rows sums duplicate terms,
    equilibrates each row and counts every column's entries, a second
    scatters them, so each column lists its rows in increasing order.
    Nothing is consed per entry. *)

type session
(** A reusable solve workspace bound to one {!data}: the per-solve
    state arrays, the shifted right-hand side included, plus a
    snapshot of the most recent warm-start factorisation, keyed by its
    basis.  With a session, {!solve_warm} allocates no workspace; it
    still allocates the point and the basis it returns, which for a
    large model start in the major heap.  When the requested warm
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
