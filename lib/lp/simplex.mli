(** Two-phase primal simplex — plus a dual simplex phase for
    warm-started re-solves — for linear programs with bounded
    variables.

    The implementation is a dense-tableau bounded-variable simplex:
    nonbasic variables rest at either bound, the ratio test allows
    bound flips, and phase 1 drives a full set of artificial variables
    to zero.  Dantzig pricing is used with a Bland's-rule fallback
    after a run of degenerate pivots, which guarantees termination.

    Branch & bound never calls this engine directly: its LPs run on
    the sparse revised simplex ({!Sparse}).  The tableau has two jobs.
    It is {!Sparse}'s verified fallback when the sparse path declines
    a solve, and it is the reference the tests and the
    [lp-certificate] fuzz oracle hold the sparse engine to.  The two
    must agree on every optimum.

    {!solve_warm} additionally accepts a {!Basis.t} snapshot from a
    previous solve of a structurally identical problem: the basis is
    refactorised against the current coefficients and bounds, a
    bounded-variable {e dual} simplex repairs primal infeasibility
    (typically a handful of pivots after a single bound change, as in
    branch & bound), and a final primal pass mops up any residual dual
    infeasibility.  Whenever the warm path cannot be trusted —
    dimension mismatch, singular basis, numerically marginal dual
    pivot, or a post-solve feasibility check failure — it falls back
    to the cold two-phase solve, so warm starts never change results,
    only the work needed to reach them.  See DESIGN.md §10. *)

type options = {
  max_pivots : int;  (** total pivot budget across all phases *)
  feas_tol : float;  (** feasibility / integrality of the basis *)
  cost_tol : float;  (** reduced-cost optimality tolerance *)
  degen_window : int;
      (** consecutive non-improving pivots before switching to Bland *)
}

val default_options : options

val solve :
  ?options:options ->
  ?lo:float array ->
  ?hi:float array ->
  Problem.t ->
  Solution.status
(** [solve p] ignores integrality markers and solves the LP
    relaxation.  [lo] / [hi], when given, override the problem's
    variable bounds without mutating it (used by {!Brute}).
    Overriding arrays must have length [Problem.n_vars p]. *)

type result = {
  status : Solution.status;
  basis : Basis.t option;
      (** the optimal basis, present exactly when [status] is
          [Optimal]; feed it back as [?warm] to re-solve after a bound
          change or a uniform coefficient rescale *)
  pivots : int;  (** simplex pivots spent, all phases combined *)
  warm_used : bool;
      (** the supplied warm basis was accepted (the result may still
          have required a cold fallback afterwards — in that case this
          is [false] again) *)
}

val solve_warm :
  ?options:options ->
  ?warm:Basis.t ->
  ?lo:float array ->
  ?hi:float array ->
  Problem.t ->
  result
(** Like {!solve} but instrumented: returns the final basis alongside
    the solution and the pivot count, and optionally starts warm from
    [warm] (snapshot refactorisation, dual repair, primal cleanup).
    When the warm start cannot be trusted the solve falls through to
    the cold two-phase solve, so warm starts never change results. *)

(** {1 Pivot accounting}

    A process-wide pivot counter, accumulated by every solve; the LP
    micro-benchmark reads deltas around whole branch & bound trees and
    rate searches to quantify the warm-start win. *)

val cumulative_pivots : unit -> int
val reset_cumulative_pivots : unit -> unit

val add_pivots : int -> unit
(** Credit externally-performed pivots (the sparse revised simplex
    reports through the same counter).  Atomic: safe from the
    placement service's shard domains. *)
