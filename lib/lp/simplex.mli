(** Two-phase primal simplex for linear programs with bounded
    variables: the cold reference engine.

    The implementation is a dense-tableau bounded-variable simplex:
    nonbasic variables rest at either bound, the ratio test allows
    bound flips, and phase 1 drives a full set of artificial variables
    to zero.  Dantzig pricing is used with a Bland's-rule fallback
    after a run of degenerate pivots, which guarantees termination.

    Branch & bound never calls this engine directly: its LPs run on
    the sparse revised simplex ({!Sparse}), the one warm-start path.
    The tableau has two jobs, and both are cold solves.  It is the last
    rung of {!Sparse}'s fallback ladder when the sparse path declines a
    solve, and it is the reference the tests, {!Brute} and the
    [lp-certificate] fuzz oracle hold the sparse engine to.  The two
    must agree on every optimum, and the optimal basis {!solve}
    returns warm-starts the sparse engine.  See DESIGN.md §10. *)

type options = {
  max_pivots : int;  (** total pivot budget across all phases *)
  feas_tol : float;  (** feasibility / integrality of the basis *)
  cost_tol : float;  (** reduced-cost optimality tolerance *)
  degen_window : int;
      (** consecutive non-improving pivots before switching to Bland *)
}

val default_options : options

type result = {
  status : Solution.status;
  basis : Basis.t option;
      (** the optimal basis, present exactly when [status] is
          [Optimal]; feed it to {!Sparse.solve_warm} as [?warm] to
          re-solve after a bound change or a uniform coefficient
          rescale *)
  pivots : int;  (** simplex pivots spent, all phases combined *)
  warm_used : bool;
      (** {!Sparse.solve_warm} answered from the supplied warm basis,
          with no cold fallback; always [false] from {!solve} *)
}

val solve :
  ?options:options ->
  ?lo:float array ->
  ?hi:float array ->
  Problem.t ->
  result
(** [solve p] ignores integrality markers and solves the LP
    relaxation cold, returning the optimal basis alongside the
    solution and the pivot count.  Callers that only want the status
    take [.status].  [lo] / [hi], when given, override the problem's
    variable bounds without mutating it (used by {!Brute}).
    Overriding arrays must have length [Problem.n_vars p]. *)
