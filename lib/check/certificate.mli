(** LP optimality certificates.

    {!Lp.Simplex.solve} and {!Lp.Sparse.solve_warm} return, alongside
    an [Optimal] solution, the final simplex {!Lp.Basis.t}.  That pair
    is a checkable certificate: rebuilding the (unscaled) augmented
    equality system [A z = b] — structural columns, one slack per
    inequality in constraint order ([Le] +1, [Ge] -1), one artificial
    per row — and solving [B^T y = c_B] for the dual prices recovers
    everything optimality requires:

    - primal feasibility: bounds, constraint rows, slack signs;
    - the recorded nonbasic columns actually rest at their recorded
      bounds at the claimed point;
    - dual feasibility: reduced costs [d_j = c_j - y . A_j] are
      [>= 0] at lower bounds and [<= 0] at upper bounds (minimisation
      space; fixed columns such as artificials are exempt);
    - complementary slackness / zero duality gap:
      [c . z = y . b + sum_j d_j z_j].

    Internal row equilibration and sign flips in the solver do not
    disturb any of this: they rescale the basis matrix by a
    nonsingular diagonal, so basis validity and the certificate's
    conclusions are unchanged in unscaled space.

    The checker is deliberately independent of the solver: dense
    Gaussian elimination with partial pivoting, no tableau reuse. *)

type verdict = Valid | Invalid of string list

val pp_verdict : Format.formatter -> verdict -> unit

val check :
  ?tol:float ->
  ?lo:float array ->
  ?hi:float array ->
  Lp.Problem.t ->
  Lp.Solution.t ->
  Lp.Basis.t ->
  verdict
(** [check p sol basis] certifies that [sol] is an optimal vertex of
    the LP relaxation of [p] with basis [basis].  [lo]/[hi] override
    the problem's bounds exactly as in {!Lp.Simplex.solve}; [tol]
    (default [1e-6]) is scaled internally by row/objective magnitude.
    Every violated condition contributes one message to [Invalid]. *)

val check_result :
  ?tol:float ->
  ?lo:float array ->
  ?hi:float array ->
  Lp.Problem.t ->
  Lp.Simplex.result ->
  verdict
(** Certify a {!Lp.Simplex.solve} or {!Lp.Sparse.solve_warm} result
    (both engines record one column layout): [Optimal] results must
    carry a basis and pass {!check}; an [Optimal] without a basis is
    itself [Invalid].  [Infeasible] / [Unbounded] / [Iteration_limit]
    results are accepted as-is (no certificate is available for
    them — the fuzz oracles cross-check those statuses by other
    means). *)
