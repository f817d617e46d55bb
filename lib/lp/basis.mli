(** Simplex basis snapshots: the information needed to warm-start a
    bounded-variable simplex re-solve on the sparse engine (see
    {!Sparse.solve_warm}).

    A snapshot records, for the tableau of a particular problem
    instance, which column is basic in each row and at which bound
    every nonbasic column rests.  Both engines record them in one
    column layout, so a basis from the dense {!Simplex.solve} seeds a
    sparse warm start as well as a sparse one does.  It is valid for
    any problem with the same constraint/column structure — in
    particular for the same problem under different variable bounds
    (branch & bound children) or with uniformly rescaled coefficients
    (rate-search steps): the restoring solver refactorises the basis
    against the current coefficients, so only the {e structure} must
    match. *)

type cstat = At_lower | At_upper | Basic

type t = {
  rows : int array;  (** row index -> column basic in that row *)
  stat : cstat array;
      (** per tableau column (structural + slack + artificial) *)
}

val compatible : t -> rows:int -> cols:int -> bool
(** Whether the snapshot can seed a tableau of [rows] x [cols]:
    dimensions match and every recorded basic column is in range. *)

val equal : t -> t -> bool
(** Structural equality: same basic column per row and same resting
    bound per column.  Two equal snapshots warm-start a re-solve
    identically, so caches (the placement service) may replace one
    with the other. *)
