(** Basis factorisation for the sparse revised simplex.

    Maintains a sparse LU factorisation [B = L U] with Forrest–Tomlin
    updates between refactorisations.  {!factorize} builds L and U
    from scratch for an arbitrary basis: column singletons are peeled
    symbolically (the near-triangular part of a network-flow-like
    basis, which is almost all of it), and the small residual bump is
    pivoted numerically with a Markowitz-style rule — among rows whose
    magnitude is within a fixed fraction of the column maximum, prefer
    the sparsest row.  {!update} performs one Forrest–Tomlin update
    per simplex pivot: the entering column's spike [U w] replaces the
    leaving column of U, the leaving position is rotated to the back,
    and the exposed row is eliminated into a compact row eta.  A
    refactorisation is {e stability-triggered}: {!needs_refresh} fires
    when an update produced a dangerously small new diagonal (relative
    to its spike) rather than on a fixed update count, with a generous
    cost/size cap as backstop.

    L-eta, U-column and row-eta values live in [Bigarray] float64
    pools so the hot {!ftran}/{!btran} kernels run over flat unboxed
    memory.  The row permutation is kept implicit: position [p] of U
    pivots row [porder.(p)], so no vectors are ever physically
    permuted. *)

type t

val create : m:int -> t
(** Workspace for bases with [m] rows.  All pools grow on demand. *)

val set_identity : t -> unit
(** Reset to [B = I] (the all-artificial start): empty L, identity U. *)

val factorize :
  t -> basis:int array -> ptr:int array -> idx:int array -> vs:float array ->
  bool
(** [factorize f ~basis ~ptr ~idx ~vs] rebuilds the factorisation for
    the basis formed by columns [basis] of the CSC matrix
    ([ptr]/[idx]/[vs], column [j] spanning [ptr.(j) .. ptr.(j+1)-1]).
    [basis] is treated as a {e set}: on success it is permuted in
    place so that [basis.(r)] is the column pivoted at row [r] — the
    caller must rebuild its row map and basic values afterwards.
    Returns [false] when the basis is numerically singular (the
    factorisation is reset to identity; fall back to a cold or dense
    solve). *)

val ftran : t -> float array -> unit
(** [ftran f x] overwrites the dense vector [x] with [B^-1 x]. *)

val btran : t -> float array -> unit
(** [btran f y] overwrites the dense vector [y] with [B^-T y]. *)

val update : t -> w:float array -> r:int -> unit
(** [update f ~w ~r] performs the Forrest–Tomlin update for a simplex
    pivot: entering column with FTRAN image [w] replaces the basic
    variable of row [r].  [w.(r)] must be the (nonzero) pivot element;
    the caller is responsible for rejecting numerically marginal
    pivots first.  If the update leaves a new diagonal that is tiny
    relative to its spike, the factorisation is flagged unstable and
    {!needs_refresh} returns [true]; the caller should refactorise
    before relying on further solves. *)

val needs_refresh : t -> bool
(** The stability trigger: [true] after an {!update} produced a
    numerically marginal diagonal, or when the accumulated update
    count / fill passes a generous cost cap.  Callers refactorise
    (and rebuild their right-hand side) when this fires. *)

val ft_entries : t -> int
(** Row-eta entries accumulated by {!update} since the last
    refactorisation (diagnostic). *)

type snapshot
(** A saved copy of a factorisation's L/U/eta state.  Saving right
    after {!factorize} and restoring later replays the {e identical}
    factorisation without redoing the symbolic and numeric work —
    an O(entries) blit instead of an O(flops) rebuild.  The branch &
    bound warm path uses this to solve both children of a node from
    the same parent basis with a single refactorisation. *)

val snapshot_create : m:int -> snapshot
(** An empty snapshot buffer for bases with [m] rows; buffers grow on
    demand across {!save} calls. *)

val save : t -> snapshot -> unit
(** Copy the current factorisation state into the snapshot buffer. *)

val restore : snapshot -> t -> unit
(** Overwrite [t]'s factorisation state from the snapshot.  [t] must
    have the same [m] the snapshot was saved from.  Scratch state
    (generation stamps) is untouched, so a restore is safe at any
    point between solves. *)
