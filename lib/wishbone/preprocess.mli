(** Graph preprocessing (§4.1): eliminate edges that can never be
    viable cut points.

    Any data-expanding or data-neutral operator (total output
    bandwidth at least its input bandwidth) is merged with its
    downstream operators — a cut below it can always be improved by
    cutting above it.  This shrinks the search space without
    eliminating optimal solutions; on the EEG application it is what
    makes the 1412-operator ILP solvable in seconds.

    The result is a contracted multigraph of supernodes with summed
    CPU costs and aggregated inter-supernode bandwidths.  Strongly
    connected components introduced by contraction are collapsed so
    the quotient stays a DAG.  If collapsing would merge a node-pinned
    and a server-pinned supernode, preprocessing backs off to the
    identity contraction (correctness over reduction). *)

type contracted = {
  spec : Spec.t;  (** the original problem *)
  n_super : int;
  super_of : int array;  (** original op -> supernode *)
  members : int list array;  (** supernode -> original ops *)
  cpu : float array;  (** per supernode *)
  placement : Movable.placement array;  (** per supernode *)
  edges : (int * int * float) array;
      (** (src supernode, dst supernode, bytes/s), deduplicated *)
}

val identity : Spec.t -> contracted
(** One supernode per operator (preprocessing disabled). *)

val contract : Spec.t -> contracted

val reduction : contracted -> int * int
(** (original movable vertices, movable supernodes) — the search-space
    shrink achieved. *)
