(** Flat open-addressing hash table from non-negative ints to
    non-negative ints.

    Replaces the tuple-keyed [Hashtbl]s on the testbed hot path:
    callers pack [(node, mid, attempt)] triples into a single
    non-negative int key, and values are either small counters or slot
    indices into preallocated pools — so lookups allocate nothing and
    never box.

    Linear probing with tombstones; the table rehashes at ~3/4 load,
    doubling when at least half the slots are live and otherwise
    purging tombstones at the same size.  A key starts probing at the
    top [log2 m] bits of [k * 0x2545F4914F6CDD1D] (63-bit product, [m]
    slots): the low bits of a packed key are its least significant
    field (the transport attempt of a [(node, mid, attempt)] pack),
    and the product's low bits depend on nothing else.
    Absence is signalled in-band: {!get} returns [-1], which is safe
    because every stored value is [>= 0]. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] is rounded up to a power of two (default 16). *)

val length : t -> int
(** Number of live bindings. *)

val get : t -> int -> int
(** [get t k] is the value bound to [k], or [-1] when absent. *)

val mem : t -> int -> bool

val set : t -> int -> int -> unit
(** [set t k v] binds [k] to [v], replacing any previous binding.
    @raise Invalid_argument when [k < 0] or [v < 0]. *)

val remove : t -> int -> unit
(** No-op when [k] is absent. *)

val clear : t -> unit
(** Drops all bindings, keeping the allocated capacity. *)

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a

val start_slot : t -> int -> int
(** [start_slot t k] is the slot where a probe for [k] starts in [t]'s
    current array.  Exposed for tests of the hash's spread. *)
