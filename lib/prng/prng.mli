(** Deterministic splittable pseudo-random numbers (SplitMix64).

    All stochastic parts of the reproduction (synthetic signals, radio
    loss, CSMA backoff) draw from explicitly seeded generators so that
    every experiment is bit-reproducible. *)

type t

val create : int -> t
(** Seeded generator; equal seeds give equal streams. *)

val derive : int -> int list -> int
(** The repo-wide seed-derivation scheme: [derive root path] maps a
    root seed and a path of stream indices to an independent stream
    seed.  Each path element folds into the state as one SplitMix64
    step ([mix (state * golden + index + 1)]), so [derive s [a; b]]
    and [derive s [a'; b']] are decorrelated whenever the paths
    differ, and the scheme nests: [derive s [a; b] = derive (derive s
    [a]) [b]] does {e not} hold in general — always derive from the
    root with the full path.  Conventions: the root seed itself seeds
    a component's {e primary} stream ([create root]); auxiliary
    streams use [create (derive root path)] with a documented path.
    Users: [Check.Fuzz] derives per-case seeds as
    [derive seed [oracle_index; case]]; [Netsim.Testbed] derives its
    fault streams as [derive seed [1; k]] (see [testbed.mli]). *)

val int64 : t -> int64
val float : t -> float
(** Uniform in [0, 1). *)

val uniform : t -> float -> float -> float
(** Uniform in [lo, hi). *)

val int : t -> int -> int
(** Uniform in [0, bound); [bound] must be positive. *)

val bool : t -> float -> bool
(** [bool t p] is true with probability [p]. *)

val gaussian : t -> float
(** Standard normal via Box–Muller. *)

val exponential : t -> float -> float
(** [exponential t rate] with mean [1/rate]. *)
