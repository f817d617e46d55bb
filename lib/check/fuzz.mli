(** The randomized fuzz driver behind [bin/fuzz] and the [@fuzz] dune
    alias.

    Every case derives its own PRNG seed deterministically from
    [(seed, case index)], and each oracle check is a pure function of
    the generated instance plus that case seed — so any failure
    replays exactly with [--seed S --start I --count 1], and the
    shrinker can re-evaluate the failing predicate as often as it
    likes. *)

type oracle =
  | Lp_certificate
  | Ilp_brute
  | Cut_enumeration
  | Split_equivalence
  | Degradation
      (** shedding split execution loses subtractively, never corrupts *)
  | Placement_equivalence
      (** the generic placement core agrees with the dedicated two- and
          three-tier enumerations ("placement" is a CLI alias) *)
  | Service_equivalence
      (** the fleet placement service replays, warm-starts and shards
          byte-identically to the direct solve path ("service" is a
          CLI alias) *)
  | Degraded_soundness
      (** budget-degraded answers are feasible, gap-certified and
          bracket the brute-force optimum; budget = infinity is
          byte-identical to the unbudgeted path ("degraded" is a CLI
          alias) *)
  | Tree_equivalence
      (** tree-topology placement agrees with brute-force enumeration
          over random tier trees, and a chain expressed as a
          degenerate tree encodes the byte-identical ILP ("tree" is a
          CLI alias) *)
  | Sched_equivalence
      (** the timing-wheel event scheduler pops random push/pop traces
          exactly as the reference (time, push sequence) scheduler,
          and a random testbed fleet lands on the bit-identical result
          under simulation domains 1 and 2 ("sched" is a CLI alias) *)

val all_oracles : oracle list
val oracle_name : oracle -> string
val oracle_of_name : string -> oracle option

type config = {
  seed : int;
  count : int;  (** cases per oracle *)
  start : int;  (** index of the first case (for replaying one case) *)
  size : int;  (** approximate instance size (operators / variables) *)
  oracles : oracle list;
  shrink : bool;  (** minimise failing cases before reporting *)
  verbose : bool;
}

val default : config
(** seed 42, 100 cases from 0, size 8, all oracles, shrinking on. *)

type failure = {
  oracle : oracle;
  case : int;  (** absolute case index — feed back via [start] *)
  case_seed : int;
  message : string;  (** the original failure *)
  reproducer : string;  (** rendered minimal instance *)
  replay : string;  (** command line that replays this case *)
}

type summary = { cases_run : int; failures : failure list }

val run : ?out:Format.formatter -> config -> summary
(** Runs [count] cases of every configured oracle.  Progress and
    failures go to [out] (default a null formatter; the CLI passes
    stderr). *)

val all_passed : summary -> bool
val pp_summary : Format.formatter -> summary -> unit
