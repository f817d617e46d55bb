(** Reference implementations for the fuzz oracles.

    The brute forces enumerate assignments directly and judge them
    with code that shares nothing with {!Wishbone.Placement.encode} or
    the branch & bound, so the [placement-equivalence] and
    [degraded-soundness] oracles (and the hand-checked tests) compare
    the ILP against an independent answer.  The event scheduler plays
    the same role for the simulator's timing wheel. *)

val two_tier_brute_force :
  ?resources:Wishbone.Placement.resource list ->
  ?single_crossing:bool ->
  Wishbone.Spec.t ->
  (bool array * float) option
(** Every assignment of the movable operators of a two-way cut,
    filtered by {!Wishbone.Spec.feasible} (single crossing unless
    [single_crossing] is [false], as the general encoding allows) and
    by {!resources_ok}, and scored by {!Wishbone.Spec.objective_value}.
    Returns the best node-side assignment and its objective, or [None]
    when none is feasible.  [resources] defaults to none.
    @raise Invalid_argument past 20 movable operators. *)

val resources_ok :
  Wishbone.Placement.resource list -> bool array -> bool
(** Whether a node-side assignment keeps every resource row within its
    budget (plus 1e-6), summed directly over the operators on the
    node. *)

val pipeline_prefix_cut : Wishbone.Spec.t -> (bool array * float) option
(** The prefix-cut oracle for linear pipelines.  On a pipeline the
    single-crossing assignments are exactly the prefixes of the
    topological order, so trying each of the O(n) cut points finds the
    optimum (the paper's §7.2: "a brute force testing of all cut
    points will suffice").  Returns the best feasible prefix cut and
    its objective, or [None] if no prefix is feasible.
    @raise Invalid_argument when the graph is not a linear pipeline. *)

val three_tier :
  ?micro_cpu_budget:float ->
  ?micro_net_budget:float ->
  ?beta_micro:float ->
  micro_cpu:float array ->
  Wishbone.Spec.t ->
  Wishbone.Placement.t
(** The §9 mote → microserver → central chain over a two-way spec (the
    mote tier) plus per-operator microserver CPU costs.  The mote tier
    and its radio take the spec's budgets with weight 1; microserver
    budgets default to unbudgeted and [beta_micro] to 0.3; every
    [alpha] is 0.
    @raise Invalid_argument when [micro_cpu] has the wrong length. *)

val three_tier_brute_force :
  Wishbone.Placement.t -> (int array * float) option
(** Every monotone tier assignment of the contracted supernodes of a
    three-tier chain (tier 0 mote, 1 microserver, 2 central), judged
    against the chain's budgets with the ILP's vacuous-budget clamp.
    Returns per-original-operator tiers of the best feasible
    assignment and its objective — the [beta_mote * mote_cut +
    beta_micro * micro_cut] the ILP minimises — or [None] when no
    assignment fits.
    @raise Invalid_argument past 12 supernodes. *)

(** {1 Event scheduler}

    The reference for the [sched-equivalence] oracle: an ordered map
    that pops the pending [(time, event)] with the least (time, push
    sequence), the order {!Netsim.Sched} documents for its timing
    wheel, or [None] when nothing is pending. *)

type sched

val sched : unit -> sched
val sched_push : sched -> float -> int -> unit
val sched_pop : sched -> (float * int) option

val sched_clear : sched -> unit
(** Drop every pending event and restart the push sequence. *)
