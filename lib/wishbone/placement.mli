(** The generic placement core: one assignment ILP over a tier graph.

    The paper states its ILP for a single node/server cut (§4.2.1) and
    sketches multi-node and mixed deployments (§4.2.2, §9).  This
    module is the single encoder behind all of them: platforms are the
    vertices of a rooted {e tier tree} ({!Topology.t}) — tier 0 is an
    embedded node, the last tier the central server at the root — each
    with a CPU budget, and each non-root tier has an {e uplink} with
    its own bandwidth budget and per-byte objective weight.  The
    historical tier {e chain} is the single-child degenerate case and
    stays byte-identical through this encoder.  The paper's two-way
    cut ({!of_spec}), profiled tier chains and trees ({!of_platforms})
    and mixed networks ({!Mixed}) are all instances of {!solve}.

    The encoding generalises the paper's two formulations with {e
    subtree-membership} variables: each supernode [s] carries binaries
    [d_k(s)] ("[s] sits in the subtree below tree edge [k]", i.e. tier
    [k] or one of its descendants) for each non-root tier [k].  For a
    chain of [P] tiers this is exactly the historical level variable
    "[s] sits at tier [<= k]", ordered [d_k <= d_(k+1)]; in a tree the
    ordering becomes [d_uplink(p) >= sum_children(p) d_c] per tier.
    Tier [p]'s CPU load is [sum cpu_p(s) (d_uplink(p) -
    sum_children(p) d_c)] and tree edge [k] is crossed by a dataflow
    edge exactly when [d_k] differs across it — one network row {e per
    tree edge} (DESIGN.md §18).  With [P = 2] this is byte-for-byte
    the §4.2.1 ILP ([d_0 = f]); with a 3-chain it is the two-level
    [x <= y] encoding of §9's mote/microserver/server tiers. *)

(** {!General} is the bidirectional eqs. (1)–(5) formulation (two
    continuous crossing variables per edge and link); {!Restricted}
    the single-crossing eqs. (6)–(7) form (monotone tier descent along
    every edge, no crossing variables). *)
type encoding = General | Restricted

(** Rooted tier trees.  Tiers are numbered so that every tier's parent
    has a strictly larger index (topological numbering); the last tier
    is the root.  Tree edge [k] is the {e uplink} of non-root tier
    [k], so a chain keeps the historical link numbering (link [k]
    connects tiers [k] and [k+1]) and tier 0 is always a leaf. *)
module Topology : sig
  type t

  val of_parents : int array -> t
  (** Build from a parent array: [parents.(k)] is the parent tier of
      [k], [> k] for every non-root tier; the last entry (the root)
      must be [-1].
      @raise Invalid_argument otherwise. *)

  val chain : int -> t
  (** [chain n]: the degenerate [n]-tier chain [0 - 1 - ... - n-1]. *)

  val n_tiers : t -> int
  val root : t -> int
  val parent : t -> int -> int  (** [-1] for the root *)

  val parents : t -> int array  (** a fresh copy of the parent array *)

  val children : t -> int -> int list  (** ascending tier order *)

  val is_chain : t -> bool
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

(** An additional per-operator resource (RAM, code storage) consumed
    only by tier-0 residents — §4.2.1's optional rows. *)
type resource = {
  rname : string;
  per_op : float array;  (** indexed by original operator id *)
  budget : float;
}

type tier = {
  tname : string;
  cpu : float array;
      (** per original operator: CPU fraction consumed when the
          operator runs on this tier.  Tier 0's array must equal the
          spec's [cpu] (it is what {!Preprocess} contracts over). *)
  cpu_budget : float;  (** [infinity] = unbudgeted: no ILP row *)
  alpha : float;  (** objective weight of this tier's CPU load *)
}

type link = {
  lname : string;
  net_budget : float;  (** bytes/s, [infinity] = unbudgeted *)
  beta : float;  (** objective weight per cut byte on this link *)
}

type t = {
  spec : Spec.t;
      (** the tier-0 problem: graph, placement pins, tier-0 CPU costs,
          edge bandwidths.  The spec's own budgets and objective
          weights are {e not} read — tiers and links carry them. *)
  tiers : tier array;  (** node-most first, central server (root) last *)
  links : link array;
      (** [links.(k)] is the uplink of non-root tier [k] towards
          [Topology.parent topology k]; for a chain it connects tiers
          [k] and [k+1] as it always did *)
  topology : Topology.t;
  tier_pins : int option array;
      (** per original operator: [Some p] forces the operator onto
          tier [p], overriding its {!Movable} classification *)
}

val v :
  ?topology:Topology.t ->
  ?pins:(int * int) list ->
  spec:Spec.t ->
  tiers:tier list ->
  links:link list ->
  unit ->
  t
(** Validating constructor: at least two tiers, [links] one shorter
    than [tiers] (one uplink per non-root tier), every cost array as
    long as the operator count, and tier 0's costs equal to the
    spec's.  [topology] defaults to the chain over the given tiers;
    when present its tier count must match.  [pins] is a list of
    [(operator, tier)] pairs; a tier pin overrides the operator's
    {!Movable} classification (e.g. a sensor source pinned onto a
    {e different} leaf tier of a tree) and disables supernode
    contraction in {!solve}.
    @raise Invalid_argument otherwise. *)

val of_spec : Spec.t -> t
(** The classic two-way instance: tier 0 is the node (the spec's CPU
    costs, budget and [alpha]), tier 1 an unbudgeted server, and the
    single link carries the spec's network budget and [beta].
    [solve (of_spec spec)] is the paper's §4.2.1 ILP, and its report's
    [tier_cpu.(0)], [link_net.(0)] and [objective] are bit-identical
    to {!Spec.cut_stats} and {!Spec.objective_value} on the node-side
    assignment (same sums in the same order). *)

val of_platforms :
  ?parents:int array ->
  Spec.t ->
  Profiler.Profile.raw ->
  Profiler.Platform.t list ->
  t
(** [of_platforms spec raw plats]: a profiled tier chain or tree over
    [plats], node-most first.  [spec] (built for the first platform)
    is tier 0; each further platform is a tier with its CPU costs from
    [raw] and its own CPU budget; an unbudgeted central server is
    appended as the root.  Tier 0's uplink carries the spec's network
    budget and [beta]; every further tier's uplink its platform's
    radio budget, weighted [beta * 0.3^h] where [h] is the tier's
    height above the leaves (a 0.3 fall-off per hop on a chain).

    Without [parents] the tiers form a chain named after their
    platforms, and a single platform is exactly [of_spec spec].
    [parents] (one entry per platform, then [-1] for the server; see
    {!Topology.of_parents}) builds a tree whose tiers are named
    [PLAT#k].  The names are part of {!Service.instance_key}.
    @raise Invalid_argument on an empty list or a bad parent array. *)

val n_tiers : t -> int

val scale_rate : t -> float -> t
(** Scale every CPU cost and edge bandwidth by a factor — the §4.3
    data-rate free variable, across all tiers. *)

(** A built (not yet solved) ILP instance. *)
type encoded = {
  problem : Lp.Problem.t;
  level_var : int array array;
      (** [level_var.(k).(s)]: the [d_k] binary of supernode [s], or
          [-1] for every [s] when tier [k] was pruned as unreachable
          (see {!encode}); such a [d_k] is 0 *)
  edge_vars : (int * int * int * int * int) array;
      (** [General] only: (link, src supernode, dst supernode, e, e')
          crossing-variable pairs; empty for [Restricted] *)
  encoding : encoding;
  topology : Topology.t;  (** the tier tree the instance was built over *)
}

val encode :
  ?resources:resource list -> encoding -> t -> Preprocess.contracted -> encoded
(** Build the ILP over a contraction of [t.spec].  Variable and
    constraint order is deterministic: level variables
    ([k]-major, supernode-minor), then per-supernode level ordering,
    budgeted tier CPU rows, per-edge rows (crossing variables created
    in place under [General]), link bandwidth rows, resource rows.
    With two tiers this is the paper's §4.2.1 problem, variable for
    variable and row for row.

    Under [Restricted], when every supernode is pinned or downstream
    of a pinned one and no budget is negative, only {e live} tiers are
    encoded: the tiers on the root path of tier 0 or of some
    supernode's pin tier.  No operator can sit anywhere else, because
    eq. (6) forces [d_k(v) <= d_k(u)] along every edge, so the dropped
    variables are 0 at every LP-feasible point and the relaxation,
    optimum and feasibility are unchanged (DESIGN.md §18).  A chain
    keeps every tier; [General] never prunes.
    @raise Invalid_argument when a resource array has the wrong
    length. *)

val tiers_of_solution :
  encoded -> Preprocess.contracted -> Lp.Solution.t -> int array
(** Per-original-operator tier indices from a solved instance. *)

val stats : t -> tier_of:int array -> float array * float array
(** [(tier_cpu, link_net)] of an assignment: per-tier CPU load and
    per-link cut bandwidth (an edge loads tree edge [k] when exactly
    one endpoint lies in the subtree below [k]; for a chain, when its
    endpoints straddle the [k]/[k+1] boundary). *)

val objective_value : t -> tier_of:int array -> float
(** [sum_p alpha_p * tier_cpu_p + sum_k beta_k * link_net_k]. *)

val feasible : ?require_monotone:bool -> t -> tier_of:int array -> bool
(** Pins (including tier pins) respected, budgeted tiers and links
    within their budgets (with the same numeric slack {!Spec.feasible}
    uses), and — by default — every dataflow edge runs rootward: the
    destination tier is the source tier or one of its ancestors (the
    single-crossing restriction, per tree edge; [src <= dst] on a
    chain).  Pass [~require_monotone:false] for {!General}
    solutions.  An assignment of the wrong length or with a tier
    outside [\[0, n_tiers)] is infeasible. *)

type report = {
  tier_of : int array;  (** per original operator *)
  tier_cpu : float array;
  link_net : float array;
  objective : float;
  solver : Lp.Branch_bound.stats;
  supernodes : int;
  movable_supernodes : int;
  encoding : encoding;
  preprocessed : bool;
}

type outcome =
  | Partitioned of report
  | No_feasible_partition
  | Solver_failure of string

val solve :
  ?encoding:encoding ->
  ?preprocess:bool ->
  ?options:Lp.Branch_bound.options ->
  ?resources:resource list ->
  ?initial:int array ->
  ?root_basis:Lp.Basis.t ->
  t ->
  outcome
(** Contract (under [Restricted] with no tier pins; the dominance
    argument behind {!Preprocess.contract} needs monotone descent, so
    [General] solves the uncontracted graph — the PR 2 fuzz finding,
    preserved here — and a merged supernode cannot honor a pin on one
    member only, so tier pins also disable contraction),
    encode, branch & bound, verify the returned assignment against
    {!feasible}, and expand to original operators.  [initial] (a
    per-original-operator tier assignment) seeds the incumbent and
    [root_basis] warm-starts the root relaxation — the PR 1 machinery.
    Both are hints that change work, not answers: an [initial] that
    fails {!feasible} on [t] is dropped, since branch & bound would
    accept it within its row tolerance and could prune the true
    optimum.

    Every encoding, whatever its size, is solved by branch & bound on
    the sparse revised simplex (DESIGN.md §14).  Where several
    assignments tie at the optimum, which one is returned is fixed per
    build but can depend on search order. *)

val ops_on : report -> int -> int list
(** Original operator ids the report places on a tier, ascending. *)

val pp_report : Dataflow.Graph.t -> t -> Format.formatter -> report -> unit
