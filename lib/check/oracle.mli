(** The ten correctness oracles behind [bin/fuzz] (DESIGN.md §11).

    Each oracle takes one generated instance and either passes or
    fails with a human-readable explanation.  All randomness is drawn
    from the caller's {!Prng.t}, so a failing case replays exactly
    from its seed. *)

type outcome = Pass | Fail of string

val lp_certificate : Prng.t -> Lp.Problem.t -> outcome
(** Solve the LP relaxation cold on the dense tableau (keeping the
    basis), certify the answer with {!Certificate.check_result}; then
    perturb one variable's bounds and re-solve three ways: dense cold,
    sparse revised simplex cold, and sparse warm-started from the
    dense basis.  All three must agree on status and, when optimal, on
    the objective — and every optimal answer must carry a valid
    certificate. *)

val ilp_brute : Lp.Problem.t -> outcome
(** Branch & bound versus exhaustive enumeration on a small all-integer
    program: statuses agree; optimal objectives match; the incumbent
    is feasible, integral, and its integer projection appears among
    {!Lp.Brute.optimal_points}.  Inconclusive solver budgets pass. *)

val cut_enumeration :
  ?resources:Wishbone.Placement.resource list -> Wishbone.Spec.t -> outcome
(** Run [Placement.solve (Placement.of_spec spec)] under all four
    configurations ([Restricted]/[General] x preprocessing on/off)
    and compare each against {!Reference.two_tier_brute_force} under
    the same resource rows, single-crossing for [Restricted] and not
    for [General].  Reported cpu/net/objective
    must match {!Wishbone.Spec.cut_stats} on the returned assignment,
    and the general optimum can never be worse than the restricted
    one.  Specs with more than 16 movable operators pass trivially. *)

val degradation : Prng.t -> Wishbone.Spec.t -> outcome
(** Execute the same injected samples through {!Runtime.Exec.full} and
    through a two-tier {!Runtime.Multirun} with a bounded, shedding
    inter-half queue (random policy, capacity and service rate) along a random
    predecessor-closed cut.  Loss must be {e subtractive, never
    corrupting}: the shedding run's sink values must form a
    sub-multiset of the lossless run's, the per-operator drop counters
    must account for every shed crossing, and when nothing was shed
    the two runs must agree exactly.  Instances that place a stateful
    operator downstream of the queue (outside conservative placement's
    guarantee) pass trivially. *)

val placement_equivalence : Prng.t -> Wishbone.Spec.t -> outcome
(** The generic {!Wishbone.Placement} core against the independent
    enumerations of {!Reference}.  Two-tier:
    [Placement.solve (Placement.of_spec spec)] must agree with
    {!Reference.two_tier_brute_force} on feasibility and optimal
    objective, its report must be internally consistent with
    {!Wishbone.Placement.stats}/[objective_value], and
    {!Wishbone.Placement.feasible} must accept the solution.
    Three-tier: a randomly synthesized microserver tier (cheaper
    per-op CPU, random budgets and uplink weight) built by
    {!Reference.three_tier} and solved by [Placement.solve] must agree
    with {!Reference.three_tier_brute_force} and return monotonically
    descending tiers.  Instances with more than 16 movable operators
    or 12 supernodes pass trivially, as do solves that exhaust the
    branch-and-bound budget. *)

val service_equivalence : Prng.t -> Wishbone.Spec.t -> outcome
(** The fleet placement service against the direct solve path.  A
    random batch of queries — fixed-rate and rate-search, with repeats
    and near-repeats, over the spec's two-tier placement and a
    budget-perturbed sibling — is pushed through {!Wishbone.Service}
    (random LRU capacity and shard count), then through
    {!Wishbone.Service.solve_direct} with the same solver options.
    Every served answer must agree {e byte for byte} (status, chosen
    rate, objective, tier assignment, and the canonical digest); the
    batch is then replayed against the warm cache and must agree
    again; then one in-place write into the placements' private copies
    of the spec's arrays (a CPU cost, a bandwidth, a movable
    operator's pin) or into a link's budget changes their content
    under the same placement values, and the batch, served a third
    time, must agree with the direct path on the new content; and the
    service counters must conserve
    ([hits + misses = queries], [inserts - evictions = resident <=
    capacity]).  Specs with more than 16 movable operators pass
    trivially, as does any query whose solver budget is exhausted on
    either path (warm starts legitimately change how far a budget
    reaches). *)

val degraded_soundness : Prng.t -> Wishbone.Spec.t -> outcome
(** Gap-certified degradation is sound.  The spec's two-tier placement
    is solved through {!Wishbone.Service.solve_direct} under a random
    {e work-unit} budget (a node budget of 0–5 and/or a tree-wide
    pivot budget of 1–40) as a random fixed-rate or rate-search query.
    A [Degraded] answer's incumbent must pass
    {!Wishbone.Placement.feasible} at its rate, its gap must equal the
    bound arithmetic bit-for-bit and be non-negative, and on these
    small instances the brute-force optimum must lie inside the
    certified interval [[best_bound, objective]].  A [Placed] answer
    must carry an optimality proof; a fixed-rate [Infeasible] must
    agree with enumeration (a search [Infeasible] under budget is
    conservative and passes).  Independently, a huge-but-finite pivot
    budget must reproduce the unbudgeted default path byte for byte.
    [Failed] (budget exhausted, no incumbent) is inconclusive.  Specs
    with more than 16 movable operators pass trivially. *)

val tree_equivalence : ?pruned:int ref -> Prng.t -> Wishbone.Spec.t -> outcome
(** The tree-topology placement core against a brute-force enumerator
    over per-path cuts.  A random rooted tier tree (3–5 tiers,
    topological parent numbering), random middle platforms (cheaper
    per-op CPU, random budgets), per-uplink budgets/weights, an
    occasional tier pin, and sometimes the node-pinned sources
    tier-pinned onto random leaves (so live and pruned subtrees mix)
    are built over the spec; [Placement.solve]
    under both encodings must agree on feasibility and optimal
    objective with an exhaustive enumeration over the same supernode
    space (contracted under [Restricted] with no pins, the full graph
    otherwise), judged by an independent root-path-walk evaluation of
    monotonicity, budgets and objective.  The returned report must be
    internally consistent with [Placement.stats].  Additionally the
    chain-as-degenerate-tree property is checked byte-for-byte: a
    3-tier chain built with an explicit [Topology.of_parents]
    [[|1;2;-1|]] must encode the {e identical} ILP (variables, rows,
    names, objective) as the implicit-chain constructor.  Specs with
    more than 7 movable operators or 10 supernodes pass trivially, as
    do solves that exhaust the branch-and-bound budget.  [pruned] is
    incremented when the restricted encoding of the generated instance
    drops a tier no operator can reach. *)

val split_equivalence : Prng.t -> Wishbone.Spec.t -> outcome
(** Execute the same injected samples through {!Runtime.Exec.full} and
    through a two-tier {!Runtime.Multirun} split along a random
    predecessor-closed cut (plus, when the partitioner finds one, its
    own restricted-encoding cut): sink deliveries must match as
    multisets per injection, every operator must fire the same number
    of times, and the split runtime's crossing traffic must equal the
    full run's traffic over the cut edges. *)

val sched_equivalence : Prng.t -> outcome
(** The timing-wheel scheduler against {!Reference.sched} on a random
    interleaved push/pop trace (random tick; exact ties, pushes at and
    before the last popped time, exact tick boundaries, both wheel
    levels and the overflow bucket, sometimes a mid-trace [clear]):
    every pop must return the same (time, event).  Then a random small
    testbed fleet (2–12 nodes, random rate / payload / duration /
    seed, random fault and transport mix) must handle at least one
    event, keep the reliable-transport invariant
    [sent = received + expired + pending], and land on the identical
    {!Netsim.Testbed.result} for a random cell decomposition under
    simulation domains 1 and 2, floats compared bit for bit. *)
