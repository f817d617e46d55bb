(** Seeded random-instance generators for the correctness oracles.

    Everything is driven by an explicit {!Prng.t}, so every generated
    instance — and therefore every fuzz failure — is replayable from
    its seed alone.  Unlike [Apps.Synthetic], the operator DAGs built
    here carry {e real} deterministic work functions (integer
    arithmetic, filters, expanders, stateful counters/decimators), so
    the same instance can exercise both the partitioning solvers and
    the split-execution runtime. *)

type cfg = {
  n_ops : int;  (** total operators, source and sink included (>= 3) *)
  extra_edge_prob : float;  (** fan-out beyond the random spanning spine *)
  stateful_prob : float;  (** interior ops that keep private state *)
  mode : Wishbone.Movable.mode;
  tightness : float;
      (** budget pressure in [0, 1]: 0 makes both budgets vacuous, 1
          pushes them towards the pinned-only boundary so a good
          fraction of instances is infeasible *)
  alpha : float;  (** objective CPU weight *)
  beta : float;  (** objective network weight *)
}

val default_cfg : cfg
(** 8 ops, mild fan-out, conservative mode, moderate tightness,
    [alpha = 0, beta = 1] (the paper's configuration). *)

val graph : Prng.t -> cfg -> Dataflow.Graph.t
(** A random connected DAG: one sensor source, one server sink,
    interior operators drawn from a small family of deterministic
    integer transforms (affine maps, filters, expanders, stateful
    counters and decimators). *)

val spec : Prng.t -> cfg -> Wishbone.Spec.t
(** A full partitioning instance over {!graph}: random CPU costs and
    edge bandwidths, budgets drawn according to [cfg.tightness]. *)

val random_cut : Prng.t -> Wishbone.Spec.t -> bool array
(** A random single-crossing assignment (true = node): respects the
    spec's pinning and is closed under predecessors, so every crossing
    edge flows node → server — exactly the cuts a two-tier
    {!Runtime.Multirun} can execute. *)

val lp : Prng.t -> size:int -> Lp.Problem.t
(** A random pure LP: [2 .. size+1] bounded variables (occasionally
    with an infinite upper bound), a mix of [Le]/[Ge]/[Eq] rows, random
    direction.  Instances may be infeasible or unbounded — oracles
    must agree on the status, not just the optimum. *)

val ilp : Prng.t -> size:int -> Lp.Problem.t
(** Like {!lp} but every variable is integral with small finite
    bounds, so {!Lp.Brute} can enumerate it. *)

type precedence_lp = {
  problem : Lp.Problem.t;
  lo : float array;  (** lower-bound overrides to solve with *)
  hi : float array;  (** upper-bound overrides to solve with *)
  two_cycles : int;
      (** planted pairs [x_u <= x_v <= x_u]; [0] when the precedence
          rows follow a DAG *)
}
(** A precedence-structured LP and the bounds to solve it at. *)

val precedence_lp : Prng.t -> size:int -> precedence_lp
(** An LP shaped like the placement encodings, which {!lp} rarely
    draws: [x_v <= x_u] rows over a random DAG on [3 .. size+2]
    variables (two-term rows of opposite sign, the precedence rows
    {!Lp.Sparse}'s crash basis is laid along, in either sense and
    sometimes scaled), one to three budget rows with right-hand sides
    of either sign, sometimes an equality row over a pair, and a
    random objective.
    Both of the crash's fallbacks are reachable: some instances plant
    2-cycles, whose crash basis is singular, and the bound overrides
    raise some lower bounds and cut some upper ones, which puts
    crashed columns outside their bounds.  Instances may be infeasible
    or unbounded. *)

val resources : Prng.t -> Wishbone.Spec.t -> Wishbone.Placement.resource list
(** 0–2 random per-operator resource rows (RAM / code-storage shape)
    sized so they sometimes bind. *)

val pp_spec : Format.formatter -> Wishbone.Spec.t -> unit
(** Compact replayable rendering of a spec instance: placements, CPU
    costs, edges with bandwidths, budgets and objective weights.  Used
    for minimal-reproducer reports. *)
