(** A concrete partitioning problem instance: the movable DAG with
    vertex CPU costs, edge bandwidths, resource budgets, and objective
    coefficients (§4).

    Costs follow the paper's units: vertex cost is the fraction of the
    embedded node's CPU the operator consumes at the profiled input
    rate (mean or peak); edge cost is bytes/second crossing the radio
    if the edge is cut. *)

type t = {
  graph : Dataflow.Graph.t;
  placement : Movable.placement array;
  cpu : float array;  (** per op: node CPU fraction at this data rate *)
  bandwidth : float array;  (** per edge: bytes/s at this data rate *)
  cpu_budget : float;  (** C in eq. (2) *)
  net_budget : float;  (** N in eq. (4), bytes/s *)
  alpha : float;  (** CPU weight in the objective, eq. (5) *)
  beta : float;  (** network weight *)
}

val of_profile :
  ?mode:Movable.mode ->
  ?use_peak:bool ->
  ?cpu_budget:float ->
  ?net_budget:float ->
  ?alpha:float ->
  ?beta:float ->
  node_platform:Profiler.Platform.t ->
  Profiler.Profile.raw ->
  (t, string) result
(** Defaults: [mode = Conservative], mean loads, budgets from the
    platform descriptor ([cpu_budget] fraction, radio goodput for
    [net_budget]), objective [alpha = 0., beta = 1.] — minimize
    network subject to fitting the CPU, as in the paper's
    evaluation. *)

val scale_rate : t -> float -> t
(** Multiply every CPU cost and bandwidth by a factor: the §4.3
    data-rate free variable.
    @raise Invalid_argument unless the factor is [> 0] (NaN included). *)

val cut_stats : t -> node_side:bool array -> float * float
(** [(cpu, net)] of an assignment: summed node CPU fraction and cut
    bandwidth. *)

val feasible : ?require_single_crossing:bool -> t -> node_side:bool array -> bool
(** Budgets respected, pinning respected, and (by default) the
    single-crossing restriction of §2.1.2 holds — no server→node edge.
    Pass [~require_single_crossing:false] when validating a solution
    of the {e general} ILP encoding, which legitimately allows
    back-and-forth communication. *)

val objective_value : t -> node_side:bool array -> float
(** [alpha *. cpu +. beta *. net]. *)
