(** Mixed networks (§9, future work).

    A single logical node partition can take on different physical
    partitions at different nodes: run the partitioning algorithm once
    per node class.  The server must then accept results at various
    stages of partial processing — which the per-node server state
    tables already support.

    Each class is solved as [Placement.of_spec] of its own spec —
    this module owns only the budget splitting across classes, no ILP
    encoding of its own. *)

type class_spec = {
  platform : Profiler.Platform.t;
  n_nodes : int;
  net_share : float option;
      (** this class's share of the shared channel budget; [None]
          divides the platform budget by [n_nodes] *)
}

type class_plan = {
  platform : Profiler.Platform.t;
  n_nodes : int;
  report : Placement.report;  (** two-tier: tier 0 is the node *)
}

val plan :
  ?mode:Movable.mode ->
  ?alpha:float ->
  ?beta:float ->
  Profiler.Profile.raw ->
  classes:class_spec list ->
  (class_plan list, string) result
(** One optimal partition per node class.  Classes whose rate does not
    fit are reported through {!Rate_search.search_placement} and the
    returned report is at the found rate.  [Error] if any class has no
    feasible partition at any rate. *)

val pp : Format.formatter -> class_plan list -> unit
