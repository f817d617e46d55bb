(** Closed-loop rate/partition adaptation.

    Wishbone's plan is static: a partition and input rate chosen from
    {e profiled} costs.  §7.3 shows what happens when the deployment
    disagrees with the profile — queue drops, collisions and processor
    involvement in communication push goodput far below the additive
    model's prediction, and nothing in the static story reacts.

    This controller closes the loop.  It repeatedly {e probes} an
    operating point (a rate multiplier and an assignment), observes
    the achieved goodput over a window, and when the observation
    misses the target it steps the rate down the §4.3 binary-search
    lattice — exactly the lattice {!Rate_search} descends at plan
    time, now driven by measured instead of predicted feasibility —
    and/or re-solves the partition with the {e measured} edge rates
    ({!Netsim.Testbed.result.edge_bytes_per_sec}), warm-starting the
    ILP from the previous solve's root basis.  (Re-solves are
    [Placement.solve (Placement.of_spec spec)].)  Every step is
    recorded in a decision trace for inspection.

    The controller is environment-agnostic: it only sees the [probe]
    callback, so tests can drive it with a synthetic response surface
    and deployments with {!testbed_probe}. *)

type observation = {
  goodput : float;  (** goodput fraction achieved over the window *)
  input_fraction : float;
  msg_fraction : float;
  node_busy : float;
  edge_bytes_per_sec : float array;  (** measured, indexed by [eid] *)
}

val observe : Netsim.Testbed.result -> observation

type action =
  | Hold  (** converged: stay at this operating point *)
  | Set_rate of float  (** move to this rate multiplier *)
  | Repartition of { assignment : bool array; rate : float }
      (** switch to a re-solved partition at this rate *)

type decision = {
  step : int;
  rate : float;  (** rate multiplier in effect during the window *)
  obs : observation;
  action : action;
  note : string;
}

type config = {
  target : float;  (** goodput fraction to hold (default 0.9) *)
  tol : float;  (** lattice resolution, like {!Rate_search} (0.05) *)
  max_steps : int;  (** probe budget (default 16) *)
  repartition : bool;
      (** re-solve with measured edge rates on each miss (default
          true); when false the controller only moves the rate *)
  rate_min : float;  (** give up below this multiplier (1e-4) *)
}

val default_config : config

type outcome = {
  rate : float;  (** final operating rate multiplier *)
  assignment : bool array;  (** final partition *)
  goodput : float;  (** goodput observed at the final point *)
  trace : decision list;  (** oldest first *)
  converged : bool;
      (** the final point meets [target] and the bracket has closed to
          within [tol] (or no lower bracket exists to close) *)
}

val run :
  ?config:config ->
  spec:Spec.t ->
  assignment:bool array ->
  probe:(rate:float -> assignment:bool array -> observation) ->
  unit ->
  outcome
(** [spec] must be the {e unscaled} (multiplier 1) instance the static
    plan was computed from; measured edge rates are folded back into
    it before re-solving.  [assignment] is the static plan's
    partition, probed first at rate 1. *)

val testbed_probe :
  config:Netsim.Testbed.config ->
  graph:Dataflow.Graph.t ->
  sources:(rate:float -> Netsim.Testbed.source_spec list) ->
  rate:float ->
  assignment:bool array ->
  observation
(** Probe one operating point by running the simulated testbed:
    [sources ~rate] must build the source list with every source rate
    scaled by the multiplier. *)

val pp_trace : Format.formatter -> decision list -> unit
