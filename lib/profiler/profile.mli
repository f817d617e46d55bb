(** Profile-driven cost estimation (§3 of the paper).

    [collect] executes the full operator graph on a timed trace of
    sample data, recording per-operator instruction mixes and per-edge
    traffic.  The platform-independent measurements ({!raw}) are then
    priced for a concrete platform with {!cost}, yielding per-operator
    CPU fractions and per-edge bandwidths — the inputs of the
    partitioning ILP.  Both mean and peak loads are computed (§4.2.1);
    Wishbone uses mean loads for predictable-rate applications.

    {!scale_rate} implements "data rate as a free variable" (§4.3):
    CPU and network load scale linearly with the input rate, so one
    profiling run supports the whole binary search. *)

module Trace : sig
  type event = { time : float; source : int; value : Dataflow.Value.t }

  val periodic :
    source:int -> rate:float -> duration:float ->
    gen:(int -> Dataflow.Value.t) -> event list
  (** [gen i] produces the i-th sample; events at times [i /. rate]. *)

  val merge : event list list -> event list
  (** Merge time-sorted traces into one time-sorted trace. *)
end

type raw

val collect :
  ?window:float -> duration:float -> Dataflow.Graph.t ->
  Trace.event list -> raw
(** Runs the trace through {!Runtime.Exec.full}.  [window] (default
    1 s) is the averaging window for peak-load estimation.  Events
    must lie within [0, duration). *)

val graph : raw -> Dataflow.Graph.t
val duration : raw -> float

val scale_rate : raw -> float -> raw
(** A view of the same profile with all rates multiplied by the given
    factor.  O(1); shares measurement data.
    @raise Invalid_argument unless the factor is [> 0] (NaN included). *)

(** {1 Platform-independent measurements} *)

val op_fires : raw -> int -> int
val op_workload_per_fire : raw -> int -> Dataflow.Workload.t
val op_fires_per_sec : raw -> int -> float
val edge_elements_per_sec : raw -> int -> float
val edge_bytes_per_sec : raw -> int -> float
val edge_peak_bytes_per_sec : raw -> int -> float

(** {1 Platform costing} *)

type costed = {
  platform : Platform.t;
  seconds_per_fire : float array;
      (** per operator: execution time of one firing *)
  cpu_fraction : float array;
      (** per operator: mean fraction of the platform CPU consumed *)
  peak_cpu_fraction : float array;
      (** per operator: worst averaging window *)
}

val cost : raw -> Platform.t -> costed
