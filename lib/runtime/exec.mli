(** Depth-first stream execution over a subset of a dataflow graph.

    This mirrors the paper's C backend (§5.1): emitting a value is a
    function call into the downstream operator, so one injected sample
    drives a complete depth-first traversal of the graph.  An [Exec.t]
    executes only the operators for which [member] is true; values
    emitted along edges that leave the member set are returned as
    {!crossing}s — on a deployed system those become radio messages.

    Replicated operators (logical [Node] namespace) that have been
    relocated to the server keep one private-state instance per
    physical node, looked up by the [node] argument of {!fire} — the
    per-node state table of §2.1.1. *)

type crossing = { edge : Dataflow.Graph.edge; value : Dataflow.Value.t }

type fired = {
  crossings : crossing list;  (** values that left the member set *)
  workload : Dataflow.Workload.t;  (** work performed by this traversal *)
  sink_values : Dataflow.Value.t list;
      (** values delivered to [Display_output] operators during the
          traversal; an [Exec.t] keeps no log of them, so a caller
          that wants sink output counts or keeps it from here *)
}

type t

val create :
  ?replicated:(int -> bool) -> member:(int -> bool) -> Dataflow.Graph.t -> t
(** [replicated op] marks operators that need one state instance per
    node id (default: none — single-instance).  Instances are created
    lazily per node id. *)

val full : Dataflow.Graph.t -> t
(** Everything is a member; single node. *)

val reset : t -> unit
(** Reset all operator state and statistics. *)

val fire : ?node:int -> t -> op:int -> port:int -> Dataflow.Value.t -> fired
(** Deliver a value to a member operator's input port and run the
    depth-first traversal.  For a source operator, [port] is ignored
    by convention (sources have no in-edges; the injected value is the
    sensor sample).
    @raise Invalid_argument when [op] is not a member. *)

(** {1 Accumulated statistics} *)

val op_fires : t -> int -> int
val op_workload : t -> int -> Dataflow.Workload.t
val edge_elements : t -> int -> int
(** Elements carried by edge [eid] (within or leaving the member set). *)

val edge_bytes : t -> int -> int
