(** WaveScript-style graph construction.

    Programs manipulate streams as values and wire together operator
    graphs (cf. Figure 1 of the paper).  [iterate] creates an operator
    from a work function and returns its output stream; placing
    construction inside {!in_node} puts operators in the [Node{}]
    namespace, replicated once per embedded node (§2.1). *)

type t
type stream

val create : unit -> t

val in_node : t -> (unit -> 'a) -> 'a
(** [in_node b f] evaluates [f ()] with the current namespace set to
    [Node]; nests arbitrarily (the innermost wins). *)

val iterate :
  t ->
  name:string ->
  ?kind:string ->
  ?stateful:bool ->
  ?side_effect:Op.side_effect ->
  fresh:(unit -> Op.instance) ->
  stream list ->
  stream
(** General operator constructor: inputs are connected to ports
    [0..k-1] in list order. *)

val source : t -> name:string -> ?kind:string -> unit -> stream
(** A sensor source: pinned to the node ([Sensor_input]), passes
    injected samples downstream unchanged. *)

val sink : t -> name:string -> stream -> unit
(** A server output sink ([Display_output]); elements delivered here
    count as application output. *)

val map :
  t ->
  name:string ->
  ?kind:string ->
  (Value.t -> Value.t * Workload.t) ->
  stream ->
  stream
(** Stateless one-in one-out operator. *)

val stateful :
  t ->
  name:string ->
  ?kind:string ->
  init:(unit -> port:int -> Value.t -> Value.t list * Workload.t) ->
  stream list ->
  stream
(** Stateful operator; [init] allocates fresh private state captured
    by the returned work closure.  Reset re-runs [init]. *)

val op_id : stream -> int
(** The graph vertex the stream is produced by. *)

val build : t -> Graph.t
(** Finalize.  The builder must not be reused afterwards.
    @raise Invalid_argument on an ill-formed graph. *)
