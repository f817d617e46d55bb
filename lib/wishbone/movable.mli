(** Relocation constraints (§2.1.1–§2.1.2).

    Classifies every operator as pinned to the node, pinned to the
    server, or movable:

    - sensor sources and actuators are pinned to the node;
    - output sinks and every [Server]-namespace operator are pinned to
      the server (server state is single-instance and cannot move into
      the network);
    - stateful [Node]-namespace operators are pinned to the node in
      {!Conservative} mode (relocation would put a lossy link upstream
      of state) and movable in {!Permissive} mode (the server then
      keeps a per-node state table);
    - stateless pure operators are always movable.

    Because the prototype allows only one network crossing on any
    source-to-sink path (§2.1.2), pinning an operator transitively
    pins everything up- or downstream: ancestors of node-pinned
    operators become node-pinned and descendants of server-pinned
    operators become server-pinned. *)

type mode = Conservative | Permissive

type placement = Pin_node | Pin_server | Movable

val classify : mode -> Dataflow.Graph.t -> (placement array, string) result
(** [Error] describes a program with contradictory pinning — e.g. a
    server-pinned operator feeding a node-pinned one, which would need
    the data to cross the network twice. *)

val movable_count : placement array -> int
