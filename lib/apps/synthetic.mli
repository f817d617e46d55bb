(** Random partitioning problems for solver stress tests and property
    tests (no real work functions; costs are drawn directly).

    Shapes: random connected DAGs, random linear pipelines, and the
    paper's Figure 3 motivating example. *)

val random_spec :
  ?seed:int ->
  ?n_ops:int ->
  ?extra_edge_prob:float ->
  ?stateful_prob:float ->
  ?mode:Wishbone.Movable.mode ->
  ?cpu_budget:float ->
  ?net_budget:float ->
  ?alpha:float ->
  ?beta:float ->
  unit ->
  Wishbone.Spec.t
(** A connected DAG of [n_ops] (default 10) operators: one source
    pinned to the node, one sink pinned to the server, the rest
    movable (modulo random statefulness under [mode]).  CPU costs are
    uniform in [0, 0.3]; bandwidths in [1, 100]. *)

val random_pipeline_spec :
  ?seed:int -> ?n_ops:int -> ?cpu_budget:float -> ?net_budget:float ->
  unit -> Wishbone.Spec.t
(** A linear pipeline with generally decreasing bandwidths, like the
    speech application. *)

val fig3_spec : cpu_budget:float -> Wishbone.Spec.t
(** The 6-operator motivating example of Figure 3: a source S feeding
    two mirrored chains A1→A2 and B1→B2 into a server sink T, with
    vertex CPU costs [[1;2;1;2;1;0]] (S, A1, A2, B1, B2, T) and the
    edge bandwidths drawn in the figure.  With [alpha = 0, beta = 1]
    the optimal node partition's cut bandwidth is 8, 6, 5 at CPU
    budgets 2, 3, 4.  Budgets 3 and 4 each have two optimal cuts,
    one per chain: {S,A1} and {S,B1} both cut 6, {S,A1,A2} and
    {S,B1,B2} both cut 5. *)
