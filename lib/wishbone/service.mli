(** The fleet placement service: a persistent query daemon over the
    placement core (DESIGN.md §16), with fault containment and
    crash-safe checkpoints (§17).

    The paper treats partitioning as a one-shot compile step; a fleet
    of heterogeneous devices instead asks the same solver thousands of
    placement and rate-search questions, most of them repeats or
    near-repeats of each other (re-profiling, firmware updates, churn).
    This module turns {!Placement.solve} / {!Rate_search} into a
    server loop:

    - {e batches}: queries arrive as arrays and independent solves are
      sharded across [Domain]s at the {e query} level (each branch &
      bound search is sequential): the calling domain and up to
      [shards - 1] workers of a process-wide pool claim queries from
      one shared cursor until none are left, so the caller solves a
      share instead of waiting.  The pool's domains are spawned on
      first demand and reused by every later batch of every service;
      the batch's placements are keyed the same way;
    - {e caching}: completed solves are stored in an LRU-bounded cache
      keyed by [spec digest x platform digest x request].  An exact
      key hit replays the stored response without solving; a miss on a
      placement whose structure is already resident warm-starts from
      the stored tier assignment and {!Lp.Basis.t} root snapshot;
    - {e determinism}: responses (and every cache counter) are a pure
      function of the query history — independent of the shard count,
      and byte-identical to the direct no-service solve path
      ({!solve_direct}), which the [service-equivalence] fuzz oracle
      and the [@service] test suite enforce;
    - {e containment}: every solve runs inside a per-query supervisor.
      An exception (the sparse engine's factorisation instability, a
      fault-plan injection, a plain bug) is retried up to [retries]
      times with a small capped backoff and then converted into a
      {!Failed} answer carrying the exception rendering — it never
      takes the batch down, and [ok + degraded + failed = queries]
      holds after every batch.  A simulated worker death
      ({!Fault_plan}) ends the batch's claims on the domain that
      claimed the query, the calling one included (a pool worker goes
      back to the pool); the others keep claiming, and the batch
      re-runs whatever was stranded inline, so even that path changes
      no response byte.  All containment counters are pure functions
      of the query history and fault plan — identical on 1, 2 or 8
      shards;
    - {e degradation}: under a finite {!Lp.Branch_bound} budget
      ([max_nodes] / [pivot_budget]) an unproved-but-feasible solve
      returns {!Degraded} — the best incumbent, verified feasible,
      with its relative gap from the branch & bound dual bound —
      never an exception, never a silently suboptimal {!Placed}.

    The determinism argument: each batch is {e planned} sequentially
    against the cache state at batch entry (hit / alias / solve, warm
    hints chosen from already-resident entries), the planned solves
    are data-independent and run on any number of shards in any claim
    order, and cache insertion/eviction replays sequentially in
    query-index order after every shard has finished.  Shard count
    therefore changes wall-clock only.
    Warm hints never change answers (the repo-wide warm-start
    contract, PR 1/5/6); the service additionally runs full proofs
    ([gap_tol = 0], no wall-clock limit) by default so that a
    budget-truncated solve cannot leak timing into an answer.  Under a
    finite {e work-unit} budget ([pivot_budget]/[max_nodes], unlike
    [time_limit]) answers stay machine-independent, so a budgeted
    service is still reproducible — only [time_limit] trades that
    away. *)

(** What a query asks of its placement: solve at one fixed rate
    multiplier, or binary-search the maximum sustainable rate
    (§4.3). *)
type request = Rate of float | Search

type query = { placement : Placement.t; request : request }

type answer =
  | Placed of { rate : float; report : Placement.report }
      (** feasible and proved optimal: the rate actually solved at
          (the query's fixed rate, or the rate the search settled on)
          and the placement report.  Replayed answers return the
          originally stored report, solver statistics included. *)
  | Degraded of { rate : float; report : Placement.report; gap : float }
      (** feasible but unproved: the solver budget ran out with a
          verified-feasible incumbent in hand.  [gap] is the relative
          distance from the branch & bound dual bound,
          [|objective - best_bound| / max(1, |objective|)] — the
          certified interval the true optimum lies in.  For [Search]
          queries, degraded additionally means the rate itself is a
          safe lower bound on the true maximum (some bisection probe
          died on the budget and was conservatively treated as
          infeasible); [gap] then bounds the placement objective at
          the returned rate. *)
  | Infeasible
      (** no feasible placement.  For [Rate] queries this is a proof;
          for [Search] queries under a finite budget it means no rate
          could be {e certified} feasible (conservative). *)
  | Failed of string
      (** solver failure: budget exhausted with no incumbent, bad
          data, or an exception contained by the supervisor (the
          rendering includes the exception; injected faults read
          [Injected_fault]).  Never cached. *)

(** How a response was produced. *)
type served =
  | Hit  (** replayed from the cache (or from an identical query
             earlier in the same batch) *)
  | Warm_start
      (** solved, warm-started from a resident entry with the same
          placement structure at a different rate *)
  | Cold  (** solved from scratch *)

type counters = {
  queries : int;
  hits : int;  (** [hits + misses = queries] *)
  misses : int;  (** solved queries, warm or cold *)
  warm_starts : int;  (** subset of [misses] *)
  inserts : int;  (** [inserts - evictions = resident] *)
  evictions : int;
  resident : int;  (** entries currently cached, [<= capacity] *)
  ok : int;  (** [Placed]/[Infeasible] responses; [ok + degraded + failed = queries] *)
  degraded : int;  (** [Degraded] responses (replayed hits included) *)
  failed : int;  (** [Failed] responses *)
  retries : int;
      (** extra solve attempts beyond each query's first — a pure
          function of the query history and fault plan, independent
          of shard count *)
  worker_deaths : int;
      (** simulated worker kills absorbed ({!Fault_plan}); each
          planned kill counts exactly once, on any shard count *)
}

type response = {
  answer : answer;
  digest : string;
      (** hex digest of the canonical answer rendering (status, rate,
          objective, gap, tier assignment — never solver timings), the
          byte-identity token of the equivalence oracle *)
  served : served;
  latency_ms : float;  (** wall-clock of this query's solve; ~0 on hits *)
  counters : counters;
      (** service counters as of the end of this query's batch *)
}

exception Injected_fault of string
(** The exception raised by {!Fault_plan} injections — transient
    declines, permanent faults and mid-solve crashes all surface as
    [Injected_fault] so tests can tell injected failures from real
    ones.  Contained by the supervisor like any other exception. *)

(** Seeded solver-fault injection — the PR 3 network-fault recipe
    ({!Netsim.Testbed}) applied to the service layer.  A plan decides,
    per global query sequence number, whether a solve misbehaves and
    how:

    - {e transient decline}: the first attempt raises
      {!Injected_fault}; a retry succeeds — the factorisation
      instability path;
    - {e permanent fault}: every attempt raises — exhausts the retry
      budget and surfaces as {!Failed};
    - {e mid-solve crash}: the first attempt raises from inside branch
      & bound at its k-th node expansion (via
      {!Lp.Branch_bound.options.on_node}); a retry runs clean;
    - {e worker death}: the first attempt stops the domain that
      claimed the query (the calling one included) from claiming more
      of the batch; the batch absorbs the death, re-runs the stranded
      queries inline, and resumes the victim at attempt 1.

    Decisions derive as [Prng.derive seed [11; seq]] ([11] is the
    service-fault namespace; the network testbed uses [[1; k]], the
    fuzzer [[oracle; case]]), so a plan replays bit-identically across
    runs and shard counts, and {!none} leaves every code path
    bit-identical to a build without fault injection. *)
module Fault_plan : sig
  type t

  val none : t
  (** No injection; zero overhead — the default. *)

  val seeded : ?rate:float -> int -> t
  (** [seeded seed] injects a fault into roughly [rate] (default 0.1)
      of solved queries, kind chosen uniformly among the four above.
      Equal seeds give equal plans. *)
end

type t

val default_options : Lp.Branch_bound.options
(** {!Lp.Branch_bound.default_options}: full optimality proofs
    ([gap_tol = 0]) and no wall-clock limit, so answers are a pure
    function of the query and never of machine speed.  Callers who
    prefer the rate search's bounded-latency profile can pass
    {!Rate_search.default_search_options} to {!create} — equivalence
    to {!solve_direct} under the same options still holds, but answers
    then depend on the node/time budgets.  For a {e reproducible}
    deadline, bound [max_nodes]/[pivot_budget] instead of
    [time_limit]: work-unit budgets stop at the same node on every
    machine, and exhaustion surfaces as {!Degraded} or {!Failed},
    never as a timing-dependent wrong answer. *)

val create :
  ?capacity:int ->
  ?options:Lp.Branch_bound.options ->
  ?tol:float ->
  ?max_multiplier:float ->
  ?retries:int ->
  ?fault_plan:Fault_plan.t ->
  unit ->
  t
(** A fresh service.  [capacity] (default 512) bounds the cache in
    entries, LRU-evicted; [0] disables retention entirely (every
    insert evicts immediately, keeping the counter algebra intact).
    [options] drives every branch & bound ({!default_options});
    [tol] / [max_multiplier] parameterise [Search] queries exactly as
    in {!Rate_search.search_placement} (defaults 0.01 / 65536).
    [retries] (default 1) bounds the supervisor's extra attempts per
    query; [fault_plan] (default {!Fault_plan.none}) injects seeded
    solver faults for testing. *)

val counters : t -> counters
(** Cumulative counters across every batch served so far. *)

val instance_key : Placement.t -> string
(** Hex digest of the placement {e structure}: graph shape, operator
    identities and pins, bit-exact CPU/bandwidth coefficients, every
    tier and link budget and objective weight.  Two placements share
    an instance key iff the solver sees identical numbers — budgets
    included, so two specs equal modulo CPU budget never collide. *)

val query_key : t -> query -> string
(** [instance_key] extended with the request (rate bits, or the
    search's [tol]/[max_multiplier] bits): the cache key. *)

val answer_digest : answer -> string
(** The canonical digest stored in {!response.digest}: bit-exact over
    status, rate, objective, gap and tier assignment; independent of
    solver statistics, cache state and wall-clock. *)

(** {2 Key rendering}

    The writer {!instance_key} and {!answer_digest} render into.  Each
    domain keeps one sink, grown to the largest rendering it has made
    and reused after that, so keying a query allocates little more than
    its 32-character digest.  Numbers are written byte for byte as
    [Printf] would write them, so keys and digests stored by earlier
    builds stay valid. *)

module Sink : sig
  type t
  (** A growable byte buffer. *)

  val create : unit -> t
  val contents : t -> string

  val add_float_bits : t -> float -> unit
  (** [add_float_bits s x] appends
      [Printf.sprintf "%Lx;" (Int64.bits_of_float x)]: the IEEE-754 bit
      pattern in lowercase hex without leading zeros, then [';']. *)

  val add_int : t -> int -> unit
  (** [add_int s n] appends [string_of_int n]. *)
end

val max_shards : int
(** 128: OCaml 5.1 runs at most 128 domains, the calling one included. *)

val run_batch : ?shards:int -> t -> query array -> response array
(** Serve one batch: key its placements, plan against the cache, solve
    the misses, then commit results to the cache in query order.
    Keying and solving each run on up to [shards] domains (default 1):
    the calling one and [shards - 1] workers of the shared pool, each
    claiming the next item from a shared cursor.  A call spawns a
    domain only when it asks for more workers than the pool has; it
    waits for its own work only, so several domains may serve at once
    (each on its own [t]).  [responses.(i)] answers [queries.(i)];
    answers, digests and counters are identical for every shard
    count.  Each distinct placement value (by physical equality) is
    keyed once per batch, so do not mutate a placement while the call
    runs.  Exact-duplicate queries within one batch are solved once
    and the copies served as {!Hit}s.  Solver faults (real or
    injected) surface as {!Failed} answers, and simulated worker
    deaths, the caller's included, are absorbed and re-run; only an
    exception from keying (a malformed placement) escapes, once every
    domain working on the batch has stopped.
    @raise Invalid_argument when [shards] is below 1 or above
    {!max_shards}, before any counter moves. *)

val solve_direct :
  ?options:Lp.Branch_bound.options ->
  ?tol:float ->
  ?max_multiplier:float ->
  query ->
  answer
(** The no-service reference path: the exact solve a fresh service
    would run for this query alone — {!Placement.solve} at the scaled
    rate, or {!Rate_search.search_placement} — with no cache, no warm
    hints, no supervisor and no fault plan.  The service-equivalence
    oracle holds every served answer to this function's output, byte
    for byte. *)

(** {2 Crash-safe checkpoints}

    [checkpoint] persists the cache — every entry's key, answer,
    warm-start tier assignment and {!Lp.Basis.t} snapshot — plus the
    LRU clock and cumulative counters, so a restarted service replays
    byte-identically to one that never died.  The file carries a
    per-section MD5 and each entry's stored answer digest is
    recomputed on load; any mismatch (corruption, truncation, a stale
    format, changed [tol]/[max_multiplier] or solver options) degrades
    to a cold cache — never to wrong answers.  The solver options are
    recorded (all but the [on_node] hook, floats bit-exactly) only to
    detect that change; they, the retry budget and the fault plan are
    configuration, supplied afresh to {!restore}. *)

type restore_outcome =
  | Restored of int  (** the cache came back with this many entries *)
  | Cold_start of string
      (** the snapshot was unusable (the reason says why); the
          returned service is fresh, exactly as {!create} *)

val checkpoint : t -> string -> unit
(** [checkpoint t path] atomically writes the snapshot (a temporary
    file renamed into place), so a crash mid-write leaves any previous
    snapshot intact. *)

val restore :
  ?capacity:int ->
  ?options:Lp.Branch_bound.options ->
  ?tol:float ->
  ?max_multiplier:float ->
  ?retries:int ->
  ?fault_plan:Fault_plan.t ->
  string ->
  t * restore_outcome
(** [restore path] loads a snapshot.  On success the cache capacity,
    clock, counters and entries come from the file ([?capacity] is
    ignored); on any integrity or staleness failure the optional
    arguments feed a fresh {!create} and the outcome says why.
    Passing [tol]/[max_multiplier], or any {!Lp.Branch_bound.options}
    field but [on_node], different (bit-exactly) from the snapshot's is
    a staleness failure: cached answers were computed under the old
    parameters (under a node budget, say, as degraded incumbents) and
    must not be replayed under new ones. *)

val pp_response : Format.formatter -> response -> unit
