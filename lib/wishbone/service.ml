open Dataflow

type request = Rate of float | Search

type query = { placement : Placement.t; request : request }

type answer =
  | Placed of { rate : float; report : Placement.report }
  | Degraded of { rate : float; report : Placement.report; gap : float }
  | Infeasible
  | Failed of string

type served = Hit | Warm_start | Cold

type counters = {
  queries : int;
  hits : int;
  misses : int;
  warm_starts : int;
  inserts : int;
  evictions : int;
  resident : int;
  ok : int;
  degraded : int;
  failed : int;
  retries : int;
  worker_deaths : int;
  solve_cost : int;
}

type response = {
  answer : answer;
  digest : string;
  served : served;
  latency_ms : float;
  counters : counters;
}

exception Injected_fault of string

(* Raised by a [Kill_worker] fault to stop the domain that claimed the
   query, the calling one included, from claiming more of the batch —
   the one exception the per-query supervisor deliberately does not
   contain.  Never escapes [run_batch]. *)
exception Worker_killed

(* ---- fault injection ---------------------------------------------- *)

module Fault_plan = struct
  type kind =
    | Transient  (* first attempt raises; a retry succeeds *)
    | Permanent  (* every attempt raises *)
    | Crash_at of int  (* first attempt raises at the k-th B&B node *)
    | Kill_worker  (* first attempt stops its domain's claims *)

  type t = Off | Seeded of { seed : int; rate : float }

  let none = Off
  let seeded ?(rate = 0.1) seed = Seeded { seed; rate }

  (* The decision for the [seq]-th solved query of the service's
     lifetime, derived from the root seed with the documented path
     [11; seq] ([11] is the service-fault namespace; [Netsim.Testbed]
     owns [1; k], [Check.Fuzz] owns [oracle; case]).  Pure function of
     [(plan, seq)]: replays identically across runs, shard counts and
     retry attempts. *)
  let decide t ~seq =
    match t with
    | Off -> None
    | Seeded { seed; rate } ->
        let g = Prng.create (Prng.derive seed [ 11; seq ]) in
        if not (Prng.bool g rate) then None
        else
          Some
            (match Prng.int g 4 with
            | 0 -> Transient
            | 1 -> Permanent
            | 2 -> Crash_at (Prng.int g 8)
            | _ -> Kill_worker)
end

(* ---- canonical digests ------------------------------------------- *)

(* Everything the solver reads is rendered bit-exactly (floats as
   their IEEE-754 bit patterns) into one canonical byte string, then
   hashed.  Budgets and objective weights are part of the key: two
   placements that differ only in a CPU budget solve differently and
   must never collide.

   An eeg14 key renders about 72 KB of coefficients, and every query
   is keyed, so the writers below append straight into a byte sink
   rather than through [Printf] or a [Buffer]: each domain keeps one
   sink, grown once to the largest key it has rendered and reused
   after that, and the digest reads the sink in place.  The bytes are
   exactly what [Printf.sprintf "%Lx"] and [string_of_int] produce, so
   every stored key and digest stays valid. *)

module Sink = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create () = { buf = Bytes.create 4096; len = 0 }
  let contents s = Bytes.sub_string s.buf 0 s.len
  let digest s = Digest.to_hex (Digest.subbytes s.buf 0 s.len)

  (* room for [k] more bytes *)
  let reserve s k =
    if s.len + k > Bytes.length s.buf then begin
      let buf = Bytes.create (Int.max (2 * Bytes.length s.buf) (s.len + k)) in
      Bytes.blit s.buf 0 buf 0 s.len;
      s.buf <- buf
    end

  let add_char s c =
    reserve s 1;
    Bytes.unsafe_set s.buf s.len c;
    s.len <- s.len + 1

  let add_string s str =
    let k = String.length str in
    reserve s k;
    Bytes.blit_string str 0 s.buf s.len k;
    s.len <- s.len + k

  (* the two lowercase hex digits of every byte, "00" to "ff" *)
  let hex_pairs =
    String.init 512 (fun i ->
        let byte = i / 2 in
        "0123456789abcdef".[if i land 1 = 0 then byte lsr 4 else byte land 0xf])

  (* the low [nd] hex digits of [x] into [b], the last one at [p - 1] *)
  let rec put_hex b p x nd =
    if nd >= 2 then begin
      let i = 2 * (x land 0xff) in
      Bytes.unsafe_set b (p - 2) (String.unsafe_get hex_pairs i);
      Bytes.unsafe_set b (p - 1) (String.unsafe_get hex_pairs (i + 1));
      put_hex b (p - 2) (x lsr 8) (nd - 2)
    end
    else if nd = 1 then
      Bytes.unsafe_set b (p - 1)
        (String.unsafe_get hex_pairs ((2 * (x land 0xf)) + 1))

  (* hex digits of [0 <= x < 2^32]; one for [0] *)
  let hex_len x =
    if x < 0x10000 then
      if x < 0x100 then if x < 0x10 then 1 else 2
      else if x < 0x1000 then 3
      else 4
    else if x < 0x1000000 then if x < 0x100000 then 5 else 6
    else if x < 0x10000000 then 7
    else 8

  (* [Printf.sprintf "%Lx;" (Int64.bits_of_float x)]: lowercase hex
     without leading zeros.  The two 32-bit halves of the pattern each
     fit an [int], so no boxed [Int64] arithmetic runs per digit. *)
  let[@inline] add_float_bits s x =
    let bits = Int64.bits_of_float x in
    let hi = Int64.to_int (Int64.shift_right_logical bits 32) in
    let lo = Int64.to_int bits land 0xffff_ffff in
    let nd = if hi = 0 then hex_len lo else 8 + hex_len hi in
    reserve s (nd + 1);
    let p = s.len + nd in
    put_hex s.buf p lo (Int.min nd 8);
    if nd > 8 then put_hex s.buf (p - 8) hi (nd - 8);
    Bytes.unsafe_set s.buf p ';';
    s.len <- p + 1

  (* decimal digits of [m <= 0]; the non-positive side covers
     [min_int], which has no positive counterpart *)
  let rec dec_len nd m = if m > -10 then nd else dec_len (nd + 1) (m / 10)

  let rec put_dec b p m =
    Bytes.unsafe_set b (p - 1) (Char.unsafe_chr (48 - (m mod 10)));
    if m <= -10 then put_dec b (p - 1) (m / 10)

  let add_int s n =
    let m = if n < 0 then n else -n in
    let sign = if n < 0 then 1 else 0 in
    let nd = sign + dec_len 1 m in
    reserve s nd;
    put_dec s.buf (s.len + nd) m;
    if n < 0 then Bytes.unsafe_set s.buf s.len '-';
    s.len <- s.len + nd
end

(* an int and its ',' terminator *)
let add_int_field s n =
  Sink.add_int s n;
  Sink.add_char s ','

let add_floats s a =
  for i = 0 to Array.length a - 1 do
    Sink.add_float_bits s a.(i)
  done

let add_s s str =
  (* length-prefixed so name boundaries cannot alias *)
  Sink.add_int s (String.length str);
  Sink.add_char s ':';
  Sink.add_string s str

(* the calling domain's sink, emptied: keying runs on every shard's
   domain at once *)
let domain_sink = Domain.DLS.new_key Sink.create

let sink () =
  let s = Domain.DLS.get domain_sink in
  s.Sink.len <- 0;
  s

(* Every array this reads that a caller can write (all but the
   abstract topology's) is also copied by [keyed] and compared by
   [unchanged] below, and [test_service.ml]'s [mutations] writes into
   each in place: a key input added here alone would let the key memo
   serve a stale key for a placement mutated between batches. *)
let instance_key (pl : Placement.t) =
  let spec = pl.Placement.spec in
  let g = spec.Spec.graph in
  let s = sink () in
  Sink.add_string s "ops";
  Sink.add_int s (Graph.n_ops g);
  Sink.add_char s ';';
  Array.iter
    (fun (o : Op.t) ->
      Sink.add_int s o.id;
      add_s s o.name;
      add_s s o.kind;
      Sink.add_char s
        (match o.namespace with Op.Node -> 'n' | Op.Server -> 's');
      Sink.add_char s (if o.stateful then 'T' else 'F');
      Sink.add_char s
        (match o.side_effect with
        | Op.Pure -> 'p'
        | Op.Sensor_input -> 'i'
        | Op.Actuator -> 'a'
        | Op.Display_output -> 'o'))
    (Graph.ops g);
  Sink.add_string s "|pins";
  Array.iter
    (fun p ->
      Sink.add_char s
        (match p with
        | Movable.Pin_node -> 'N'
        | Movable.Pin_server -> 'S'
        | Movable.Movable -> 'M'))
    spec.Spec.placement;
  Sink.add_string s "|cpu";
  add_floats s spec.Spec.cpu;
  Sink.add_string s "|edges";
  Array.iter
    (fun (e : Graph.edge) ->
      add_int_field s e.eid;
      add_int_field s e.src;
      add_int_field s e.dst;
      add_int_field s e.dst_port;
      Sink.add_float_bits s spec.Spec.bandwidth.(e.eid))
    (Graph.edges g);
  Sink.add_string s "|spec";
  Sink.add_float_bits s spec.Spec.cpu_budget;
  Sink.add_float_bits s spec.Spec.net_budget;
  Sink.add_float_bits s spec.Spec.alpha;
  Sink.add_float_bits s spec.Spec.beta;
  Sink.add_string s "|tiers";
  Array.iter
    (fun (t : Placement.tier) ->
      add_s s t.Placement.tname;
      add_floats s t.Placement.cpu;
      Sink.add_float_bits s t.Placement.cpu_budget;
      Sink.add_float_bits s t.Placement.alpha)
    pl.Placement.tiers;
  Sink.add_string s "|links";
  Array.iter
    (fun (l : Placement.link) ->
      add_s s l.Placement.lname;
      Sink.add_float_bits s l.Placement.net_budget;
      Sink.add_float_bits s l.Placement.beta)
    pl.Placement.links;
  (* tree topologies and per-operator tier pins extend the key; the
     degenerate chain with no pins keeps its historical bytes, so
     every pre-topology digest (caches, checkpoints) stays valid *)
  if
    (not (Placement.Topology.is_chain pl.Placement.topology))
    || Array.exists Option.is_some pl.Placement.tier_pins
  then begin
    Sink.add_string s "|topo";
    Array.iter (add_int_field s)
      (Placement.Topology.parents pl.Placement.topology);
    Sink.add_string s "|tpins";
    Array.iter
      (fun p ->
        match p with
        | None -> Sink.add_char s '.'
        | Some tp -> add_int_field s tp)
      pl.Placement.tier_pins
  end;
  Sink.digest s

(* ---- the key memo ------------------------------------------------- *)

(* A placement's instance key with shallow copies of every array
   [instance_key] reads, taken in the call that rendered it.  Placements
   carry mutable arrays, so a later batch reuses the key only after
   [unchanged] finds every element as it was: records and constructors
   by physical equality (their fields are immutable), floats by their
   bits.  On eeg14 the check takes about a twentieth of the time the
   key takes to render and hash (DESIGN.md §16).  The records of
   [Placement.t] and [Spec.t] are immutable and [Topology.t] is
   abstract, so a placement found by physical identity still holds
   these very arrays. *)
type keyed = {
  k_key : string;
  k_ops : Op.t array;
  k_edges : Graph.edge array;
  k_pins : Movable.placement array;
  k_cpu : float array;
  k_bandwidth : float array;
  k_tiers : Placement.tier array;
  k_tier_cpu : float array array;
  k_links : Placement.link array;
  k_tier_pins : int option array;
}

let keyed (pl : Placement.t) key =
  let spec = pl.Placement.spec in
  let g = spec.Spec.graph in
  {
    k_key = key;
    k_ops = Array.copy (Graph.ops g);
    k_edges = Array.copy (Graph.edges g);
    k_pins = Array.copy spec.Spec.placement;
    k_cpu = Array.copy spec.Spec.cpu;
    k_bandwidth = Array.copy spec.Spec.bandwidth;
    k_tiers = Array.copy pl.Placement.tiers;
    k_tier_cpu =
      Array.map (fun (t : Placement.tier) -> Array.copy t.Placement.cpu)
        pl.Placement.tiers;
    k_links = Array.copy pl.Placement.links;
    k_tier_pins = Array.copy pl.Placement.tier_pins;
  }

(* element [i] onwards, by physical equality or by float bits; no
   closure, so a check allocates nothing *)
let rec same_from i a b =
  i = Array.length a || (a.(i) == b.(i) && same_from (i + 1) a b)

let rec same_bits_from i (a : float array) (b : float array) =
  i = Array.length a
  || Int64.bits_of_float a.(i) = Int64.bits_of_float b.(i)
     && same_bits_from (i + 1) a b

let same_elements a b = Array.length a = Array.length b && same_from 0 a b

let same_bits a b = Array.length a = Array.length b && same_bits_from 0 a b

let rec same_tier_costs i copies (tiers : Placement.tier array) =
  i = Array.length tiers
  || same_bits copies.(i) tiers.(i).Placement.cpu
     && same_tier_costs (i + 1) copies tiers

let unchanged k (pl : Placement.t) =
  let spec = pl.Placement.spec in
  let g = spec.Spec.graph in
  same_elements k.k_ops (Graph.ops g)
  && same_elements k.k_edges (Graph.edges g)
  && same_elements k.k_pins spec.Spec.placement
  && same_bits k.k_cpu spec.Spec.cpu
  && same_bits k.k_bandwidth spec.Spec.bandwidth
  && same_elements k.k_tiers pl.Placement.tiers
  && same_tier_costs 0 k.k_tier_cpu pl.Placement.tiers
  && same_elements k.k_links pl.Placement.links
  && same_elements k.k_tier_pins pl.Placement.tier_pins

(* The memo's table: placements by physical identity, hashed by their
   sizes, which no mutation can change, so a placement mutated in place
   stays in its bucket. *)
module Memo = Hashtbl.Make (struct
  type t = Placement.t

  let equal = ( == )

  let hash (pl : Placement.t) =
    let g = pl.Placement.spec.Spec.graph in
    Hashtbl.hash (Graph.n_ops g, Graph.n_edges g, Array.length pl.Placement.tiers)
end)

(* placements by physical identity, for one batch's key slots; hashing
   their content is safe only because the call is synchronous *)
module Phys = Hashtbl.Make (struct
  type t = Placement.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let answer_digest a =
  let s = sink () in
  let add_tiers tier_of = Array.iter (add_int_field s) tier_of in
  (match a with
  | Placed { rate; report } ->
      Sink.add_string s "placed;";
      Sink.add_float_bits s rate;
      Sink.add_float_bits s report.Placement.objective;
      add_tiers report.Placement.tier_of
  | Degraded { rate; report; gap } ->
      Sink.add_string s "degraded;";
      Sink.add_float_bits s rate;
      Sink.add_float_bits s report.Placement.objective;
      Sink.add_float_bits s gap;
      add_tiers report.Placement.tier_of
  | Infeasible -> Sink.add_string s "infeasible"
  | Failed m ->
      Sink.add_string s "failed;";
      Sink.add_string s m);
  Sink.digest s

(* ---- the shared solve path --------------------------------------- *)

(* The certified interval a degraded answer reports: the true optimum
   lies within [gap] (relatively) of the incumbent's objective.  Both
   quantities come from the branch & bound itself, so the bound is as
   strong as the proof would have been. *)
let relative_gap (report : Placement.report) =
  let s = report.Placement.solver in
  Float.abs (report.Placement.objective -. s.Lp.Branch_bound.best_bound)
  /. Float.max 1. (Float.abs report.Placement.objective)

let classify ~rate (report : Placement.report) =
  if report.Placement.solver.Lp.Branch_bound.proved_optimal then
    Placed { rate; report }
  else Degraded { rate; report; gap = relative_gap report }

(* One function serves both the daemon and the no-service reference:
   byte-identity of served answers reduces to warm hints being
   answer-preserving, which the service-equivalence oracle fuzzes.
   Returns the answer and the branch & bound runs it took: one for a
   rate, the probe count for a search (one when no rate is feasible,
   which reports no count). *)
let solve_query ~options ~tol ~max_multiplier ?initial_tiers ?root_basis q =
  match q.request with
  | Rate r ->
      ( (match
           Placement.solve ~options ?initial:initial_tiers ?root_basis
             (Placement.scale_rate q.placement r)
         with
        | Placement.Partitioned report -> classify ~rate:r report
        | Placement.No_feasible_partition -> Infeasible
        | Placement.Solver_failure m -> Failed m),
        1 )
  | Search -> (
      match
        Rate_search.search_placement ~options ~tol ~max_multiplier
          ?initial_tiers ?root_basis q.placement
      with
      | Some
          { Rate_search.placement_multiplier; placement_report;
            placement_exact; placement_probes } ->
          ( (if placement_exact then
               Placed { rate = placement_multiplier; report = placement_report }
             else
               (* some probe died on the budget: the rate is a safe
                  lower bound and the gap certifies the placement at it *)
               Degraded
                 {
                   rate = placement_multiplier;
                   report = placement_report;
                   gap = relative_gap placement_report;
                 }),
            placement_probes )
      | None -> (Infeasible, 1))

let default_options = Lp.Branch_bound.default_options

let solve_direct ?(options = default_options) ?(tol = Rate_search.default_tol)
    ?(max_multiplier = Rate_search.default_max_multiplier) q =
  fst (solve_query ~options ~tol ~max_multiplier q)

(* What solving [q] again would cost, in deterministic work units: its
   placement's operators times the branch & bound runs its [answer]
   took, plus the simplex pivots of the answer's own run.  Never
   wall-clock, so the eviction order below is a pure function of the
   query history, on every shard count and in every process. *)
let cost q runs answer =
  let pivots =
    match answer with
    | Placed { report; _ } | Degraded { report; _ } ->
        report.Placement.solver.Lp.Branch_bound.total_pivots
    | Infeasible | Failed _ -> 0
  in
  (Graph.n_ops q.placement.Placement.spec.Spec.graph * runs) + pivots

(* ---- the daemon --------------------------------------------------- *)

(* The cache evicts by GreedyDual (Young 1994; Cao and Irani 1997):
   each entry's priority is the service's inflation value L plus the
   entry's [cost], set on insert and on every hit.  A full cache
   evicts the least priority, ties to the least recent stamp, and
   raises L to it, so an entry no query has asked for since ages
   against the ones asked for later: a cheap answer goes before a dear
   one asked for as recently, and a dear one goes once its cost has
   been spent waiting.  With equal costs this is LRU.  Every resident
   priority is at least L. *)
type entry = {
  e_answer : answer;
  e_digest : string;
  e_cost : int;
  mutable e_priority : int;
  mutable e_stamp : int;  (* recency: breaks priority ties *)
}

(* resident keys in eviction order, by (priority, stamp); stamps are
   unique, so no two entries share a slot *)
module Order = Map.Make (struct
  type t = int * int

  let compare ((p : int), (s : int)) (p', s') =
    if p <> p' then Int.compare p p' else Int.compare s s'
end)

(* A warm start: the tier assignment and root basis of a placed or
   degraded answer of the same instance at another rate or request. *)
type seed = { s_tiers : int array; s_basis : Lp.Basis.t option }

let seed_of = function
  | Placed { report; _ } | Degraded { report; _ } ->
      Some
        {
          s_tiers = report.Placement.tier_of;
          s_basis = report.Placement.solver.Lp.Branch_bound.root_basis;
        }
  | Infeasible | Failed _ -> None

(* An instance's warm anchor: the seed of its most recently committed
   placed or degraded answer, kept when that answer's entry is evicted. *)
type anchor = {
  a_seed : seed;
  a_born : int;  (* commit stamp: the anchor committed longest ago goes first *)
}

type t = {
  capacity : int;
  options : Lp.Branch_bound.options;
  tol : float;
  max_multiplier : float;
  retries : int;
  fault_plan : Fault_plan.t;
  table : (string, entry) Hashtbl.t;
  mutable order : string Order.t;  (* [table]'s keys by eviction order *)
  mutable inflation : int;  (* GreedyDual's L *)
  anchors : (string, anchor) Hashtbl.t;  (* by instance key, <= capacity *)
  memo : keyed Memo.t;  (* placements that came back, <= capacity *)
  mutable last_batch : int Phys.t;  (* the previous batch's placements *)
  mutable clock : int;
  mutable counts : counters;  (* [resident] is read from [table] *)
}

let create ?(capacity = 512) ?(options = default_options)
    ?(tol = Rate_search.default_tol)
    ?(max_multiplier = Rate_search.default_max_multiplier) ?(retries = 1)
    ?(fault_plan = Fault_plan.none) () =
  if capacity < 0 then invalid_arg "Service.create: negative capacity";
  if retries < 0 then invalid_arg "Service.create: negative retries";
  {
    capacity;
    options;
    tol;
    max_multiplier;
    retries;
    fault_plan;
    table = Hashtbl.create (Int.max 16 capacity);
    order = Order.empty;
    inflation = 0;
    anchors = Hashtbl.create 16;
    memo = Memo.create 16;
    last_batch = Phys.create 1;
    clock = 0;
    counts =
      {
        queries = 0; hits = 0; misses = 0; warm_starts = 0; inserts = 0;
        evictions = 0; resident = 0; ok = 0; degraded = 0; failed = 0;
        retries = 0; worker_deaths = 0; solve_cost = 0;
      };
  }

let counters t = { t.counts with resident = Hashtbl.length t.table }

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let request_tag t = function
  | Rate r -> Printf.sprintf "r:%Lx" (Int64.bits_of_float r)
  | Search ->
      Printf.sprintf "s:%Lx:%Lx"
        (Int64.bits_of_float t.tol)
        (Int64.bits_of_float t.max_multiplier)

let query_key t q = instance_key q.placement ^ "#" ^ request_tag t q.request

(* [pl] was just keyed to [key].  The memo stores the key with its
   copies once the placement has come back: when the previous batch
   sent it too, or when the memo holds it already (its content has
   changed since).  So a stream of fresh placement values copies
   nothing and keeps nothing past the next batch.  The memo holds at
   most [capacity] placements: it starts afresh when a new one would
   pass that. *)
let remember t pl key =
  if Memo.mem t.memo pl then Memo.replace t.memo pl (keyed pl key)
  else if t.capacity > 0 && Phys.mem t.last_batch pl then begin
    if Memo.length t.memo >= t.capacity then Memo.clear t.memo;
    Memo.add t.memo pl (keyed pl key)
  end

(* the key of [tbl]'s binding with the least [stamp]; stamps are
   unique, so the fold is deterministic whatever the iteration order *)
let oldest stamp tbl =
  Hashtbl.fold
    (fun k v best ->
      match best with
      | Some (_, b) when stamp b <= stamp v -> best
      | _ -> Some (k, v))
    tbl None
  |> Option.map fst

(* [seed] becomes [inst]'s anchor.  A new instance past [capacity]
   anchors takes the place of the one committed longest ago. *)
let set_anchor t inst stamp seed =
  if t.capacity > 0 then begin
    if
      Hashtbl.length t.anchors >= t.capacity && not (Hashtbl.mem t.anchors inst)
    then
      Option.iter (Hashtbl.remove t.anchors)
        (oldest (fun a -> a.a_born) t.anchors);
    Hashtbl.replace t.anchors inst { a_seed = seed; a_born = stamp }
  end

(* [e] at [key] takes the slot [priority], [stamp] *)
let place t key e ~priority ~stamp =
  e.e_priority <- priority;
  e.e_stamp <- stamp;
  t.order <- Order.add (priority, stamp) key t.order

(* a hit: [e] is priced afresh at the current inflation value *)
let refresh t key e =
  t.order <- Order.remove (e.e_priority, e.e_stamp) t.order;
  place t key e ~priority:(t.inflation + e.e_cost) ~stamp:(tick t)

(* The plan solves only keys absent from the table, each once, so
   [key] is new.  A full cache first evicts its least priority and
   raises the inflation value to it; the new entry is priced after
   that, so it is never its own victim (at capacity 0 it is, and
   nothing is kept). *)
let insert t ~key ~inst ~cost answer digest =
  let stamp = tick t in
  let c = t.counts in
  t.counts <- { c with inserts = c.inserts + 1 };
  if Hashtbl.length t.table >= t.capacity then begin
    (match Order.min_binding_opt t.order with
    | Some (((priority, _) as slot), victim) ->
        t.order <- Order.remove slot t.order;
        Hashtbl.remove t.table victim;
        t.inflation <- priority
    | None -> ());
    t.counts <- { t.counts with evictions = t.counts.evictions + 1 }
  end;
  if t.capacity > 0 then begin
    let e =
      { e_answer = answer; e_digest = digest; e_cost = cost; e_priority = 0;
        e_stamp = 0 }
    in
    Hashtbl.add t.table key e;
    place t key e ~priority:(t.inflation + cost) ~stamp
  end;
  Option.iter (set_anchor t inst stamp) (seed_of answer)

(* Per-query batch plan, fixed sequentially against the cache state at
   batch entry; the solves it schedules are data-independent, which is
   what makes query-level sharding answer-preserving. *)
type plan =
  | P_replay of entry
  | P_alias of int  (* exact duplicate of an earlier in-batch query *)
  | P_solve of seed option  (* its instance's anchor at batch entry *)

(* ---- the worker pool ---------------------------------------------- *)

(* Worker domains shared by every batch of every service.  Spawned
   and joined per 16-query batch, a second domain cost more than it
   saved, and a fresh domain starts from an empty minor heap.  The
   pool is spawned on first demand and grows to the most helpers any
   call has asked for; its workers never exit.

   A call posts one job: [unstarted] copies of its [work] for workers
   to take, while the caller runs one copy itself.  When the caller's
   copy returns it revokes the copies no worker has taken and waits
   for the taken ones, and only those: concurrent calls never wait on
   each other's work.  [Worker_killed] ends the copy that raised it,
   and its worker goes back to waiting; any other exception is
   re-raised to the caller once every taken copy has returned.

   Idle workers, and callers waiting for their copies, poll for
   [spin_s] before they block.  A blocked domain is slow to wake, and
   while one exists every minor collection in the process must wake
   it too: on a 2-vCPU VM one blocked domain slowed an allocating
   single-domain loop by 12 % (median of 30 interleaved samples), a
   polling one by 5 %. *)
module Pool = struct
  type job = {
    work : unit -> unit;
    mutable unstarted : int;
    running : int Atomic.t;
    mutable error : exn option;
    finished : Condition.t;  (* signalled when [running] drops to 0 *)
  }

  (* [lock] guards the queue, the worker count and every job's
     mutable fields; [waiting] and [running] change only under it *)
  let lock = Mutex.create ()
  let work_ready = Condition.create ()
  let jobs : job Queue.t = Queue.create ()
  let workers = ref 0
  let waiting = Atomic.make 0  (* copies posted and not yet taken *)

  (* longer than the sequential steps between a batch's two jobs and
     between batches in a closed loop *)
  let spin_s = 0.002

  let poll ready =
    let t0 = Unix.gettimeofday () in
    while (not (ready ())) && Unix.gettimeofday () -. t0 < spin_s do
      Domain.cpu_relax ()
    done

  let rec take () =
    match Queue.peek_opt jobs with
    | None ->
        Condition.wait work_ready lock;
        take ()
    | Some j ->
        if j.unstarted <= 1 then ignore (Queue.pop jobs);
        if j.unstarted = 0 then take ()
        else begin
          j.unstarted <- j.unstarted - 1;
          Atomic.decr waiting;
          Atomic.incr j.running;
          j
        end

  let outcome work =
    match work () with
    | () | (exception Worker_killed) -> None
    | exception e -> Some e

  let rec worker () =
    poll (fun () -> Atomic.get waiting > 0);
    let j = Mutex.protect lock take in
    let err = outcome j.work in
    Mutex.protect lock (fun () ->
        if Option.is_none j.error then j.error <- err;
        Atomic.decr j.running;
        if Atomic.get j.running = 0 then Condition.signal j.finished);
    worker ()

  (* [run ~helpers work] runs [work] on the calling domain and on up to
     [helpers] workers at once, and returns when every copy started
     has returned *)
  let run ~helpers work =
    if helpers <= 0 then Option.iter raise (outcome work)
    else begin
      let j =
        {
          work;
          unstarted = helpers;
          running = Atomic.make 0;
          error = None;
          finished = Condition.create ();
        }
      in
      Mutex.protect lock (fun () ->
          while !workers < helpers do
            ignore (Domain.spawn worker);
            incr workers
          done;
          Queue.push j jobs;
          ignore (Atomic.fetch_and_add waiting helpers);
          for _ = 1 to helpers do
            Condition.signal work_ready
          done);
      let err = outcome work in
      Mutex.protect lock (fun () ->
          ignore (Atomic.fetch_and_add waiting (-j.unstarted));
          j.unstarted <- 0);
      poll (fun () -> Atomic.get j.running = 0);
      let err =
        Mutex.protect lock (fun () ->
            while Atomic.get j.running > 0 do
              Condition.wait j.finished lock
            done;
            if Option.is_none err then j.error else err)
      in
      Option.iter raise err
    end
end

(* [f 0], ..., [f (n - 1)] on the calling domain and up to [shards - 1]
   pool workers, each claiming the next index from one cursor until
   none are left, so no domain idles while another holds a long item.
   Each index is claimed once and its writes are published to the
   caller by [Pool.run]'s lock. *)
let parallel ~shards n f =
  let cursor = Atomic.make 0 in
  let rec claim () =
    let k = Atomic.fetch_and_add cursor 1 in
    if k < n then begin
      f k;
      claim ()
    end
  in
  Pool.run ~helpers:(Int.min shards n - 1) claim

(* OCaml 5.1 runs at most 128 domains, the calling one included
   ([Max_domains] in caml/domain.h) *)
let max_shards = 128

let run_batch ?(shards = 1) t queries =
  if shards < 1 then invalid_arg "Service.run_batch: shards must be >= 1";
  if shards > max_shards then
    invalid_arg
      "Service.run_batch: shards must be <= 128, OCaml's domain limit";
  let n = Array.length queries in
  (* global query sequence numbers key the fault plan: decisions
     depend on the query history, never on sharding *)
  let base = t.counts.queries in
  t.counts <- { t.counts with queries = base + n };
  (* key each distinct placement once: a fleet batch repeats the same
     placement value at many rates, and a fleet sends the same values
     batch after batch.  A placement the memo holds (see [remember])
     reuses its key when [unchanged] finds it as it was; the rest are
     keyed in parallel.  Physical equality within the batch is safe
     only because the call is synchronous. *)
  let slot = Phys.create n and distinct = ref [] in
  let slots =
    Array.map
      (fun q ->
        match Phys.find_opt slot q.placement with
        | Some k -> k
        | None ->
            let k = Phys.length slot in
            Phys.add slot q.placement k;
            distinct := q.placement :: !distinct;
            k)
      queries
  in
  let distinct = Array.of_list (List.rev !distinct) in
  let inst_keys =
    Array.map
      (fun pl ->
        match Memo.find_opt t.memo pl with
        | Some k when unchanged k pl -> k.k_key
        | _ -> "")
      distinct
  in
  let stale =
    Array.of_list
      (List.filter
         (fun k -> inst_keys.(k) = "")
         (List.init (Array.length distinct) Fun.id))
  in
  parallel ~shards (Array.length stale) (fun j ->
      let k = stale.(j) in
      inst_keys.(k) <- instance_key distinct.(k));
  Array.iter (fun k -> remember t distinct.(k) inst_keys.(k)) stale;
  t.last_batch <- slot;
  let insts = Array.map (fun k -> inst_keys.(k)) slots in
  let keys =
    Array.mapi (fun i q -> insts.(i) ^ "#" ^ request_tag t q.request) queries
  in
  (* ---- plan (sequential) ---- *)
  let first_of_key = Hashtbl.create n in
  let plans =
    Array.init n (fun i ->
        match Hashtbl.find_opt t.table keys.(i) with
        | Some e ->
            t.counts <- { t.counts with hits = t.counts.hits + 1 };
            refresh t keys.(i) e;
            P_replay e
        | None -> (
            match Hashtbl.find_opt first_of_key keys.(i) with
            | Some j ->
                t.counts <- { t.counts with hits = t.counts.hits + 1 };
                P_alias j
            | None ->
                t.counts <- { t.counts with misses = t.counts.misses + 1 };
                Hashtbl.add first_of_key keys.(i) i;
                P_solve
                  (Option.map
                     (fun a -> a.a_seed)
                     (Hashtbl.find_opt t.anchors insts.(i)))))
  in
  (* ---- solve (sharded, supervised) ---- *)
  let results : (answer * int) option array = Array.make n None in
  let latency = Array.make n 0. in
  let killed = Array.make n false in
  let extra = Array.make n 0 in
  let work =
    Array.of_list
      (List.filter
         (fun i -> match plans.(i) with P_solve _ -> true | _ -> false)
         (List.init n Fun.id))
  in
  let solve_raw i ~crash_at =
    let options =
      match crash_at with
      | None -> t.options
      | Some k ->
          (* an attempt-local node counter drives the injected crash;
             composes with (and preserves) any caller-installed hook *)
          let count = ref 0 in
          let prev = t.options.Lp.Branch_bound.on_node in
          {
            t.options with
            Lp.Branch_bound.on_node =
              Some
                (fun ~nodes ~pivots ->
                  (match prev with Some f -> f ~nodes ~pivots | None -> ());
                  let c = !count in
                  incr count;
                  if c = k then
                    raise
                      (Injected_fault
                         (Printf.sprintf "injected crash at node %d" k)));
          }
    in
    match plans.(i) with
    | P_solve seed ->
        solve_query ~options ~tol:t.tol ~max_multiplier:t.max_multiplier
          ?initial_tiers:(Option.map (fun s -> s.s_tiers) seed)
          ?root_basis:(Option.bind seed (fun s -> s.s_basis))
          queries.(i)
    | P_replay _ | P_alias _ -> assert false
  in
  let attempt i a =
    match Fault_plan.decide t.fault_plan ~seq:(base + i) with
    | None -> solve_raw i ~crash_at:None
    | Some Fault_plan.Transient when a = 0 ->
        raise (Injected_fault "injected transient decline")
    | Some Fault_plan.Permanent ->
        raise (Injected_fault "injected permanent fault")
    | Some (Fault_plan.Crash_at k) when a = 0 -> solve_raw i ~crash_at:(Some k)
    | Some Fault_plan.Kill_worker when a = 0 ->
        killed.(i) <- true;
        raise Worker_killed
    | Some _ -> solve_raw i ~crash_at:None
  in
  (* The per-query supervisor: bounded retries with a small capped
     backoff, every exception except [Worker_killed] contained into a
     [Failed] answer.  [Invalid_argument] is the query's own fault (a
     NaN rate, say), which every attempt would meet again, so it fails
     at once.  A killed query resumes at attempt 1 (kills fire only at
     attempt 0, so it cannot die twice). *)
  let supervised i =
    let start = if killed.(i) then 1 else 0 in
    let t0 = Unix.gettimeofday () in
    let rec go a =
      match attempt i a with
      | ans ->
          extra.(i) <- a;
          ans
      | exception Worker_killed -> raise Worker_killed
      | exception e ->
          let deterministic =
            match e with Invalid_argument _ -> true | _ -> false
          in
          if a < start + t.retries && not deterministic then begin
            Unix.sleepf (Float.min 0.02 (0.002 *. float_of_int (1 lsl (a - start))));
            go (a + 1)
          end
          else begin
            extra.(i) <- a;
            (Failed (Printexc.to_string e), 1)
          end
    in
    let ans = go start in
    latency.(i) <- latency.(i) +. ((Unix.gettimeofday () -. t0) *. 1000.);
    results.(i) <- Some ans
  in
  (* a killed domain, the calling one included, stops claiming; its
     writes are published like any other's *)
  parallel ~shards (Array.length work) (fun k -> supervised work.(k));
  (* absorb worker deaths: anything a dead domain stranded re-runs
     inline, victims resuming at attempt 1.  Each pass either finishes
     every pending query or trips at least one fresh kill, and a query
     kills at most once, so this terminates. *)
  let rec sweep () =
    let pending =
      List.filter (fun i -> results.(i) = None) (Array.to_list work)
    in
    if pending <> [] then begin
      (try List.iter supervised pending with Worker_killed -> ());
      sweep ()
    end
  in
  sweep ();
  (* only solved queries retry or die *)
  let sum = Array.fold_left ( + ) 0 and c = t.counts in
  t.counts <-
    {
      c with
      retries = c.retries + sum extra;
      worker_deaths = c.worker_deaths + sum (Array.map Bool.to_int killed);
    };
  (* ---- commit (sequential, query order) ---- *)
  let out = Array.make n None in
  for i = 0 to n - 1 do
    (match plans.(i) with
    | P_replay e -> out.(i) <- Some (e.e_answer, e.e_digest, Hit)
    | P_alias j ->
        let a, d, _ = Option.get out.(j) in
        out.(i) <- Some (a, d, Hit)
    | P_solve seed ->
        let a, runs = Option.get results.(i) in
        let cost = cost queries.(i) runs a in
        let d = answer_digest a in
        let c = t.counts in
        t.counts <- { c with solve_cost = c.solve_cost + cost };
        let served =
          if Option.is_some seed then begin
            let c = t.counts in
            t.counts <- { c with warm_starts = c.warm_starts + 1 };
            Warm_start
          end
          else Cold
        in
        out.(i) <- Some (a, d, served);
        (* failures are not worth pinning in the cache; with the
           default full-proof options and no fault plan they cannot
           occur.  Degraded answers are deterministic and cached. *)
        (match a with
        | Failed _ -> ()
        | Placed _ | Degraded _ | Infeasible ->
            insert t ~key:keys.(i) ~inst:insts.(i) ~cost a d));
    let c = t.counts in
    t.counts <-
      (match Option.get out.(i) with
      | (Placed _ | Infeasible), _, _ -> { c with ok = c.ok + 1 }
      | Degraded _, _, _ -> { c with degraded = c.degraded + 1 }
      | Failed _, _, _ -> { c with failed = c.failed + 1 })
  done;
  let c = counters t in
  Array.init n (fun i ->
      let answer, digest, served = Option.get out.(i) in
      { answer; digest; served; latency_ms = latency.(i); counters = c })

(* ---- crash-safe checkpoints --------------------------------------- *)

type restore_outcome = Restored of int | Cold_start of string

let magic_prefix = "WISHBONE-SERVICE-CHECKPOINT "
let version = "v5"
let magic = magic_prefix ^ version

(* Snapshot layout: the magic line, then one framed section — an ASCII
   "length md5hex" header line followed by that many Marshal bytes of
   a [snapshot] value.  The section's bytes are digest-checked on
   load, and each entry's stored answer digest is recomputed from the
   answer itself, so bit rot anywhere degrades to a cold cache rather
   than a wrong replay.  Each entry carries its cost, priority and
   stamp, and the snapshot the inflation value, so a restored cache
   evicts as the one that was saved would have.  Marshal keeps the
   sharing within one value: an anchor whose answer is resident is
   written as a reference to that entry's tier array and basis, and
   restored sharing them.  The
   solver options are stored so that answers cached under one budget
   never replay under another; the [on_node] hook, retries and the
   fault plan are configuration and are not persisted. *)

let write_section oc payload =
  let s = Marshal.to_string payload [] in
  Printf.fprintf oc "%d %s\n" (String.length s)
    (Digest.to_hex (Digest.string s));
  output_string oc s

let read_section ic =
  let line = input_line ic in
  match String.index_opt line ' ' with
  | None -> failwith "malformed section header"
  | Some sp -> (
      match int_of_string_opt (String.sub line 0 sp) with
      | None -> failwith "malformed section length"
      | Some len ->
          (* a length past the end of the file is corrupt: reject it
             before [really_input_string] allocates that many bytes *)
          if len < 0 || len > in_channel_length ic - pos_in ic then
            failwith "section length past the end of the snapshot";
          let md5 = String.sub line (sp + 1) (String.length line - sp - 1) in
          let s = really_input_string ic len in
          if Digest.to_hex (Digest.string s) <> md5 then
            failwith "section bytes fail their digest";
          Marshal.from_string s 0)

(* every solver option but the [on_node] hook, floats as bits, with
   the solver tolerances in the slots they held as options, so a change
   to one still marks older snapshots stale; the record pattern is
   exhaustive, so a new option must be added here *)
type options_wire = int list * int64 list * bool

let options_wire
    { Lp.Branch_bound.max_nodes; gap_tol; time_limit; pivot_budget;
      on_node = _; warm_start; simplex = { Lp.Simplex.max_pivots } }
    : options_wire =
  ( [ max_nodes; pivot_budget; max_pivots; Lp.Simplex.degen_window ],
    List.map Int64.bits_of_float
      [ Lp.Branch_bound.int_tol; gap_tol; time_limit; Lp.Simplex.feas_tol;
        Lp.Simplex.cost_tol ],
    warm_start )

type snapshot = {
  ck_capacity : int;
  ck_tol : int64;  (* bits *)
  ck_max_multiplier : int64;  (* bits *)
  ck_options : options_wire;
  ck_clock : int;
  ck_inflation : int;
  ck_counters : counters;
  ck_entries : (string * entry) list;  (* by key, in stamp order *)
  ck_anchors : (string * anchor) list;  (* by instance key, in commit order *)
}

(* An answer as a snapshot stores it: the wall-clock fields of its
   solver statistics read 0, so equal histories write equal bytes in
   any process.  No digest reads them. *)
let without_times answer =
  let strip (r : Placement.report) =
    let s = r.Placement.solver in
    {
      r with
      Placement.solver =
        {
          s with
          Lp.Branch_bound.time_to_incumbent = 0.;
          time_total = 0.;
          incumbent_trace =
            List.map (fun (_, obj) -> (0., obj)) s.Lp.Branch_bound.incumbent_trace;
        };
    }
  in
  match answer with
  | Placed p -> Placed { p with report = strip p.report }
  | Degraded d -> Degraded { d with report = strip d.report }
  | Infeasible | Failed _ -> answer

let checkpoint t path =
  (* stamp order: equal services write byte-identical snapshots
     regardless of hash-table iteration order *)
  let sorted stamp tbl =
    List.sort
      (fun (_, a) (_, b) -> compare (stamp a) (stamp b))
      (List.of_seq (Hashtbl.to_seq tbl))
  in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> try close_out oc with Sys_error _ -> ())
    (fun () ->
      output_string oc (magic ^ "\n");
      write_section oc
        {
          ck_capacity = t.capacity;
          ck_tol = Int64.bits_of_float t.tol;
          ck_max_multiplier = Int64.bits_of_float t.max_multiplier;
          ck_options = options_wire t.options;
          ck_clock = t.clock;
          ck_inflation = t.inflation;
          ck_counters = t.counts;
          ck_entries =
            List.map
              (fun (key, e) ->
                (key, { e with e_answer = without_times e.e_answer }))
              (sorted (fun e -> e.e_stamp) t.table);
          ck_anchors = sorted (fun a -> a.a_born) t.anchors;
        });
  Sys.rename tmp path

let restore ?capacity ?options ?tol ?max_multiplier ?retries ?fault_plan path =
  let cold reason =
    ( create ?capacity ?options ?tol ?max_multiplier ?retries ?fault_plan (),
      Cold_start reason )
  in
  let want_tol = Option.value tol ~default:Rate_search.default_tol in
  let want_mm =
    Option.value max_multiplier ~default:Rate_search.default_max_multiplier
  in
  let want_opts =
    options_wire (Option.value options ~default:default_options)
  in
  match open_in_bin path with
  | exception Sys_error m -> cold ("cannot open snapshot: " ^ m)
  | ic ->
      let result =
        try
          let line = input_line ic in
          if line <> magic then
            failwith
              (if String.starts_with ~prefix:magic_prefix line then
                 Printf.sprintf "format %s, this build reads %s"
                   (String.sub line (String.length magic_prefix)
                      (String.length line - String.length magic_prefix))
                   version
               else "bad magic");
          let (s : snapshot) = read_section ic in
          (match input_line ic with
          | exception End_of_file -> ()
          | _ -> failwith "trailing bytes after the snapshot");
          if s.ck_capacity < 0 || s.ck_clock < 0 || s.ck_inflation < 0 then
            failwith "corrupt header";
          if
            s.ck_tol <> Int64.bits_of_float want_tol
            || s.ck_max_multiplier <> Int64.bits_of_float want_mm
          then failwith "stale parameters (tol/max-multiplier changed)";
          if s.ck_options <> want_opts then
            failwith "stale parameters (solver options changed)";
          let t =
            create ~capacity:s.ck_capacity ?options ~tol:want_tol
              ~max_multiplier:want_mm ?retries ?fault_plan ()
          in
          t.clock <- s.ck_clock;
          t.inflation <- s.ck_inflation;
          t.counts <- s.ck_counters;
          List.iter
            (fun (key, e) ->
              (* semantic integrity on top of the byte digest: the
                 stored answer must still hash to its stored digest,
                 and its price must be one the policy could set *)
              if answer_digest e.e_answer <> e.e_digest then
                failwith "entry answer fails its stored digest";
              if e.e_cost < 0 then failwith "entry with a negative cost";
              if e.e_priority < s.ck_inflation then
                failwith "entry priority below the inflation value";
              Hashtbl.replace t.table key e;
              place t key e ~priority:e.e_priority ~stamp:e.e_stamp)
            s.ck_entries;
          List.iter (fun (inst, a) -> Hashtbl.replace t.anchors inst a)
            s.ck_anchors;
          if Hashtbl.length t.table > s.ck_capacity then
            failwith "more entries than capacity";
          if Order.cardinal t.order <> Hashtbl.length t.table then
            failwith "entries repeat a key or a stamp";
          let n_anchors = List.length s.ck_anchors in
          if Hashtbl.length t.anchors <> n_anchors || n_anchors > s.ck_capacity
          then failwith "anchors repeat an instance or exceed capacity";
          Ok t
        with
        | Failure m -> Error m
        | End_of_file -> Error "truncated snapshot"
        | Sys_error m -> Error m
      in
      close_in_noerr ic;
      (match result with
      | Ok t -> (t, Restored (Hashtbl.length t.table))
      | Error m -> cold ("snapshot rejected: " ^ m))
