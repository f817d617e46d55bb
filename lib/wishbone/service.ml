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
   answer-preserving, which the service-equivalence oracle fuzzes. *)
let solve_query ~options ~tol ~max_multiplier ?initial_tiers ?root_basis q =
  match q.request with
  | Rate r -> (
      match
        Placement.solve ~options ?initial:initial_tiers ?root_basis
          (Placement.scale_rate q.placement r)
      with
      | Placement.Partitioned report -> classify ~rate:r report
      | Placement.No_feasible_partition -> Infeasible
      | Placement.Solver_failure m -> Failed m)
  | Search -> (
      match
        Rate_search.search_placement ~options ~tol ~max_multiplier
          ?initial_tiers ?root_basis q.placement
      with
      | Some
          { Rate_search.placement_multiplier; placement_report;
            placement_exact } ->
          if placement_exact then
            Placed { rate = placement_multiplier; report = placement_report }
          else
            (* some probe died on the budget: the rate is a safe lower
               bound and the gap certifies the placement at it *)
            Degraded
              {
                rate = placement_multiplier;
                report = placement_report;
                gap = relative_gap placement_report;
              }
      | None -> Infeasible)

let default_options = Lp.Branch_bound.default_options

let solve_direct ?(options = default_options) ?(tol = 0.01)
    ?(max_multiplier = 65536.) q =
  solve_query ~options ~tol ~max_multiplier q

(* ---- the daemon --------------------------------------------------- *)

type entry = {
  e_key : string;
  e_instance : string;
  e_answer : answer;
  e_digest : string;
  e_tiers : int array option;  (* warm-start seed for near-repeats *)
  e_basis : Lp.Basis.t option;
  e_born : int;  (* insertion stamp: the newest entry anchors warm starts *)
  mutable e_stamp : int;  (* recency stamp: least recent is evicted *)
}

type t = {
  capacity : int;
  options : Lp.Branch_bound.options;
  tol : float;
  max_multiplier : float;
  retries : int;
  fault_plan : Fault_plan.t;
  table : (string, entry) Hashtbl.t;
  mutable clock : int;
  mutable c_queries : int;
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_warm : int;
  mutable c_inserts : int;
  mutable c_evictions : int;
  mutable c_ok : int;
  mutable c_degraded : int;
  mutable c_failed : int;
  mutable c_retries : int;
  mutable c_deaths : int;
}

let create ?(capacity = 512) ?(options = default_options) ?(tol = 0.01)
    ?(max_multiplier = 65536.) ?(retries = 1) ?(fault_plan = Fault_plan.none)
    () =
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
    clock = 0;
    c_queries = 0;
    c_hits = 0;
    c_misses = 0;
    c_warm = 0;
    c_inserts = 0;
    c_evictions = 0;
    c_ok = 0;
    c_degraded = 0;
    c_failed = 0;
    c_retries = 0;
    c_deaths = 0;
  }

let counters t =
  {
    queries = t.c_queries;
    hits = t.c_hits;
    misses = t.c_misses;
    warm_starts = t.c_warm;
    inserts = t.c_inserts;
    evictions = t.c_evictions;
    resident = Hashtbl.length t.table;
    ok = t.c_ok;
    degraded = t.c_degraded;
    failed = t.c_failed;
    retries = t.c_retries;
    worker_deaths = t.c_deaths;
  }

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

(* The warm anchor for a missed query: the most recently inserted
   resident entry with the same placement structure and a stored tier
   assignment.  Insertion stamps are unique, so the fold is
   deterministic regardless of hash-table iteration order. *)
let warm_anchor t inst =
  Hashtbl.fold
    (fun _ e best ->
      if e.e_instance = inst && e.e_tiers <> None then
        match best with
        | Some b when b.e_born >= e.e_born -> best
        | _ -> Some e
      else best)
    t.table None

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun _ e best ->
        match best with
        | Some b when b.e_stamp <= e.e_stamp -> best
        | _ -> Some e)
      t.table None
  in
  match victim with
  | None -> ()
  | Some e ->
      Hashtbl.remove t.table e.e_key;
      t.c_evictions <- t.c_evictions + 1

let insert t ~key ~inst answer digest =
  let tiers, basis =
    match answer with
    | Placed { report; _ } | Degraded { report; _ } ->
        ( Some report.Placement.tier_of,
          report.Placement.solver.Lp.Branch_bound.root_basis )
    | Infeasible | Failed _ -> (None, None)
  in
  let stamp = tick t in
  Hashtbl.replace t.table key
    {
      e_key = key;
      e_instance = inst;
      e_answer = answer;
      e_digest = digest;
      e_tiers = tiers;
      e_basis = basis;
      e_born = stamp;
      e_stamp = stamp;
    };
  t.c_inserts <- t.c_inserts + 1;
  while Hashtbl.length t.table > t.capacity do
    evict_lru t
  done

(* Per-query batch plan, fixed sequentially against the cache state at
   batch entry; the solves it schedules are data-independent, which is
   what makes query-level sharding answer-preserving. *)
type plan =
  | P_replay of entry
  | P_alias of int  (* exact duplicate of an earlier in-batch query *)
  | P_solve of { seed_tiers : int array option; seed_basis : Lp.Basis.t option }

(* placements by physical identity, for the batch-local key memo *)
module Phys = Hashtbl.Make (struct
  type t = Placement.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

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
  let base = t.c_queries in
  t.c_queries <- t.c_queries + n;
  (* key each distinct placement once, in parallel: a fleet batch
     repeats the same placement value at many rates.  Physical equality
     is safe only because the call is synchronous; placements carry
     mutable arrays, so across batches the cache stays keyed by
     content. *)
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
  let inst_keys = Array.make (Array.length distinct) "" in
  parallel ~shards (Array.length distinct) (fun k ->
      inst_keys.(k) <- instance_key distinct.(k));
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
            t.c_hits <- t.c_hits + 1;
            e.e_stamp <- tick t;
            P_replay e
        | None -> (
            match Hashtbl.find_opt first_of_key keys.(i) with
            | Some j ->
                t.c_hits <- t.c_hits + 1;
                P_alias j
            | None ->
                t.c_misses <- t.c_misses + 1;
                Hashtbl.add first_of_key keys.(i) i;
                let seed_tiers, seed_basis =
                  match warm_anchor t insts.(i) with
                  | Some e ->
                      t.c_warm <- t.c_warm + 1;
                      (e.e_tiers, e.e_basis)
                  | None -> (None, None)
                in
                P_solve { seed_tiers; seed_basis }))
  in
  (* ---- solve (sharded, supervised) ---- *)
  let results : answer option array = Array.make n None in
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
    | P_solve { seed_tiers; seed_basis } ->
        solve_query ~options ~tol:t.tol ~max_multiplier:t.max_multiplier
          ?initial_tiers:seed_tiers ?root_basis:seed_basis queries.(i)
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
     [Failed] answer.  A killed query resumes at attempt 1 (kills fire
     only at attempt 0, so it cannot die twice). *)
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
          if a < start + t.retries then begin
            Unix.sleepf (Float.min 0.02 (0.002 *. float_of_int (1 lsl (a - start))));
            go (a + 1)
          end
          else begin
            extra.(i) <- a;
            Failed (Printexc.to_string e)
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
  Array.iter (fun i -> t.c_retries <- t.c_retries + extra.(i)) work;
  Array.iter (fun k -> if k then t.c_deaths <- t.c_deaths + 1) killed;
  (* ---- commit (sequential, query order) ---- *)
  let out = Array.make n None in
  for i = 0 to n - 1 do
    (match plans.(i) with
    | P_replay e -> out.(i) <- Some (e.e_answer, e.e_digest, Hit)
    | P_alias j ->
        let a, d, _ = Option.get out.(j) in
        out.(i) <- Some (a, d, Hit)
    | P_solve { seed_tiers; seed_basis } ->
        let a = Option.get results.(i) in
        let d = answer_digest a in
        let served =
          if seed_tiers <> None || seed_basis <> None then Warm_start else Cold
        in
        out.(i) <- Some (a, d, served);
        (* failures are not worth pinning in the cache; with the
           default full-proof options and no fault plan they cannot
           occur.  Degraded answers are deterministic and cached. *)
        (match a with
        | Failed _ -> ()
        | Placed _ | Degraded _ | Infeasible ->
            insert t ~key:keys.(i) ~inst:insts.(i) a d));
    match Option.get out.(i) with
    | Placed _, _, _ | Infeasible, _, _ -> t.c_ok <- t.c_ok + 1
    | Degraded _, _, _ -> t.c_degraded <- t.c_degraded + 1
    | Failed _, _, _ -> t.c_failed <- t.c_failed + 1
  done;
  let c = counters t in
  Array.init n (fun i ->
      let answer, digest, served = Option.get out.(i) in
      { answer; digest; served; latency_ms = latency.(i); counters = c })

(* ---- crash-safe checkpoints --------------------------------------- *)

type restore_outcome = Restored of int | Cold_start of string

let magic = "WISHBONE-SERVICE-CHECKPOINT v2"

(* Snapshot layout: the magic line, then framed sections — an ASCII
   "length md5hex" header line followed by that many Marshal bytes.
   Section 0 is the header tuple (capacity, tol/max-multiplier bits,
   solver options, clock, counters, entry count); each entry follows
   as its own section.  Every section's bytes are digest-checked on
   load, and each entry's stored answer digest is recomputed from the
   answer itself, so bit rot anywhere degrades to a cold cache rather
   than a wrong replay.  The solver options are stored so that answers
   cached under one budget never replay under another; the [on_node]
   hook, retries and the fault plan are configuration and are not
   persisted. *)

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
          if len < 0 || len > 1 lsl 30 then failwith "absurd section length";
          let md5 = String.sub line (sp + 1) (String.length line - sp - 1) in
          let s = really_input_string ic len in
          if Digest.to_hex (Digest.string s) <> md5 then
            failwith "section bytes fail their digest";
          Marshal.from_string s 0)

(* every solver option but the [on_node] hook, floats as bits; the
   record pattern is exhaustive, so a new option must be added here *)
type options_wire = int list * int64 list * bool

let options_wire
    { Lp.Branch_bound.max_nodes; int_tol; gap_tol; time_limit; pivot_budget;
      on_node = _; warm_start;
      simplex = { Lp.Simplex.max_pivots; feas_tol; cost_tol; degen_window } }
    : options_wire =
  ( [ max_nodes; pivot_budget; max_pivots; degen_window ],
    List.map Int64.bits_of_float
      [ int_tol; gap_tol; time_limit; feas_tol; cost_tol ],
    warm_start )

type header = int * int64 * int64 * options_wire * int * int list * int

type entry_wire =
  string * string * answer * string * int array option * Lp.Basis.t option
  * int * int

let checkpoint t path =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> try close_out oc with Sys_error _ -> ())
    (fun () ->
      output_string oc (magic ^ "\n");
      write_section oc
        (( t.capacity,
           Int64.bits_of_float t.tol,
           Int64.bits_of_float t.max_multiplier,
           options_wire t.options,
           t.clock,
           [
             t.c_queries; t.c_hits; t.c_misses; t.c_warm; t.c_inserts;
             t.c_evictions; t.c_ok; t.c_degraded; t.c_failed; t.c_retries;
             t.c_deaths;
           ],
           Hashtbl.length t.table )
          : header);
      (* insertion-stamp order: equal caches write byte-identical
         snapshots regardless of hash-table iteration order *)
      let entries =
        List.sort
          (fun a b -> compare a.e_born b.e_born)
          (Hashtbl.fold (fun _ e acc -> e :: acc) t.table [])
      in
      List.iter
        (fun e ->
          write_section oc
            (( e.e_key, e.e_instance, e.e_answer, e.e_digest, e.e_tiers,
               e.e_basis, e.e_born, e.e_stamp )
              : entry_wire))
        entries);
  Sys.rename tmp path

let restore ?capacity ?options ?tol ?max_multiplier ?retries ?fault_plan path =
  let cold reason =
    ( create ?capacity ?options ?tol ?max_multiplier ?retries ?fault_plan (),
      Cold_start reason )
  in
  let want_tol = Option.value tol ~default:0.01 in
  let want_mm = Option.value max_multiplier ~default:65536. in
  let want_opts =
    options_wire (Option.value options ~default:default_options)
  in
  match open_in_bin path with
  | exception Sys_error m -> cold ("cannot open snapshot: " ^ m)
  | ic ->
      let result =
        try
          if input_line ic <> magic then failwith "bad magic"
          else begin
            let ((cap, tol_bits, mm_bits, opts, clock, counts, n_entries)
                  : header) =
              read_section ic
            in
            if cap < 0 || n_entries < 0 || clock < 0 then
              failwith "corrupt header";
            if
              tol_bits <> Int64.bits_of_float want_tol
              || mm_bits <> Int64.bits_of_float want_mm
            then failwith "stale parameters (tol/max-multiplier changed)";
            if opts <> want_opts then
              failwith "stale parameters (solver options changed)";
            let t =
              create ~capacity:cap ?options ~tol:want_tol
                ~max_multiplier:want_mm ?retries ?fault_plan ()
            in
            (match counts with
            | [ q; h; m; w; ins; ev; ok; dg; fl; rt; dk ] ->
                t.c_queries <- q;
                t.c_hits <- h;
                t.c_misses <- m;
                t.c_warm <- w;
                t.c_inserts <- ins;
                t.c_evictions <- ev;
                t.c_ok <- ok;
                t.c_degraded <- dg;
                t.c_failed <- fl;
                t.c_retries <- rt;
                t.c_deaths <- dk
            | _ -> failwith "corrupt counter block");
            t.clock <- clock;
            for _ = 1 to n_entries do
              let (( e_key, e_instance, e_answer, e_digest, e_tiers, e_basis,
                     e_born, e_stamp )
                    : entry_wire) =
                read_section ic
              in
              (* semantic integrity on top of the byte digest: the
                 stored answer must still hash to its stored digest *)
              if answer_digest e_answer <> e_digest then
                failwith "entry answer fails its stored digest";
              Hashtbl.replace t.table e_key
                {
                  e_key; e_instance; e_answer; e_digest; e_tiers; e_basis;
                  e_born; e_stamp;
                }
            done;
            (match input_line ic with
            | exception End_of_file -> ()
            | _ -> failwith "trailing bytes after the last entry");
            if Hashtbl.length t.table > cap then
              failwith "more entries than capacity";
            Ok t
          end
        with
        | Failure m -> Error m
        | End_of_file -> Error "truncated snapshot"
        | Sys_error m -> Error m
      in
      close_in_noerr ic;
      (match result with
      | Ok t -> (t, Restored (Hashtbl.length t.table))
      | Error m -> cold ("snapshot rejected: " ^ m))

let pp_response ppf r =
  let tag =
    match r.served with Hit -> "hit" | Warm_start -> "warm" | Cold -> "cold"
  in
  (match r.answer with
  | Placed { rate; report } ->
      Format.fprintf ppf "placed rate x%.4f objective %g" rate
        report.Placement.objective
  | Degraded { rate; report; gap } ->
      Format.fprintf ppf "degraded rate x%.4f objective %g gap %.3g" rate
        report.Placement.objective gap
  | Infeasible -> Format.fprintf ppf "infeasible"
  | Failed m -> Format.fprintf ppf "failed: %s" m);
  Format.fprintf ppf "  [%s, %.2f ms, %s]" tag r.latency_ms
    (String.sub r.digest 0 12)
