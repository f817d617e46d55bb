(* Network simulator tests: link arithmetic, testbed behaviour under
   light load / CPU overload / network overload, congestion collapse,
   the network profiling tool. *)

open Dataflow

let link = Netsim.Link.cc2420

(* simple probe app: node source -> server sink, payload configurable *)
let probe_app () =
  let b = Builder.create () in
  let s = Builder.in_node b (fun () -> Builder.source b ~name:"probe" ()) in
  (* the sink is attached outside the node namespace *)
  Builder.sink b ~name:"collect" s;
  (Builder.build b, Builder.op_id s)

let run ?(n_nodes = 1) ?(duration = 30.) ?(rate = 2.) ?(payload = 20)
    ?(platform = Profiler.Platform.tmote_sky) () =
  let graph, src = probe_app () in
  let config =
    Netsim.Testbed.default_config ~n_nodes ~duration ~seed:7 ~platform ~link ()
  in
  let sources =
    [
      {
        Netsim.Testbed.source = src;
        rate;
        gen =
          (fun ~node:_ ~seq:_ ->
            Value.Int16_arr (Array.make (Int.max 1 ((payload - 2) / 2)) 0));
      };
    ]
  in
  Netsim.Testbed.run config ~graph ~node_of:(fun i -> i = src) ~sources

(* ---- scheduler: wheel total order = (time, push seq) ---- *)

let drain s =
  let out = ref [] in
  while Netsim.Sched.pop s do
    out := (Netsim.Sched.time s, Netsim.Sched.event s) :: !out
  done;
  List.rev !out

let test_sched_wheel_sorted () =
  (* random times spanning lv0, lv1 and the overflow bucket; expect a
     stable sort by time (FIFO on equal timestamps) *)
  let rng = Prng.create 42 in
  let s = Netsim.Sched.create ~tick:1e-3 () in
  let evs =
    List.init 500 (fun i ->
        let t =
          match Prng.int rng 4 with
          | 0 -> Prng.float rng *. 0.25 (* lv0 frame *)
          | 1 -> Prng.float rng *. 60. (* lv1 frame *)
          | 2 -> 1000. +. (Prng.float rng *. 1000.) (* overflow *)
          | _ -> Float.of_int (Prng.int rng 20) *. 0.125 (* exact ties *)
        in
        (t, i))
  in
  List.iter (fun (t, e) -> Netsim.Sched.push s t e) evs;
  Alcotest.(check int) "length" 500 (Netsim.Sched.length s);
  let expect =
    List.stable_sort (fun (t1, _) (t2, _) -> Float.compare t1 t2) evs
  in
  Alcotest.(check (list (pair (float 0.) int))) "stable time order"
    expect (drain s)

let test_sched_wheel_interleaved () =
  (* simulation-shaped usage: each pop schedules followers at or after
     the popped time; compare against a reference stable sort *)
  let rng = Prng.create 77 in
  let s = Netsim.Sched.create ~tick:1e-4 () in
  let seq = ref 0 in
  let pushed = ref [] in
  let push t =
    Netsim.Sched.push s t !seq;
    pushed := (t, !seq) :: !pushed;
    incr seq
  in
  for _ = 1 to 50 do
    push (Prng.float rng *. 10.)
  done;
  let popped = ref [] in
  while Netsim.Sched.pop s do
    let t = Netsim.Sched.time s in
    popped := (t, Netsim.Sched.event s) :: !popped;
    if !seq < 400 then begin
      (* two followers: one at the popped instant (tie), one later *)
      push t;
      push (t +. (Prng.float rng *. 5.))
    end
  done;
  let expect =
    List.stable_sort
      (fun (t1, s1) (t2, s2) ->
        let c = Float.compare t1 t2 in
        if c <> 0 then c else Int.compare s1 s2)
      (List.rev !pushed)
  in
  Alcotest.(check (list (pair (float 0.) int)))
    "interleaved push/pop keeps the total order"
    expect (List.rev !popped)

(* [clear] then a replayed trace pops exactly as a fresh scheduler:
   trace 1 leaves events behind in every level, trace 2 runs on the
   cleared scheduler and on a fresh one, then both drain *)
type sched_op = Push of float * int | Pop

(* event times for a 1 ms tick *)
let gen_time =
  QCheck.Gen.(
    frequency
      [
        (3, float_bound_exclusive 0.25) (* lv0 frame *);
        (3, float_bound_exclusive 60.) (* lv1 frame *);
        (1, map (fun x -> 1000. +. x) (float_bound_exclusive 1000.))
        (* overflow *);
        (2, map (fun k -> Float.of_int k *. 0.125) (int_bound 20))
        (* exact ties *);
      ])

let gen_sched_trace =
  QCheck.Gen.(
    let op =
      frequency
        [ (3, map2 (fun t e -> Push (t, e)) gen_time (int_bound 1_000_000));
          (2, return Pop) ]
    in
    list_size (int_bound 300) op)

let print_sched_trace ops =
  String.concat " "
    (List.map
       (function Push (t, e) -> Printf.sprintf "push(%h,%d)" t e | Pop -> "pop")
       ops)

let play s ops =
  List.filter_map
    (function
      | Push (t, e) ->
          Netsim.Sched.push s t e;
          None
      | Pop ->
          let ok = Netsim.Sched.pop s in
          Some (ok, Netsim.Sched.time s, Netsim.Sched.event s))
    ops

let prop_sched_clear =
  QCheck.Test.make ~count:300 ~name:"clear then replay = fresh scheduler"
    (QCheck.make
       ~print:(QCheck.Print.pair print_sched_trace print_sched_trace)
       QCheck.Gen.(pair gen_sched_trace gen_sched_trace))
    (fun (first, second) ->
      let fresh () = Netsim.Sched.create ~tick:1e-3 () in
      let used = fresh () in
      ignore (play used first);
      Netsim.Sched.clear used;
      let emptied =
        Netsim.Sched.length used = 0
        && Netsim.Sched.time used = 0.
        && Netsim.Sched.event used = 0
      in
      let replay s =
        let pops = play s second in
        (pops, drain s)
      in
      emptied && replay used = replay (fresh ()))

(* The wheel against [Check.Reference]'s (time, push sequence)
   scheduler on interleaved push/pop traces: pushes at [gen_time]
   (exact ties on its 0.125 s grid, both wheel levels, the overflow
   bucket), at the last popped time and before it, with a [clear]
   mid-trace.  Every pop and the final drain must agree. *)
type ref_step = At of float | At_last | Before_last of float | Pop_next | Clear

let gen_ref_trace =
  QCheck.Gen.(
    let step =
      frequency
        [
          (4, map (fun t -> At t) gen_time);
          (1, return At_last);
          (1, map (fun f -> Before_last f) (float_bound_exclusive 1.));
          (4, return Pop_next);
        ]
    in
    map2
      (fun a b -> a @ (Clear :: b))
      (list_size (int_bound 150) step)
      (list_size (int_bound 150) step))

let print_ref_trace steps =
  String.concat " "
    (List.map
       (function
         | At t -> Printf.sprintf "at(%h)" t
         | At_last -> "at-last"
         | Before_last f -> Printf.sprintf "before-last(%h)" f
         | Pop_next -> "pop"
         | Clear -> "clear")
       steps)

let prop_wheel_matches_reference =
  QCheck.Test.make ~count:500 ~name:"wheel matches the reference scheduler"
    (QCheck.make ~print:print_ref_trace gen_ref_trace)
    (fun steps ->
      let w = Netsim.Sched.create ~capacity:16 ~tick:1e-3 () in
      let r = Check.Reference.sched () in
      let last = ref 0. and n = ref 0 in
      let push t =
        Netsim.Sched.push w t !n;
        Check.Reference.sched_push r t !n;
        incr n
      in
      let pop () =
        let got =
          if Netsim.Sched.pop w then
            Some (Netsim.Sched.time w, Netsim.Sched.event w)
          else None
        in
        Option.iter (fun (t, _) -> last := t) got;
        (got, Check.Reference.sched_pop r)
      in
      let step = function
        | At t -> push t; true
        | At_last -> push !last; true
        | Before_last f -> push (f *. !last); true
        | Pop_next ->
            let got, want = pop () in
            got = want
        | Clear ->
            Netsim.Sched.clear w;
            Check.Reference.sched_clear r;
            last := 0.;
            true
      in
      let rec drained () =
        match pop () with
        | None, None -> true
        | got, want -> got = want && drained ()
      in
      List.for_all step steps && drained ())

(* ---- Itbl: the testbed's int -> int tables ---- *)

(* the testbed's [(node, mid, attempt)] pack: attempt in the low 10
   bits, then a 31-bit message id, then the node *)
let key3 node mid att = (((node lsl 31) lor mid) lsl 10) lor att

type itbl_op =
  | Set of int * int
  | Remove of int
  | Get of int
  | Mem of int
  | Clear
  | Fold

(* Two shapes of case.  Random: keys from a key space of 5 to 5,120
   packs, so sets replace, removes miss and the table grows from its 8
   initial slots past 1,024.  Churn, the reassembly table's pattern:
   each pack is set once and removed after a random lifetime, so few
   keys are live while tombstones pile up and the table purges them at
   the same size. *)
let gen_itbl_random =
  QCheck.Gen.(
    int_range 1 16 >>= fun nodes ->
    int_range 1 64 >>= fun mids ->
    let key =
      map3 key3 (int_bound (nodes - 1)) (int_bound (mids - 1)) (int_range 1 5)
    in
    let op =
      frequency
        [
          (400, map2 (fun k v -> Set (k, v)) key (int_bound 1000));
          (300, map (fun k -> Remove k) key);
          (150, map (fun k -> Get k) key);
          (100, map (fun k -> Mem k) key);
          (45, return Fold);
          (1, return Clear);
        ]
    in
    list_size (int_range 0 4000) op)

let gen_itbl_churn =
  QCheck.Gen.(
    triple (int_range 1 16) (int_range 0 300) (int_range 0 2000)
    >>= fun (nodes, max_life, n) ->
    list_repeat n (triple (int_bound max_life) (int_bound 1000) (int_bound 9))
    >|= fun packs ->
    (* pack [j] is node [j mod nodes], then mid and attempt 1..5 *)
    let key j =
      let r = j / nodes in
      key3 (j mod nodes) (r / 5) (1 + (r mod 5))
    in
    List.concat
      (List.mapi
         (fun j (life, v, probe) ->
           let look =
             if probe < 4 then Get (key (Int.max 0 (j - probe)))
             else if probe < 7 then Mem (key (j + probe))
             else Fold
           in
           [ (2 * j, Set (key j, v)); ((2 * j) + 1, look);
             ((2 * (j + life)) + 1, Remove (key j)) ])
         packs)
    |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd)

let gen_itbl_ops = QCheck.Gen.oneof [ gen_itbl_random; gen_itbl_churn ]

let print_itbl_op = function
  | Set (k, v) -> Printf.sprintf "set %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Get k -> Printf.sprintf "get %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Clear -> "clear"
  | Fold -> "fold"

let prop_itbl_model =
  QCheck.Test.make ~count:200 ~name:"Itbl behaves as Hashtbl"
    (QCheck.make ~print:(QCheck.Print.list print_itbl_op) gen_itbl_ops)
    (fun ops ->
      let t = Netsim.Itbl.create ~capacity:8 () in
      let h = Hashtbl.create 8 in
      let bindings fold x =
        List.sort compare (fold (fun k v acc -> (k, v) :: acc) x [])
      in
      List.for_all
        (fun op ->
          let agrees =
            match op with
            | Set (k, v) ->
                Netsim.Itbl.set t k v;
                Hashtbl.replace h k v;
                true
            | Remove k ->
                Netsim.Itbl.remove t k;
                Hashtbl.remove h k;
                true
            | Get k ->
                Netsim.Itbl.get t k
                = Option.value (Hashtbl.find_opt h k) ~default:(-1)
            | Mem k -> Netsim.Itbl.mem t k = Hashtbl.mem h k
            | Clear ->
                Netsim.Itbl.clear t;
                Hashtbl.reset h;
                true
            | Fold -> bindings Netsim.Itbl.fold t = bindings Hashtbl.fold h
          in
          agrees && Netsim.Itbl.length t = Hashtbl.length h)
        ops)

let test_itbl_start_slot_spread () =
  (* a 16-node cell's first attempts of 16 messages each: the low bits
     of these keys are all the attempt number, 1 *)
  let t = Netsim.Itbl.create ~capacity:256 () in
  let slots = Hashtbl.create 256 in
  for node = 0 to 15 do
    for mid = 0 to 15 do
      let s = Netsim.Itbl.start_slot t (key3 node mid 1) in
      Alcotest.(check bool) "start slot in range" true (s >= 0 && s < 256);
      Hashtbl.replace slots s ()
    done
  done;
  let n = Hashtbl.length slots in
  Alcotest.(check bool)
    (Printf.sprintf "%d distinct start slots of 256 (need >= 128)" n)
    true (n >= 128)

(* ---- Prng: the stream every seeded result depends on ---- *)

let test_prng_stream_pinned () =
  let r = Prng.create 42 in
  let a = Prng.int64 r in
  let b = Prng.int64 r in
  let c = Prng.int64 r in
  Alcotest.(check (list int64))
    "first three int64s of create 42"
    [ -7450291807549245335L; 2958219263312191191L; 3069497704473277141L ]
    [ a; b; c ];
  Alcotest.(check int64)
    "first float of create 7, as bits"
    (Int64.bits_of_float 0x1.0c77123e98157p-1)
    (Int64.bits_of_float (Prng.float (Prng.create 7)));
  Alcotest.(check int) "derive 1 [2; 3]" (-684817335532982020)
    (Prng.derive 1 [ 2; 3 ])

(* ---- link arithmetic ---- *)

let test_link_packets_of_bytes () =
  Alcotest.(check int) "zero" 1 (Netsim.Link.packets_of_bytes link 0);
  Alcotest.(check int) "one" 1 (Netsim.Link.packets_of_bytes link 28);
  Alcotest.(check int) "two" 2 (Netsim.Link.packets_of_bytes link 29);
  Alcotest.(check int) "frame" 15 (Netsim.Link.packets_of_bytes link 402)

let test_link_airtime () =
  let t = Netsim.Link.packet_airtime link in
  Alcotest.(check bool) "airtime dominated by stack overhead" true
    (t > link.Netsim.Link.per_packet_overhead_s);
  let cap = Netsim.Link.saturation_msgs_per_sec link in
  Alcotest.(check bool) "TinyOS-like capacity" true (cap > 40. && cap < 120.)

(* ---- testbed ---- *)

let test_light_load_delivers () =
  let r = run ~rate:2. () in
  Alcotest.(check bool) "all inputs processed" true (r.input_fraction > 0.99);
  Alcotest.(check bool) "most messages arrive" true (r.msg_fraction > 0.9);
  Alcotest.(check bool) "sink saw them" true
    (r.sink_outputs = r.msgs_received);
  Alcotest.(check bool) "goodput is the product" true
    (Float.abs (r.goodput_fraction -. (r.input_fraction *. r.msg_fraction))
    < 1e-9)

let test_overload_collapses () =
  (* 402-byte messages at 40/s = 600 pkt/s >> 75 pkt/s capacity *)
  let r = run ~rate:40. ~payload:402 () in
  Alcotest.(check bool) "reception collapses" true (r.msg_fraction < 0.02);
  Alcotest.(check bool) "queue drops dominate" true
    (r.packets_lost_queue > r.packets_sent)

let test_goodput_not_monotone_in_rate () =
  (* §4.3's caveat: beyond saturation, offering more delivers less *)
  let delivered rate =
    let r = run ~rate ~payload:110 ~duration:30. () in
    Float.of_int r.msgs_received /. 30.
  in
  let low = delivered 8. in
  let high = delivered 200. in
  Alcotest.(check bool) "collapse beyond saturation" true (high < low)

let test_cpu_overload_drops_inputs () =
  (* a platform so slow it cannot keep up: most inputs missed *)
  let b = Builder.create () in
  let src = ref 0 in
  Builder.in_node b (fun () ->
      let s = Builder.source b ~name:"s" () in
      src := Builder.op_id s;
      let burn =
        Builder.map b ~name:"burn"
          (fun v -> (v, Workload.make ~float_ops:100_000. ()))
          s
      in
      Builder.sink b ~name:"k" burn);
  let graph = Builder.build b in
  let config =
    Netsim.Testbed.default_config ~n_nodes:1 ~duration:20. ~seed:3
      ~platform:Profiler.Platform.tmote_sky ~link ()
  in
  let sources =
    [
      {
        Netsim.Testbed.source = !src;
        rate = 10.;
        gen = (fun ~node:_ ~seq:_ -> Value.Int16_arr [| 1 |]);
      };
    ]
  in
  let r =
    Netsim.Testbed.run config ~graph
      ~node_of:(fun i -> i <> Graph.n_ops graph - 1)
      ~sources
  in
  (* 100k float ops = 1.5 s per input at 10 inputs/s *)
  Alcotest.(check bool) "inputs dropped" true (r.input_fraction < 0.15);
  Alcotest.(check bool) "node saturated" true (r.node_busy_fraction > 0.9);
  Alcotest.(check bool) "what is processed gets through" true
    (r.msg_fraction > 0.9)

let test_more_nodes_more_contention () =
  let single = run ~n_nodes:1 ~rate:4. ~payload:110 () in
  let many = run ~n_nodes:20 ~rate:4. ~payload:110 () in
  Alcotest.(check bool) "shared channel degrades reception" true
    (many.msg_fraction < single.msg_fraction -. 0.1)

let test_deterministic_given_seed () =
  let a = run ~rate:10. ~payload:110 () in
  let b = run ~rate:10. ~payload:110 () in
  Alcotest.(check int) "same receptions" a.msgs_received b.msgs_received;
  Alcotest.(check int) "same collisions" a.packets_lost_collision
    b.packets_lost_collision

let test_replicated_server_state () =
  (* stateful node-namespace op placed on the server: the server must
     keep one state instance per sending node *)
  let b = Builder.create () in
  let src = ref 0 in
  Builder.in_node b (fun () ->
      let s = Builder.source b ~name:"s" () in
      src := Builder.op_id s;
      let counted =
        Builder.stateful b ~name:"count"
          ~init:(fun () ->
            let n = ref 0 in
            fun ~port:_ _ ->
              incr n;
              ([ Value.Int !n ], Workload.zero))
          [ s ]
      in
      Builder.sink b ~name:"k" counted);
  let graph = Builder.build b in
  let config =
    {
      (Netsim.Testbed.default_config ~n_nodes:4 ~duration:20. ~seed:1
         ~platform:Profiler.Platform.gumstix ~link:Netsim.Link.wifi ())
      with
      Netsim.Testbed.per_packet_cpu_s = 0.;
    }
  in
  let sources =
    [
      {
        Netsim.Testbed.source = !src;
        rate = 1.;
        gen = (fun ~node:_ ~seq:_ -> Value.Int 0);
      };
    ]
  in
  (* "count" on the server: only the source stays on the node *)
  let r =
    Netsim.Testbed.run config ~graph ~node_of:(fun i -> i = !src) ~sources
  in
  (* with per-node state tables every node's stream counts from 1, so
     sink outputs equal messages received (no crash, no cross-talk) *)
  Alcotest.(check int) "every delivery produced output" r.msgs_received
    r.sink_outputs;
  Alcotest.(check bool) "deliveries happened" true (r.msgs_received > 40)

(* ---- netprofile ---- *)

let test_netprofile_sweep_shape () =
  let points =
    Netsim.Netprofile.sweep ~duration:15. ~n_nodes:1 ~link
      ~rates:[ 2.; 20.; 400. ] ()
  in
  match points with
  | [ low; mid; high ] ->
      Alcotest.(check bool) "low rate clean" true (low.reception > 0.9);
      Alcotest.(check bool) "mid rate ok" true (mid.reception > 0.8);
      Alcotest.(check bool) "overload collapses" true (high.reception < 0.5)
  | _ -> Alcotest.fail "expected 3 points"

let test_netprofile_max_send_rate () =
  let p =
    Netsim.Netprofile.max_send_rate ~duration:15. ~target:0.85 ~n_nodes:1 ~link ()
  in
  Alcotest.(check bool) "meets target" true (p.reception >= 0.85);
  Alcotest.(check bool) "single-packet rate near capacity" true
    (p.offered_msgs_per_sec > 20. && p.offered_msgs_per_sec < 120.)

let test_netprofile_shared_channel () =
  let p1 =
    Netsim.Netprofile.max_send_rate ~duration:15. ~n_nodes:1 ~link ()
  in
  let p20 =
    Netsim.Netprofile.max_send_rate ~duration:15. ~n_nodes:20 ~link ()
  in
  Alcotest.(check bool) "per-node share shrinks" true
    (p20.offered_msgs_per_sec < p1.offered_msgs_per_sec /. 4.)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "netsim"
    [
      ( "sched",
        [
          tc "wheel pops in stable (time, seq) order" test_sched_wheel_sorted;
          tc "interleaved push/pop total order" test_sched_wheel_interleaved;
          QCheck_alcotest.to_alcotest prop_sched_clear;
          QCheck_alcotest.to_alcotest prop_wheel_matches_reference;
        ] );
      ( "itbl",
        [
          QCheck_alcotest.to_alcotest prop_itbl_model;
          tc "key3 packs spread over start slots" test_itbl_start_slot_spread;
        ] );
      ("prng", [ tc "stream pinned" test_prng_stream_pinned ]);
      ( "link",
        [
          tc "fragmentation" test_link_packets_of_bytes;
          tc "airtime and capacity" test_link_airtime;
        ] );
      ( "testbed",
        [
          tc "light load delivers" test_light_load_delivers;
          tc "network overload collapses" test_overload_collapses;
          tc "goodput non-monotone in rate" test_goodput_not_monotone_in_rate;
          tc "cpu overload drops inputs" test_cpu_overload_drops_inputs;
          tc "contention scales with nodes" test_more_nodes_more_contention;
          tc "deterministic given seed" test_deterministic_given_seed;
          tc "replicated server state" test_replicated_server_state;
        ] );
      ( "netprofile",
        [
          tc "sweep shape" test_netprofile_sweep_shape;
          tc "max send rate" test_netprofile_max_send_rate;
          tc "shared channel" test_netprofile_shared_channel;
        ] );
    ]
