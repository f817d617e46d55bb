(* Tier-graph refactor regression suite.

   Four groups:
   - encodings pinned bit for bit: rows, bounds and objective of the
     eeg chains, the Y tree and a general encoding, and the LPs the
     fuzz generators draw;
   - pinned two-tier split runs: Multirun over two tiers must
     reproduce the pre-refactor engine bit-for-bit (sink digests,
     traffic counters, per-operator drop counts) on frozen seeds;
   - Figure 3 goldens solved through the generic placement core;
   - a hand-checked three-tier fixture where the optimum is computed
     on paper, solved by Placement and cross-checked against the
     independent brute force of Check.Reference;
   - a Multirun three-tier end-to-end run exercising per-link offered
     traffic, drop accounting, queue inspection and reset;
   - operators pinned past a tier's CPU budget answer no placement,
     while a pinned load that fits the budget exactly still places;
   - a tier assignment of the wrong length or with an out-of-range
     tier is infeasible, and a warm hint that is one changes no
     answer. *)

open Dataflow
open Wishbone

let feq ?(tol = 1e-6) = Alcotest.(check (float tol))

(* ---- pinned two-tier split-run regressions ------------------------- *)

(* Frozen before the Multirun refactor (see CHANGES.md): random specs
   and cuts from the check-library generator, 12 rounds of injections
   plus a final drain, under four shed configurations.  The digest is
   [Hashtbl.hash] of the ordered sink-value list; the tuple is
   (seed, digest, crossing elems, crossing bytes, dropped,
   per-op drop counts). *)

let pin_scenario ~seed ~shed =
  let rng = Prng.create seed in
  let cfg =
    {
      Check.Gen.default_cfg with
      Check.Gen.n_ops = 8;
      extra_edge_prob = 0.25;
      stateful_prob = 0.3;
      mode = Movable.Conservative;
      tightness = 0.5;
    }
  in
  let spec = Check.Gen.spec rng cfg in
  let cut = Check.Gen.random_cut rng spec in
  let g = spec.Spec.graph in
  let sources =
    Array.to_list (Graph.ops g)
    |> List.filter (fun (o : Op.t) -> o.side_effect = Op.Sensor_input)
    |> List.map (fun (o : Op.t) -> o.id)
  in
  let split =
    Runtime.Multirun.create ~links:[ shed ] ~n_tiers:2
      ~tier_of:(fun i -> if cut.(i) then 0 else 1)
      g
  in
  let sinks = ref [] in
  for k = 0 to 11 do
    List.iter
      (fun src ->
        let v = Value.Int ((17 * k) + src) in
        sinks :=
          List.rev_append (Runtime.Multirun.inject split ~source:src v) !sinks)
      sources
  done;
  sinks := List.rev_append (Runtime.Multirun.drain split) !sinks;
  let elems, bytes = Runtime.Multirun.link_traffic split 0 in
  ( Hashtbl.hash (List.rev !sinks),
    elems,
    bytes,
    Runtime.Multirun.link_dropped split 0,
    Array.to_list (Runtime.Multirun.link_drop_counts split 0) )

let pin_configs =
  [
    ("perfect", None);
    ( "drop_newest",
      Some
        {
          Runtime.Multirun.policy = Runtime.Shed.Drop_newest;
          capacity = 2;
          service = 1;
          seed = 11;
        } );
    ( "drop_oldest",
      Some
        {
          Runtime.Multirun.policy = Runtime.Shed.Drop_oldest;
          capacity = 3;
          service = 0;
          seed = 12;
        } );
    ( "sample_hold",
      Some
        {
          Runtime.Multirun.policy = Runtime.Shed.Sample_hold 0.5;
          capacity = 2;
          service = 1;
          seed = 13;
        } );
  ]

(* (seed, digest, elems, bytes, dropped, drop_counts) per config *)
let pins =
  [
    ( "perfect",
      [
        (1, 289291826, 61, 244, 0, [ 0; 0; 0; 0; 0; 0; 0; 0 ]);
        (2, 947484496, 64, 256, 0, [ 0; 0; 0; 0; 0; 0; 0; 0 ]);
        (3, 443827067, 1680, 6720, 0, [ 0; 0; 0; 0; 0; 0; 0; 0 ]);
        (4, 624045902, 30, 120, 0, [ 0; 0; 0; 0; 0; 0; 0; 0 ]);
        (5, 679183688, 72, 288, 0, [ 0; 0; 0; 0; 0; 0; 0; 0 ]);
      ] );
    ( "drop_newest",
      [
        (1, 801792612, 61, 244, 48, [ 12; 8; 0; 0; 0; 0; 28; 0 ]);
        (2, 391751413, 64, 256, 51, [ 0; 0; 0; 23; 0; 8; 20; 0 ]);
        (3, 571993385, 1680, 6720, 1667, [ 0; 0; 0; 0; 0; 0; 1667; 0 ]);
        (4, 624045902, 30, 120, 17, [ 0; 0; 11; 0; 6; 0; 0; 0 ]);
        (5, 507801830, 72, 288, 59, [ 12; 0; 23; 0; 24; 0; 0; 0 ]);
      ] );
    ( "drop_oldest",
      [
        (1, 1007542413, 61, 244, 58, [ 11; 15; 0; 0; 0; 0; 32; 0 ]);
        (2, 723223200, 64, 256, 61, [ 0; 0; 0; 28; 0; 9; 24; 0 ]);
        (3, 216106577, 1680, 6720, 1677, [ 0; 0; 0; 0; 0; 0; 1677; 0 ]);
        (4, 305261850, 30, 120, 27, [ 0; 5; 11; 0; 11; 0; 0; 0 ]);
        (5, 1027448750, 72, 288, 69, [ 23; 0; 22; 0; 24; 0; 0; 0 ]);
      ] );
    ( "sample_hold",
      [
        (1, 350400753, 61, 244, 48, [ 11; 9; 0; 0; 0; 0; 28; 0 ]);
        (2, 563632509, 64, 256, 51, [ 0; 0; 0; 21; 0; 7; 23; 0 ]);
        (3, 687985414, 1680, 6720, 1667, [ 0; 0; 0; 0; 0; 0; 1667; 0 ]);
        (4, 71636410, 30, 120, 17, [ 0; 1; 11; 0; 5; 0; 0; 0 ]);
        (5, 436312242, 72, 288, 59, [ 22; 0; 21; 0; 16; 0; 0; 0 ]);
      ] );
  ]

let test_splitrun_pins () =
  List.iter
    (fun (cname, expected) ->
      let shed = List.assoc cname pin_configs in
      List.iter
        (fun (seed, digest, elems, bytes, dropped, drop_counts) ->
          let d, e, b, dr, dc = pin_scenario ~seed ~shed in
          let lbl what = Printf.sprintf "%s seed %d: %s" cname seed what in
          Alcotest.(check int) (lbl "sink digest") digest d;
          Alcotest.(check int) (lbl "crossing elems") elems e;
          Alcotest.(check int) (lbl "crossing bytes") bytes b;
          Alcotest.(check int) (lbl "dropped") dropped dr;
          Alcotest.(check (list int)) (lbl "drop counts") drop_counts dc)
        expected)
    pins

(* ---- Figure 3 goldens through the generic core -------------------- *)

let solve_fig3 budget =
  let spec = Apps.Synthetic.fig3_spec ~cpu_budget:budget in
  match Placement.solve (Placement.of_spec spec) with
  | Placement.Partitioned r -> r
  | Placement.No_feasible_partition ->
      Alcotest.fail (Printf.sprintf "fig3 budget %g: no placement" budget)
  | Placement.Solver_failure m -> Alcotest.fail m

let test_fig3_cut_bandwidths () =
  List.iter
    (fun (budget, bw) ->
      let r = solve_fig3 budget in
      feq
        (Printf.sprintf "budget %g -> cut bandwidth %g" budget bw)
        bw
        r.Placement.link_net.(0))
    [ (2., 8.); (3., 6.); (4., 5.) ]

let test_fig3_partition_shape () =
  let r = solve_fig3 4. in
  let node_ops =
    List.filter
      (fun i -> r.Placement.tier_of.(i) = 0)
      (List.init (Array.length r.Placement.tier_of) Fun.id)
  in
  Alcotest.(check (list int)) "ops on the node at budget 4" [ 0; 3; 4 ]
    node_ops;
  feq "objective = cut bandwidth" r.Placement.link_net.(0)
    r.Placement.objective;
  (* the mirror A chain cuts the same 5 *)
  let pl = Placement.of_spec (Apps.Synthetic.fig3_spec ~cpu_budget:4.) in
  let a_chain = [| 0; 0; 0; 1; 1; 1 |] in
  Alcotest.(check bool) "A chain feasible" true
    (Placement.feasible pl ~tier_of:a_chain);
  feq "A chain co-optimal" r.Placement.objective
    (Placement.objective_value pl ~tier_of:a_chain)

(* ---- hand-checked three-tier fixture ------------------------------ *)

let passthrough () =
  Op.stateless_instance (fun v -> ([ v ], Workload.make ~call_ops:1. ()))

let mk_op ?(namespace = Op.Node) ?(stateful = false) ?(side_effect = Op.Pure)
    id name =
  { Op.id; name; kind = "t"; namespace; stateful; side_effect;
    fresh = passthrough }

(* src -> a -> b -> sink with edge bandwidths 10 / 4 / 2 B/s *)
let chain_graph () =
  let ops =
    [|
      mk_op ~side_effect:Op.Sensor_input 0 "src";
      mk_op 1 "a";
      mk_op 2 "b";
      mk_op ~namespace:Op.Server ~side_effect:Op.Display_output 3 "sink";
    |]
  in
  Graph.make ops [ (0, 1, 0); (1, 2, 0); (2, 3, 0) ]

let chain_spec () =
  let g = chain_graph () in
  match Movable.classify Movable.Conservative g with
  | Error m -> Alcotest.fail m
  | Ok placement ->
      {
        Spec.graph = g;
        placement;
        cpu = [| 0.5; 0.4; 0.4; 0. |];
        bandwidth = [| 10.; 4.; 2. |];
        cpu_budget = 1.0;
        net_budget = 1e9;
        alpha = 0.;
        beta = 1.;
      }

(* Worked by hand.  src is pinned to the mote, sink to the central
   server; a and b are free but must descend monotonically.  The mote
   (budget 1.0) cannot hold src+a+b (1.3), the microserver (budget
   0.15) can hold at most one of a/b (0.1 each).  A mote->central
   crossing is carried by both radio layers.  Candidates:

     a=mote,  b=micro   : 1.0*4  + 0.3*2  = 4.6   <- optimum
     a=mote,  b=central : 1.0*4  + 0.3*4  = 5.2
     a=micro, b=central : 1.0*10 + 0.3*4  = 11.2
     a=micro, b=micro   : micro CPU 0.2 > 0.15, infeasible
     a=b=mote           : mote CPU 1.3 > 1.0, infeasible
     a=b=central        : 1.0*10 + 0.3*10 = 13. *)
let test_three_tier_hand_checked () =
  let tt =
    Check.Reference.three_tier ~micro_cpu_budget:0.15
      ~micro_cpu:[| 0.; 0.1; 0.1; 0. |] (chain_spec ())
  in
  let mote_mote_micro_central = [ 0; 0; 1; 2 ] in
  (match Placement.solve tt with
  | Placement.Partitioned r ->
      Alcotest.(check (list int)) "tiers = [mote; mote; micro; central]"
        mote_mote_micro_central
        (Array.to_list r.Placement.tier_of);
      feq "objective" 4.6 r.Placement.objective;
      feq "mote cut" 4. r.Placement.link_net.(0);
      feq "micro cut" 2. r.Placement.link_net.(1);
      feq "mote cpu" 0.9 r.Placement.tier_cpu.(0);
      feq "micro cpu" 0.1 r.Placement.tier_cpu.(1);
      Alcotest.(check (list int)) "tier counts" [ 2; 1; 1 ]
        (List.map
           (fun tier -> List.length (Placement.ops_on r tier))
           [ 0; 1; 2 ])
  | _ -> Alcotest.fail "three-tier solve failed");
  match Check.Reference.three_tier_brute_force tt with
  | Some (tiers, obj) ->
      Alcotest.(check (list int)) "brute force agrees on tiers"
        mote_mote_micro_central (Array.to_list tiers);
      feq "brute force agrees on objective" 4.6 obj
  | None -> Alcotest.fail "brute force found no feasible assignment"

(* tightening the microserver out of the picture collapses to the
   two-tier optimum on the same chain *)
let test_three_tier_collapses_to_two () =
  let tt =
    Check.Reference.three_tier ~micro_cpu_budget:0.
      ~micro_cpu:[| 0.; 0.1; 0.1; 0. |] (chain_spec ())
  in
  match Placement.solve tt with
  | Placement.Partitioned r ->
      (* a on the mote, b forced past the empty microserver: the b->sink
         edge rides both layers, so 1.0*4 + 0.3*4 *)
      Alcotest.(check bool) "nobody on the microserver" true
        (Placement.ops_on r 1 = []);
      feq "objective" 5.2 r.Placement.objective
  | _ -> Alcotest.fail "three-tier solve failed"

(* ---- Multirun three-tier end-to-end ------------------------------- *)

(* The same chain at tiers [0;0;1;2]: the a->b crossing parks in a
   capacity-1 service-0 channel on link 0 (so only drain moves it),
   link 1 is perfect.  Injecting k samples offers k crossings on
   link 0, keeps 1 queued, drops k-1 — all charged to operator a. *)
let test_multirun_three_tier_e2e () =
  let g = chain_graph () in
  let tier_of = [| 0; 0; 1; 2 |] in
  let mr =
    Runtime.Multirun.create
      ~links:
        [
          Some
            {
              Runtime.Multirun.policy = Runtime.Shed.Drop_newest;
              capacity = 1;
              service = 0;
              seed = 7;
            };
          None;
        ]
      ~n_tiers:3
      ~tier_of:(fun i -> tier_of.(i))
      g
  in
  Alcotest.(check int) "3 tiers" 3 (Runtime.Multirun.n_tiers mr);
  Alcotest.(check int) "tier of b" 1 (Runtime.Multirun.tier_of mr 2);
  let rounds = 5 in
  for k = 1 to rounds do
    let out = Runtime.Multirun.inject mr ~source:0 (Value.Int k) in
    Alcotest.(check int)
      (Printf.sprintf "inject %d: nothing reaches the sink yet" k)
      0 (List.length out)
  done;
  let e0, b0 = Runtime.Multirun.link_traffic mr 0 in
  Alcotest.(check int) "link 0 offered elems" rounds e0;
  Alcotest.(check bool) "link 0 offered bytes" true (b0 > 0);
  Alcotest.(check int) "link 0 queued" 1 (Runtime.Multirun.link_queued mr 0);
  Alcotest.(check int) "link 0 dropped" (rounds - 1)
    (Runtime.Multirun.link_dropped mr 0);
  Alcotest.(check (list int)) "link 0 drops charged to a" [ 0; rounds - 1; 0; 0 ]
    (Array.to_list (Runtime.Multirun.link_drop_counts mr 0));
  (* link 1 is untouched until the queued crossing is serviced *)
  Alcotest.(check (pair int int)) "link 1 idle" (0, 0)
    (Runtime.Multirun.link_traffic mr 1);
  let sinks = Runtime.Multirun.drain mr in
  (* the surviving crossing fires b on tier 1; its output rides the
     perfect link 1 straight into the sink *)
  Alcotest.(check int) "one value reaches the sink" 1 (List.length sinks);
  Alcotest.(check int) "link 0 drained" 0 (Runtime.Multirun.link_queued mr 0);
  let e1, _ = Runtime.Multirun.link_traffic mr 1 in
  Alcotest.(check int) "link 1 carried the serviced crossing" 1 e1;
  Alcotest.(check int) "link 1 dropped nothing" 0
    (Runtime.Multirun.link_dropped mr 1);
  (* reset zeroes traffic and per-op drop accounting *)
  Runtime.Multirun.reset mr;
  Alcotest.(check (pair int int)) "reset: link 0 traffic" (0, 0)
    (Runtime.Multirun.link_traffic mr 0);
  Alcotest.(check int) "reset: link 0 queue flushed" 0
    (Runtime.Multirun.link_queued mr 0);
  Alcotest.(check (list int)) "reset: drop counts" [ 0; 0; 0; 0 ]
    (Array.to_list (Runtime.Multirun.link_drop_counts mr 0));
  let out = Runtime.Multirun.inject mr ~source:0 (Value.Int 99) in
  Alcotest.(check int) "engine still runs after reset" 0 (List.length out);
  Alcotest.(check int) "fresh crossing queued" 1
    (Runtime.Multirun.link_queued mr 0)

(* ---- hand-checked Y (tree) fixture -------------------------------- *)

(* Two independent sensing branches share the microserver -> root
   uplink:

        leafA(0)   leafB(1)
             \      /
              M(2)
               |
             root(3)        parents [|2;2;3;-1|]

   ops   srcA(0) -> a(1) -> sinkA(2)   edge bandwidths 4, 1 B/s
         srcB(3) -> b(4) -> sinkB(5)   edge bandwidths 4, 2 B/s

   srcA is pinned to leafA by classification, srcB tier-pinned onto
   leafB, both sinks to the root.  A leaf (budget 0.5) cannot hold
   src+filter (0.3+0.4); M (budget 0.3) holds at most one filter (0.2
   each).  Shared-uplink loads of the three candidates (betas 1/1/0.3,
   alphas 0):

     a=M,    b=root : e2 = 1+4 = 5,  obj 4 + 4 + 0.3*5 = 9.5  <- optimum
     a=root, b=M    : e2 = 4+2 = 6,  obj 9.8
     a=root, b=root : e2 = 4+4 = 8,  obj 10.4

   With shared budget 5.5 only the optimum fits.  At 4.9 the tree is
   infeasible although EACH branch taken alone as a 3-tier chain
   (shared-link load 1 resp. 2) still fits comfortably: the shared
   root edge binds, which any per-branch chain relaxation would
   over-admit. *)

let y_leaf_cpu = [| 0.3; 0.4; 0.; 0.3; 0.4; 0. |]

let y_spec () =
  let ops =
    [|
      mk_op ~side_effect:Op.Sensor_input 0 "srcA";
      mk_op 1 "a";
      mk_op ~namespace:Op.Server ~side_effect:Op.Display_output 2 "sinkA";
      mk_op ~side_effect:Op.Sensor_input 3 "srcB";
      mk_op 4 "b";
      mk_op ~namespace:Op.Server ~side_effect:Op.Display_output 5 "sinkB";
    |]
  in
  let g = Graph.make ops [ (0, 1, 0); (1, 2, 0); (3, 4, 0); (4, 5, 0) ] in
  match Movable.classify Movable.Conservative g with
  | Error m -> Alcotest.fail m
  | Ok placement ->
      {
        Spec.graph = g;
        placement;
        cpu = y_leaf_cpu;
        bandwidth = [| 4.; 1.; 4.; 2. |];
        cpu_budget = 0.5;
        net_budget = 1e9;
        alpha = 0.;
        beta = 1.;
      }

let y_placement ~shared_budget =
  let leaf tname =
    { Placement.tname; cpu = y_leaf_cpu; cpu_budget = 0.5; alpha = 0. }
  in
  Placement.v
    ~topology:(Placement.Topology.of_parents [| 2; 2; 3; -1 |])
    ~pins:[ (3, 1) ] (* srcB onto leafB, overriding its node pin *)
    ~spec:(y_spec ())
    ~tiers:
      [
        leaf "leafA";
        leaf "leafB";
        {
          Placement.tname = "micro";
          cpu = [| 0.; 0.2; 0.; 0.; 0.2; 0. |];
          cpu_budget = 0.3;
          alpha = 0.;
        };
        {
          Placement.tname = "root";
          cpu = Array.make 6 0.;
          cpu_budget = infinity;
          alpha = 0.;
        };
      ]
    ~links:
      [
        { Placement.lname = "leafA-up"; net_budget = infinity; beta = 1. };
        { Placement.lname = "leafB-up"; net_budget = infinity; beta = 1. };
        { Placement.lname = "shared-up"; net_budget = shared_budget;
          beta = 0.3 };
      ]
    ()

(* one branch of the Y alone, as the 3-tier chain leaf -> micro -> root
   over the same budgets and weights *)
let y_branch_placement ~last_bw ~shared_budget =
  let ops =
    [|
      mk_op ~side_effect:Op.Sensor_input 0 "src";
      mk_op 1 "f";
      mk_op ~namespace:Op.Server ~side_effect:Op.Display_output 2 "sink";
    |]
  in
  let g = Graph.make ops [ (0, 1, 0); (1, 2, 0) ] in
  match Movable.classify Movable.Conservative g with
  | Error m -> Alcotest.fail m
  | Ok placement ->
      let spec =
        {
          Spec.graph = g;
          placement;
          cpu = [| 0.3; 0.4; 0. |];
          bandwidth = [| 4.; last_bw |];
          cpu_budget = 0.5;
          net_budget = 1e9;
          alpha = 0.;
          beta = 1.;
        }
      in
      Placement.v ~spec
        ~tiers:
          [
            { Placement.tname = "leaf"; cpu = [| 0.3; 0.4; 0. |];
              cpu_budget = 0.5; alpha = 0. };
            { Placement.tname = "micro"; cpu = [| 0.; 0.2; 0. |];
              cpu_budget = 0.3; alpha = 0. };
            { Placement.tname = "root"; cpu = [| 0.; 0.; 0. |];
              cpu_budget = infinity; alpha = 0. };
          ]
        ~links:
          [
            { Placement.lname = "leaf-up"; net_budget = infinity; beta = 1. };
            { Placement.lname = "shared-up"; net_budget = shared_budget;
              beta = 0.3 };
          ]
        ()

let test_y_tree_hand_checked () =
  let pl = y_placement ~shared_budget:5.5 in
  (match Placement.solve pl with
  | Placement.Partitioned r ->
      Alcotest.(check (list int)) "tiers = srcA@leafA a@M sinkA@root ..."
        [ 0; 2; 3; 1; 3; 3 ]
        (Array.to_list r.Placement.tier_of);
      feq "objective" 9.5 r.Placement.objective;
      feq "leafA uplink" 4. r.Placement.link_net.(0);
      feq "leafB uplink" 4. r.Placement.link_net.(1);
      feq "shared uplink (binding)" 5. r.Placement.link_net.(2);
      List.iteri
        (fun p want ->
          feq (Printf.sprintf "tier %d cpu" p) want r.Placement.tier_cpu.(p))
        [ 0.3; 0.3; 0.2; 0. ];
      Alcotest.(check bool) "feasible accepts the optimum" true
        (Placement.feasible pl ~tier_of:r.Placement.tier_of)
  | Placement.No_feasible_partition ->
      Alcotest.fail "Y tree: expected a partition at shared budget 5.5"
  | Placement.Solver_failure m -> Alcotest.fail m);
  (* the bidirectional encoding lands on the same optimum *)
  match Placement.solve ~encoding:Placement.General pl with
  | Placement.Partitioned r -> feq "general objective" 9.5 r.Placement.objective
  | _ -> Alcotest.fail "Y tree: general encoding failed"

let test_y_tree_shared_edge_binds () =
  (match Placement.solve (y_placement ~shared_budget:4.9) with
  | Placement.No_feasible_partition -> ()
  | Placement.Partitioned r ->
      Alcotest.failf "tree at shared budget 4.9 should be infeasible, got %g"
        r.Placement.objective
  | Placement.Solver_failure m -> Alcotest.fail m);
  (* each branch alone still fits the very same shared budget *)
  List.iter
    (fun (name, last_bw) ->
      match Placement.solve (y_branch_placement ~last_bw ~shared_budget:4.9) with
      | Placement.Partitioned r ->
          Alcotest.(check (list int))
            (name ^ " alone stays feasible, filter on the microserver")
            [ 0; 1; 2 ]
            (Array.to_list r.Placement.tier_of)
      | _ -> Alcotest.fail (name ^ ": branch chain should stay feasible"))
    [ ("branch A", 1.); ("branch B", 2.) ];
  (* rate search: the shared uplink caps the tree at ~1.1x while either
     branch alone reaches its CPU-bound 1.5x *)
  (match Rate_search.search_placement (y_placement ~shared_budget:5.5) with
  | Some r ->
      let m = r.Rate_search.placement_multiplier in
      Alcotest.(check bool)
        (Printf.sprintf "tree multiplier %.3f within [1.0, 1.12]" m)
        true
        (m >= 1.0 && m <= 1.12)
  | None -> Alcotest.fail "tree rate search found no feasible rate");
  List.iter
    (fun (name, last_bw) ->
      match
        Rate_search.search_placement
          (y_branch_placement ~last_bw ~shared_budget:5.5)
      with
      | Some r ->
          let m = r.Rate_search.placement_multiplier in
          Alcotest.(check bool)
            (Printf.sprintf "%s multiplier %.3f >= 1.4" name m)
            true (m >= 1.4)
      | None -> Alcotest.fail (name ^ ": rate search found no feasible rate"))
    [ ("branch A", 1.); ("branch B", 2.) ]

(* ---- chain as a degenerate tree ----------------------------------- *)

(* the hand-checked three-tier chain built through an explicit
   [Topology.of_parents [|1;2;-1|]] must encode the byte-identical ILP
   and solve to the same partition as the implicit chain constructor *)
let chain3 ?topology () =
  let spec = chain_spec () in
  Placement.v ?topology ~spec
    ~tiers:
      [
        { Placement.tname = "mote"; cpu = spec.Spec.cpu; cpu_budget = 1.0;
          alpha = 0. };
        { Placement.tname = "micro"; cpu = [| 0.; 0.1; 0.1; 0. |];
          cpu_budget = 0.15; alpha = 0. };
        { Placement.tname = "central"; cpu = Array.make 4 0.;
          cpu_budget = infinity; alpha = 0. };
      ]
    ~links:
      [
        { Placement.lname = "radio0"; net_budget = 1e9; beta = 1. };
        { Placement.lname = "radio1"; net_budget = 1e9; beta = 0.3 };
      ]
    ()

let test_chain_tree_byte_identical () =
  let implicit = chain3 () in
  let explicit =
    chain3 ~topology:(Placement.Topology.of_parents [| 1; 2; -1 |]) ()
  in
  Alcotest.(check bool) "explicit 3-chain recognised as a chain" true
    (Placement.Topology.is_chain explicit.Placement.topology);
  List.iter
    (fun (label, encoding, contraction) ->
      let render t =
        let c = contraction t.Placement.spec in
        Format.asprintf "%a" Lp.Problem.pp
          (Placement.encode encoding t c).Placement.problem
      in
      Alcotest.(check string) (label ^ ": byte-identical ILP")
        (render implicit) (render explicit))
    [
      ("restricted/contracted", Placement.Restricted, Preprocess.contract);
      ("restricted/identity", Placement.Restricted, Preprocess.identity);
      ("general/identity", Placement.General, Preprocess.identity);
    ];
  match (Placement.solve implicit, Placement.solve explicit) with
  | Placement.Partitioned a, Placement.Partitioned b ->
      Alcotest.(check (list int)) "same tiers"
        (Array.to_list a.Placement.tier_of)
        (Array.to_list b.Placement.tier_of);
      feq "same objective" a.Placement.objective b.Placement.objective;
      (* and both equal the hand-checked three-tier optimum *)
      Alcotest.(check (list int)) "the known optimum" [ 0; 0; 1; 2 ]
        (Array.to_list b.Placement.tier_of);
      feq "the known objective" 4.6 b.Placement.objective
  | _ -> Alcotest.fail "chain-vs-tree solve failed"

(* ---- the 20-mote testbed as a routing star ------------------------- *)

let testbed_topology () =
  Placement.Topology.of_parents (Netsim.Testbed.routing_parents ~n_nodes:20)

(* [spec] deployed on the 20-mote star: every mote a copy of the spec's
   node tier, the unbudgeted basestation at the root *)
let testbed_star spec =
  let n_ops = Array.length spec.Spec.cpu in
  let mote k =
    { Placement.tname = Printf.sprintf "mote%d" k; cpu = spec.Spec.cpu;
      cpu_budget = spec.Spec.cpu_budget; alpha = spec.Spec.alpha }
  in
  Placement.v ~topology:(testbed_topology ()) ~spec
    ~tiers:
      (List.init 21 (fun k ->
           if k = 20 then
             { Placement.tname = "base"; cpu = Array.make n_ops 0.;
               cpu_budget = infinity; alpha = 0. }
           else mote k))
    ~links:
      (List.init 20 (fun k ->
           { Placement.lname = Printf.sprintf "radio%d" k;
             net_budget = spec.Spec.net_budget; beta = spec.Spec.beta }))
    ()

let test_testbed_star () =
  let topo = testbed_topology () in
  Alcotest.(check int) "21 tiers" 21 (Placement.Topology.n_tiers topo);
  Alcotest.(check int) "the basestation is the root" 20
    (Placement.Topology.root topo);
  Alcotest.(check bool) "not a chain" false (Placement.Topology.is_chain topo);
  Alcotest.(check (list int)) "every mote uplinks straight to the root"
    (List.init 20 Fun.id)
    (Placement.Topology.children topo 20);
  (* pinned golden of the canonical rendering (what service digests
     cover for non-chain instances) *)
  Alcotest.(check string) "topology golden"
    "[20;20;20;20;20;20;20;20;20;20;20;20;20;20;20;20;20;20;20;20;-1]"
    (Format.asprintf "%a" Placement.Topology.pp topo);
  (* figure 3 deployed on the star: sources sit on mote 0, every other
     mote idles, so the solve must reproduce the two-tier optimum with
     the whole cut on mote 0's uplink *)
  let spec = Apps.Synthetic.fig3_spec ~cpu_budget:4. in
  let star = testbed_star spec in
  match (Placement.solve star, Placement.solve (Placement.of_spec spec)) with
  | Placement.Partitioned s, Placement.Partitioned two ->
      feq "star objective = two-tier objective" two.Placement.objective
        s.Placement.objective;
      feq "mote 0's uplink carries the two-tier cut"
        two.Placement.link_net.(0) s.Placement.link_net.(0);
      for k = 1 to 19 do
        feq (Printf.sprintf "radio%d idle" k) 0. s.Placement.link_net.(k)
      done;
      (* fig3 has co-optimal splits, so don't pin the exact assignment:
         everything must sit on mote 0 or the base, and mapping the
         star's split back onto the two-tier instance must be feasible
         at the same objective *)
      Alcotest.(check bool) "only mote 0 and the base are used" true
        (Array.for_all (fun t -> t = 0 || t = 20) s.Placement.tier_of);
      let two_t = Placement.of_spec spec in
      let mapped =
        Array.map (fun t -> if t = 0 then 0 else 1) s.Placement.tier_of
      in
      Alcotest.(check bool) "mapped split feasible on two tiers" true
        (Placement.feasible two_t ~tier_of:mapped);
      feq "mapped split co-optimal on two tiers" two.Placement.objective
        (Placement.objective_value two_t ~tier_of:mapped)
  | _ -> Alcotest.fail "testbed star solve failed"

(* ---- tiers no operator can reach ---------------------------------- *)

(* the encoding (restricted by default) over the contraction
   [Placement.solve] uses: tier pins bypass contraction *)
let encode_as_solved ?(encoding = Placement.Restricted) (t : Placement.t) =
  let c =
    if Array.for_all Option.is_none t.Placement.tier_pins then
      Preprocess.contract t.Placement.spec
    else Preprocess.identity t.Placement.spec
  in
  Placement.encode encoding t c

let size (enc : Placement.encoded) =
  let p = enc.Placement.problem in
  (Lp.Problem.n_constrs p, Lp.Problem.n_vars p)

(* tiers whose level variables were dropped ([-1] entries) *)
let pruned_tiers (enc : Placement.encoded) =
  List.filter
    (fun k -> Array.exists (fun v -> v < 0) enc.Placement.level_var.(k))
    (List.init (Array.length enc.Placement.level_var) Fun.id)

let solved what t =
  match Placement.solve t with
  | Placement.Partitioned r -> r
  | _ -> Alcotest.failf "%s: expected a partition" what

let same_solver_work (a : Placement.report) (b : Placement.report) =
  Alcotest.(check int) "same branch & bound nodes"
    a.Placement.solver.Lp.Branch_bound.nodes_explored
    b.Placement.solver.Lp.Branch_bound.nodes_explored;
  Alcotest.(check int) "same pivots"
    a.Placement.solver.Lp.Branch_bound.total_pivots
    b.Placement.solver.Lp.Branch_bound.total_pivots;
  feq "same objective" a.Placement.objective b.Placement.objective

(* every fig3 operator descends from a source pinned to mote 0, so motes
   1-19 are unreachable and the star encodes the two-tier chain's LP *)
let test_star_encodes_the_chain () =
  let spec = Apps.Synthetic.fig3_spec ~cpu_budget:4. in
  let star = testbed_star spec and chain = Placement.of_spec spec in
  let enc = encode_as_solved star in
  Alcotest.(check (list int)) "motes 1-19 pruned" (List.init 19 succ)
    (pruned_tiers enc);
  Alcotest.(check (pair int int)) "the chain's rows and columns"
    (size (encode_as_solved chain)) (size enc);
  same_solver_work (solved "chain" chain) (solved "star" star)

(* srcA sits on leafA and srcB is tier-pinned onto leafB: both leaves
   hold a source, so every tier stays *)
let test_y_keeps_every_tier () =
  let enc = encode_as_solved (y_placement ~shared_budget:5.5) in
  Alcotest.(check (list int)) "nothing pruned" [] (pruned_tiers enc);
  (* 6 micro consistency + 3 CPU + 12 dir + 1 shared-uplink rows over
     3 levels x 6 operators *)
  Alcotest.(check (pair int int)) "rows and columns" (22, 18) (size enc)

(* speech on the 7-tier binary tree: its sources sit on leaf 0, so the
   tree reduces to the leaf0 -> meraki4 -> server path, and the solve is
   the 3-tier chain's over the same platforms *)
let test_binary_tree_reduces_to_a_path () =
  let raw = Apps.Speech.profile ~duration:10. (Apps.Speech.build ()) in
  let spec =
    match Spec.of_profile ~node_platform:Profiler.Platform.tmote_sky raw with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let n = Array.length spec.Spec.cpu in
  let leaf k =
    { Placement.tname = Printf.sprintf "leaf%d" k; cpu = spec.Spec.cpu;
      cpu_budget = spec.Spec.cpu_budget; alpha = spec.Spec.alpha }
  in
  let meraki k =
    let p = Profiler.Platform.meraki in
    let costed = Profiler.Profile.cost raw p in
    { Placement.tname = Printf.sprintf "meraki%d" k;
      cpu = costed.Profiler.Profile.cpu_fraction;
      cpu_budget = p.Profiler.Platform.cpu_budget; alpha = 0. }
  in
  let server =
    { Placement.tname = "server"; cpu = Array.make n 0.; cpu_budget = infinity;
      alpha = 0. }
  in
  let radio k =
    { Placement.lname = Printf.sprintf "radio%d" k;
      net_budget = spec.Spec.net_budget; beta = spec.Spec.beta }
  in
  let uplink k =
    { Placement.lname = Printf.sprintf "uplink%d" k;
      net_budget = Profiler.Platform.meraki.Profiler.Platform.radio_bytes_per_sec;
      beta = spec.Spec.beta *. 0.3 }
  in
  let tree =
    Placement.v
      ~topology:(Placement.Topology.of_parents [| 4; 4; 5; 5; 6; 6; -1 |])
      ~spec
      ~tiers:[ leaf 0; leaf 1; leaf 2; leaf 3; meraki 4; meraki 5; server ]
      ~links:[ radio 0; radio 1; radio 2; radio 3; uplink 4; uplink 5 ]
      ()
  and path =
    Placement.v ~spec ~tiers:[ leaf 0; meraki 4; server ]
      ~links:[ radio 0; uplink 4 ] ()
  in
  let tree = Placement.scale_rate tree 0.05
  and path = Placement.scale_rate path 0.05 in
  let enc = encode_as_solved tree in
  Alcotest.(check (list int)) "leaves 1-3 and meraki5 pruned" [ 1; 2; 3; 5 ]
    (pruned_tiers enc);
  Alcotest.(check (pair int int)) "the path's rows and columns"
    (size (encode_as_solved path)) (size enc);
  let t = solved "tree" tree and p = solved "path" path in
  same_solver_work p t;
  Alcotest.(check (list int)) "the path's assignment on tiers 0/4/6"
    (Array.to_list p.Placement.tier_of)
    (Array.to_list
       (Array.map (function 0 -> 0 | 4 -> 1 | 6 -> 2 | _ -> -1)
          t.Placement.tier_of))

(* pruning drops the rows that made a negative budget infeasible
   (0 <= budget), so such an instance keeps every tier *)
let test_negative_budget_stays_infeasible () =
  let spec = Apps.Synthetic.fig3_spec ~cpu_budget:4. in
  let star = testbed_star spec in
  let tiers = Array.copy star.Placement.tiers in
  tiers.(7) <- { (tiers.(7)) with Placement.cpu_budget = -1. };
  let bad = { star with Placement.tiers } in
  Alcotest.(check (list int)) "nothing pruned" []
    (pruned_tiers (encode_as_solved bad));
  match Placement.solve bad with
  | Placement.No_feasible_partition -> ()
  | _ -> Alcotest.fail "a negative CPU budget must stay infeasible"

(* ---- pinned load past a budget ------------------------------------ *)

(* Operators pinned to a budgeted tier that already load it past its
   budget leave no placement, and the answer must say so.  Speech at
   x0.001 under a zero mote budget is the case that matters: branch &
   bound accepts its sources' load on the mote within its 1e-5 row
   tolerance, and [Placement.feasible], which allows 1e-9, rejects
   that optimum.  The Y fixture's tier-pinned source on a zero-budget
   leaf is the same case through a tier pin.  At a budget the pinned
   load fits exactly, speech still places, every movable operator off
   the mote. *)
let test_pinned_load_past_budget () =
  let raw = Apps.Speech.profile ~duration:10. (Apps.Speech.build ()) in
  let spec =
    match Spec.of_profile ~node_platform:Profiler.Platform.tmote_sky raw with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let speech budget =
    Placement.scale_rate
      (Placement.of_spec { spec with Spec.cpu_budget = budget })
      0.001
  in
  let infeasible what t =
    match Placement.solve t with
    | Placement.No_feasible_partition -> ()
    | Placement.Solver_failure m -> Alcotest.failf "%s: %s" what m
    | Placement.Partitioned _ -> Alcotest.failf "%s: placed" what
  in
  infeasible "speech, zero mote budget" (speech 0.);
  let y = y_placement ~shared_budget:5.5 in
  let tiers = Array.copy y.Placement.tiers in
  tiers.(1) <- { (tiers.(1)) with Placement.cpu_budget = 0. };
  infeasible "Y, zero budget under the tier-pinned source"
    { y with Placement.tiers };
  let mote = (speech 0.).Placement.tiers.(0).Placement.cpu in
  let pinned = ref 0. in
  Array.iteri
    (fun i pin -> if pin = Movable.Pin_node then pinned := !pinned +. mote.(i))
    spec.Spec.placement;
  let r = solved "speech at the pinned load" (speech !pinned) in
  Alcotest.(check (float 0.)) "the mote carries the pinned load" !pinned
    r.Placement.tier_cpu.(0)

(* ---- malformed tier assignments ----------------------------------- *)

(* An assignment of the wrong length or with a tier outside
   [0, n_tiers) is infeasible, not an index error, and as a warm hint
   it is dropped like any other infeasible one: [solve] and the rate
   search answer exactly as they do with no hint. *)
let test_malformed_assignments () =
  let pl =
    Placement.of_spec (Apps.Synthetic.random_spec ~seed:3 ~n_ops:12 ())
  in
  let n = Graph.n_ops pl.Placement.spec.Spec.graph in
  let hints =
    [
      ("tier 7", Array.make n 7); ("tier -1", Array.make n (-1));
      ("short", Array.make (n - 1) 0); ("long", Array.make (n + 1) 0);
    ]
  in
  let searched initial_tiers =
    match Rate_search.search_placement ?initial_tiers pl with
    | Some r ->
        Service.Placed
          {
            rate = r.Rate_search.placement_multiplier;
            report = r.Rate_search.placement_report;
          }
    | None -> Service.Infeasible
  in
  let at_rate =
    match searched None with
    | Service.Placed { rate; _ } -> Placement.scale_rate pl rate
    | _ -> Alcotest.fail "the spec places at no rate"
  in
  let solved initial =
    match Placement.solve ?initial at_rate with
    | Placement.Partitioned report -> Service.Placed { rate = 1.; report }
    | Placement.No_feasible_partition -> Service.Infeasible
    | Placement.Solver_failure m -> Service.Failed m
  in
  let digest a = Service.answer_digest a in
  List.iter
    (fun (what, tier_of) ->
      Alcotest.(check bool) (what ^ ": infeasible") false
        (Placement.feasible at_rate ~tier_of);
      Alcotest.(check string) (what ^ ": solve drops the hint")
        (digest (solved None))
        (digest (solved (Some tier_of)));
      Alcotest.(check string) (what ^ ": the search drops the hint")
        (digest (searched None))
        (digest (searched (Some tier_of))))
    hints

(* ---- encodings pinned bit for bit --------------------------------- *)

(* Per row the sense, the rhs bits and each term's index and
   coefficient bits in stored order; then every variable's bounds and
   the objective.  Term order is part of the answer: a variable twice
   in one row is summed in that order by the CSC build, and the
   objective is summed in it by [Lp.Problem.objective_value]. *)
let lp_digest (p : Lp.Problem.t) =
  let b = Buffer.create 4096 in
  let int i = Buffer.add_int64_le b (Int64.of_int i) in
  let flt f = Buffer.add_int64_le b (Int64.bits_of_float f) in
  let terms vars coefs =
    int (Array.length vars);
    Array.iteri
      (fun t v ->
        int v;
        flt coefs.(t))
      vars
  in
  Array.iter
    (fun (c : Lp.Problem.constr) ->
      int (match c.sense with Lp.Problem.Le -> 0 | Ge -> 1 | Eq -> 2);
      flt c.rhs;
      terms c.vars c.coefs)
    (Lp.Problem.constrs p);
  Array.iter
    (fun (v : Lp.Problem.var_info) ->
      flt v.lo;
      flt v.hi;
      int (Bool.to_int v.integer))
    (Lp.Problem.vars p);
  int (match Lp.Problem.direction p with Minimize -> 0 | Maximize -> 1);
  let vars, coefs = Lp.Problem.objective p in
  terms vars coefs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let eeg_chain n rate =
  match
    Spec.of_profile ~mode:Movable.Permissive
      ~node_platform:Profiler.Platform.tmote_sky
      (Apps.Eeg.profile ~duration:10. (Apps.Eeg.build ~n_channels:n ()))
  with
  | Ok s -> Placement.of_spec (Spec.scale_rate s rate)
  | Error m -> Alcotest.fail m

(* pinned from the encoder that built boxed term lists: the array
   build must reproduce its rows term for term *)
let test_encodings_pinned () =
  let y = y_placement ~shared_budget:5.5 in
  List.iter
    (fun (what, enc, want) ->
      Alcotest.(check string) what want (lp_digest enc.Placement.problem))
    [
      ( "eeg14 x1 chain", encode_as_solved (eeg_chain 14 1.0),
        "6be5724e1b4b05818fd834157609e2a8" );
      ( "eeg22 x0.92699 chain", encode_as_solved (eeg_chain 22 0.92699),
        "80ca6d3d380db233ea79326ffa43c40c" );
      ("Y tree", encode_as_solved y, "6ca44d306b45638a1078e2cc2d538a0c");
      ( "Y tree, general encoding",
        encode_as_solved ~encoding:Placement.General y,
        "cdaff0fa4fdd2cb906599741f2900403" );
    ]

(* the first 200 cases [fuzz --oracle lp-certificate] and [--oracle
   ilp-brute] draw at the default seed 42 and size 8: the generators
   must keep drawing the same numbers in the same order *)
let test_generated_lps_pinned () =
  List.iter
    (fun (what, gen, oracle, want) ->
      let b = Buffer.create 8192 in
      for case = 0 to 199 do
        Buffer.add_string b
          (lp_digest (gen (Prng.create (Prng.derive 42 [ oracle; case ])) ~size:8))
      done;
      Alcotest.(check string) what want
        (Digest.to_hex (Digest.string (Buffer.contents b))))
    [
      ("Gen.lp", Check.Gen.lp, 0, "9574c005c8a20f3a7e954d99df2bcde4");
      ("Gen.ilp", Check.Gen.ilp, 1, "440ab99e469f5f3795ff74808889b2c0");
    ]

let () =
  Alcotest.run "placement"
    [
      ( "encoding-pins",
        [
          Alcotest.test_case "chain, tree and general encodings" `Quick
            test_encodings_pinned;
          Alcotest.test_case "generated LPs" `Quick test_generated_lps_pinned;
        ] );
      ( "splitrun-pins",
        [ Alcotest.test_case "pinned regressions" `Quick test_splitrun_pins ]
      );
      ( "fig3-golden",
        [
          Alcotest.test_case "cut bandwidths" `Quick test_fig3_cut_bandwidths;
          Alcotest.test_case "partition shape" `Quick
            test_fig3_partition_shape;
        ] );
      ( "three-tier",
        [
          Alcotest.test_case "hand-checked fixture" `Quick
            test_three_tier_hand_checked;
          Alcotest.test_case "collapses to two tiers" `Quick
            test_three_tier_collapses_to_two;
        ] );
      ( "multirun",
        [
          Alcotest.test_case "three-tier end-to-end" `Quick
            test_multirun_three_tier_e2e;
        ] );
      ( "tree",
        [
          Alcotest.test_case "hand-checked Y fixture" `Quick
            test_y_tree_hand_checked;
          Alcotest.test_case "shared root edge binds" `Quick
            test_y_tree_shared_edge_binds;
          Alcotest.test_case "chain is a degenerate tree" `Quick
            test_chain_tree_byte_identical;
          Alcotest.test_case "testbed routing star" `Quick test_testbed_star;
        ] );
      ( "unreachable-tiers",
        [
          Alcotest.test_case "testbed star encodes the chain" `Quick
            test_star_encodes_the_chain;
          Alcotest.test_case "Y fixture keeps every tier" `Quick
            test_y_keeps_every_tier;
          Alcotest.test_case "binary tree reduces to a path" `Quick
            test_binary_tree_reduces_to_a_path;
          Alcotest.test_case "negative budget stays infeasible" `Quick
            test_negative_budget_stays_infeasible;
        ] );
      ( "pinned-load",
        [
          Alcotest.test_case "past a budget, no placement" `Quick
            test_pinned_load_past_budget;
        ] );
      ( "malformed-hints",
        [
          Alcotest.test_case "infeasible, and dropped as hints" `Quick
            test_malformed_assignments;
        ] );
    ]
