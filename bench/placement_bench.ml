(* Placement-core benchmark: the generic tier-graph solver on the
   two-tier hot path and on deeper chains.

   The tier-graph refactor routed every partitioner call through
   [Wishbone.Placement]; the number that must not regress is the
   two-tier hot path (the rate search re-solves it dozens of times).
   For each instance this bench times the full pipeline
   (contract + encode + branch & bound + verify) against the pure
   branch & bound on a pre-encoded problem — the irreducible solver
   floor — and reports the difference as builder overhead, in
   milliseconds and as a share of the full solve.

   Also solves a four-tier synthetic chain (tmote -> meraki ->
   gumstix -> server) end-to-end to exercise the level-variable
   encoding beyond the legacy formulations.

   Writes BENCH_placement.json at the repo root:

     dune exec bench/main.exe -- placement *)

type inst_result = {
  name : string;
  n_ops : int;
  n_super : int;
  rate : float;
  reps : int;
  total_ms : float;  (* mean ms per full Placement.solve *)
  solver_ms : float;  (* mean ms per pre-encoded Branch_bound.solve *)
  overhead_pct : float;
  objective : float;
  pivots : int;  (* solver work counters over one bare solve *)
  refactorisations : int;
  ft_updates : int;
  ft_entries : int;
}

let time_n reps f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (f ())
  done;
  (Unix.gettimeofday () -. t0) *. 1000. /. Float.of_int reps

(* Time two closures against the same clock by alternating them within
   one loop, after one untimed warm-up call each.  Two sequential
   [time_n] loops let allocator and cache state drift between the
   measurements — enough to report the solver "floor" slower than the
   full pipeline that contains it (a negative overhead, as the old
   eeg22 row showed).  Interleaving makes both sides see the same
   machine state rep for rep, and taking each side's *fastest* rep
   rather than its mean discards the reps a neighbouring tenant
   preempted: on this shared box the same deterministic work
   (identical pivot counts) has been clocked anywhere in a 4x wall
   range, and the minimum is the only estimator that converges on
   the machine's actual cost. *)
let time_interleaved reps f g =
  ignore (f ());
  ignore (g ());
  let tf = ref infinity and tg = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    let t1 = Unix.gettimeofday () in
    ignore (g ());
    tf := Float.min !tf (t1 -. t0);
    tg := Float.min !tg (Unix.gettimeofday () -. t1)
  done;
  (!tf *. 1000., !tg *. 1000.)

let bench_two_tier ~name ~reps spec =
  (* pin the instance at its feasibility boundary — the rate the
     search hammers hardest *)
  let rate =
    match Wishbone.Rate_search.search_placement (Wishbone.Placement.of_spec spec) with
    | Some r -> r.Wishbone.Rate_search.placement_multiplier
    | None -> 1.0
  in
  let pl = Wishbone.Placement.of_spec (Wishbone.Spec.scale_rate spec rate) in
  let c = Wishbone.Preprocess.contract pl.Wishbone.Placement.spec in
  let enc = Wishbone.Placement.encode Wishbone.Placement.Restricted pl c in
  let total_ms, solver_ms =
    time_interleaved reps
      (fun () -> Wishbone.Placement.solve pl)
      (fun () -> Lp.Branch_bound.solve enc.Wishbone.Placement.problem)
  in
  let objective =
    match Wishbone.Placement.solve pl with
    | Wishbone.Placement.Partitioned r -> r.Wishbone.Placement.objective
    | _ -> nan
  in
  (* work counters over one bare solve: unlike wall time these are
     deterministic, so regressions in the pivot/refactorisation
     trajectory show through machine noise *)
  let c0 = Lp.Sparse.counters () in
  ignore (Lp.Branch_bound.solve enc.Wishbone.Placement.problem);
  let c1 = Lp.Sparse.counters () in
  let overhead_pct = 100. *. (total_ms -. solver_ms) /. Float.max 1e-9 total_ms in
  Bench_util.row
    "%-8s x%.4f  %8.3f ms/solve  (solver floor %8.3f ms)  overhead %5.1f%%\n"
    name rate total_ms solver_ms overhead_pct;
  {
    name;
    n_ops = Dataflow.Graph.n_ops pl.Wishbone.Placement.spec.Wishbone.Spec.graph;
    n_super = c.Wishbone.Preprocess.n_super;
    rate;
    reps;
    total_ms;
    solver_ms;
    overhead_pct;
    objective;
    pivots = c1.pivots - c0.pivots;
    refactorisations = c1.refactorisations - c0.refactorisations;
    ft_updates = c1.ft_updates - c0.ft_updates;
    ft_entries = c1.ft_entries - c0.ft_entries;
  }

(* four platforms deep: node radio, then two successively fatter
   uplinks, weights falling off 0.3 per hop *)
let four_tier_chain raw spec =
  Wishbone.Placement.of_platforms spec raw
    Profiler.Platform.[ tmote_sky; meraki; gumstix ]

type chain_result = {
  c_rate : float;
  c_wall_ms : float;
  c_objective : float;
  c_tiers : int array;  (* operator count per tier *)
}

let bench_chain raw spec =
  let pl = four_tier_chain raw spec in
  let rate =
    match Wishbone.Rate_search.search_placement pl with
    | Some r -> r.Wishbone.Rate_search.placement_multiplier
    | None -> 1.0
  in
  let pl = Wishbone.Placement.scale_rate pl rate in
  let wall_ms = time_n 20 (fun () -> Wishbone.Placement.solve pl) in
  match Wishbone.Placement.solve pl with
  | Wishbone.Placement.Partitioned r ->
      let counts = Array.make (Wishbone.Placement.n_tiers pl) 0 in
      Array.iter (fun t -> counts.(t) <- counts.(t) + 1) r.tier_of;
      Bench_util.row
        "4-tier   x%.4f  %8.3f ms/solve  objective %.1f  ops/tier %s\n" rate
        wall_ms r.objective
        (String.concat "/"
           (Array.to_list (Array.map string_of_int counts)));
      { c_rate = rate; c_wall_ms = wall_ms; c_objective = r.objective;
        c_tiers = counts }
  | _ ->
      Bench_util.row "4-tier   x%.4f  no feasible placement\n" rate;
      { c_rate = rate; c_wall_ms = wall_ms; c_objective = nan;
        c_tiers = [||] }

(* ---- tree topologies ----------------------------------------------- *)

type tree_result = {
  t_name : string;
  t_n_tiers : int;
  t_n_super : int;
  t_rate : float;
  t_reps : int;
  t_total_ms : float;
  t_solver_ms : float;
  t_overhead_pct : float;
  t_objective : float;
  t_rows : int;  (* encoded ILP size and one bare solve's pivots *)
  t_cols : int;
  t_pivots : int;
}

(* every leaf a copy of the spec's node tier, the unbudgeted server at
   the hub — the testbed's single-hop routing star.  No tier pins, so
   supernode contraction still applies, and since every operator
   descends from a source on leaf 0 the encoder drops leaves 1.. as
   unreachable: the star encodes the two-tier chain's ILP. *)
let star_placement ~n_leaves (spec : Wishbone.Spec.t) =
  let n = Array.length spec.Wishbone.Spec.cpu in
  let topo =
    Wishbone.Placement.Topology.of_parents
      (Netsim.Testbed.routing_parents ~n_nodes:n_leaves)
  in
  let tiers =
    List.init (n_leaves + 1) (fun k ->
        if k = n_leaves then
          {
            Wishbone.Placement.tname = "server";
            cpu = Array.make n 0.;
            cpu_budget = infinity;
            alpha = 0.;
          }
        else
          {
            Wishbone.Placement.tname = Printf.sprintf "leaf%d" k;
            cpu = spec.Wishbone.Spec.cpu;
            cpu_budget = spec.Wishbone.Spec.cpu_budget;
            alpha = spec.Wishbone.Spec.alpha;
          })
  in
  let links =
    List.init n_leaves (fun k ->
        {
          Wishbone.Placement.lname = Printf.sprintf "radio%d" k;
          net_budget = spec.Wishbone.Spec.net_budget;
          beta = spec.Wishbone.Spec.beta;
        })
  in
  Wishbone.Placement.v ~topology:topo ~spec ~tiers ~links ()

(* a 7-tier balanced binary tree: 4 node leaves, two meraki middles,
   the server at the root *)
let binary_placement raw (spec : Wishbone.Spec.t) =
  let n = Array.length spec.Wishbone.Spec.cpu in
  let leaf k =
    {
      Wishbone.Placement.tname = Printf.sprintf "leaf%d" k;
      cpu = spec.Wishbone.Spec.cpu;
      cpu_budget = spec.Wishbone.Spec.cpu_budget;
      alpha = spec.Wishbone.Spec.alpha;
    }
  in
  let mid k =
    let p = Profiler.Platform.meraki in
    let costed = Profiler.Profile.cost raw p in
    {
      Wishbone.Placement.tname = Printf.sprintf "%s%d" p.name k;
      cpu = costed.Profiler.Profile.cpu_fraction;
      cpu_budget = p.cpu_budget;
      alpha = 0.;
    }
  in
  let radio k =
    {
      Wishbone.Placement.lname = Printf.sprintf "radio%d" k;
      net_budget = spec.Wishbone.Spec.net_budget;
      beta = spec.Wishbone.Spec.beta;
    }
  in
  let uplink k =
    {
      Wishbone.Placement.lname = Printf.sprintf "uplink%d" k;
      net_budget = Profiler.Platform.meraki.Profiler.Platform.radio_bytes_per_sec;
      beta = spec.Wishbone.Spec.beta *. 0.3;
    }
  in
  Wishbone.Placement.v
    ~topology:(Wishbone.Placement.Topology.of_parents [| 4; 4; 5; 5; 6; 6; -1 |])
    ~spec
    ~tiers:
      [
        leaf 0; leaf 1; leaf 2; leaf 3; mid 4; mid 5;
        {
          Wishbone.Placement.tname = "server";
          cpu = Array.make n 0.;
          cpu_budget = infinity;
          alpha = 0.;
        };
      ]
    ~links:[ radio 0; radio 1; radio 2; radio 3; uplink 4; uplink 5 ]
    ()

(* the chain-vs-tree builder overhead: the same interleaved full-pipeline
   vs pre-encoded-solver measurement as [bench_two_tier], on tree
   topologies.  [rate] pins the instance (the eeg testbed rows reuse
   the chain rows' boundary rate); omitted, the tree's own rate search
   finds the boundary. *)
let bench_tree ~name ~reps ?rate pl =
  let rate =
    match rate with
    | Some r -> r
    | None -> (
        match Wishbone.Rate_search.search_placement pl with
        | Some r -> r.Wishbone.Rate_search.placement_multiplier
        | None -> 1.0)
  in
  let pl = Wishbone.Placement.scale_rate pl rate in
  let c = Wishbone.Preprocess.contract pl.Wishbone.Placement.spec in
  let enc = Wishbone.Placement.encode Wishbone.Placement.Restricted pl c in
  let total_ms, solver_ms =
    time_interleaved reps
      (fun () -> Wishbone.Placement.solve pl)
      (fun () -> Lp.Branch_bound.solve enc.Wishbone.Placement.problem)
  in
  let objective =
    match Wishbone.Placement.solve pl with
    | Wishbone.Placement.Partitioned r -> r.Wishbone.Placement.objective
    | _ -> nan
  in
  let overhead_pct =
    100. *. (total_ms -. solver_ms) /. Float.max 1e-9 total_ms
  in
  let rows = Lp.Problem.n_constrs enc.Wishbone.Placement.problem
  and cols = Lp.Problem.n_vars enc.Wishbone.Placement.problem in
  let pivots =
    (snd (Lp.Branch_bound.solve enc.Wishbone.Placement.problem))
      .Lp.Branch_bound.total_pivots
  in
  Bench_util.row
    "%-14s x%.4f  %2d tiers  %8.3f ms/solve  (solver floor %8.3f ms)  \
     overhead %5.1f%%  %dx%d, %d pivots\n"
    name rate
    (Wishbone.Placement.n_tiers pl)
    total_ms solver_ms overhead_pct rows cols pivots;
  {
    t_name = name;
    t_n_tiers = Wishbone.Placement.n_tiers pl;
    t_n_super = c.Wishbone.Preprocess.n_super;
    t_rate = rate;
    t_reps = reps;
    t_total_ms = total_ms;
    t_solver_ms = solver_ms;
    t_overhead_pct = overhead_pct;
    t_objective = objective;
    t_rows = rows;
    t_cols = cols;
    t_pivots = pivots;
  }

let write_json insts (chain : chain_result) trees =
  let oc = open_out "BENCH_placement.json" in
  (* the builder's overhead is recorded in milliseconds and as a share
     of the full solve, and gates nothing: the share moves with the
     solve it is divided by, and both with the machine.  The
     [service-smoke] set-up allocation gate is the encoder's
     deterministic guard. *)
  let inst r =
    Printf.sprintf
      "    {\"name\": \"%s\", \"n_ops\": %d, \"n_super\": %d, \"rate\": \
       %.6f, \"reps\": %d, \"total_ms\": %.4f, \"solver_ms\": %.4f, \
       \"overhead_pct\": %.2f, \"objective\": %.6f, \"pivots\": %d, \
       \"refactorisations\": %d, \"ft_updates\": %d, \"ft_entries\": %d}"
      r.name r.n_ops r.n_super r.rate r.reps r.total_ms r.solver_ms
      r.overhead_pct r.objective r.pivots r.refactorisations r.ft_updates
      r.ft_entries
  in
  let tree (r : tree_result) =
    Printf.sprintf
      "    {\"name\": \"%s\", \"n_tiers\": %d, \"n_super\": %d, \"rate\": \
       %.6f, \"reps\": %d, \"total_ms\": %.4f, \"solver_ms\": %.4f, \
       \"overhead_pct\": %.2f, \"objective\": %.6f, \"rows\": %d, \
       \"cols\": %d, \"pivots\": %d}"
      r.t_name r.t_n_tiers r.t_n_super r.t_rate r.t_reps r.t_total_ms
      r.t_solver_ms r.t_overhead_pct r.t_objective r.t_rows r.t_cols
      r.t_pivots
  in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"placement_core_overhead\",\n\
    \  \"two_tier\": [\n%s\n  ],\n\
    \  \"four_tier_chain\": {\"rate\": %.6f, \"wall_ms\": %.4f, \
     \"objective\": %.6f, \"ops_per_tier\": [%s]},\n\
    \  \"tree\": [\n%s\n  ]\n\
     }\n"
    (String.concat ",\n" (List.map inst insts))
    chain.c_rate chain.c_wall_ms chain.c_objective
    (String.concat ", "
       (Array.to_list (Array.map string_of_int chain.c_tiers)))
    (String.concat ",\n" (List.map tree trees));
  close_out oc

let run () =
  Bench_util.header
    "placement core: generic tier-graph solve vs raw solver floor";
  Bench_util.paper_vs
    "builder overhead: the generic encoder's milliseconds beside the pure \
     branch & bound on the two-tier hot path";
  let speech_spec =
    Bench_util.spec_exn ~platform:Profiler.Platform.tmote_sky
      (Lazy.force Bench_util.speech_profile)
  in
  let eeg14_raw = Apps.Eeg.profile ~duration:30. (Apps.Eeg.build ~n_channels:14 ()) in
  let eeg14_spec =
    Bench_util.spec_exn ~mode:Wishbone.Movable.Permissive
      ~platform:Profiler.Platform.tmote_sky eeg14_raw
  in
  let eeg22_raw = Apps.Eeg.profile ~duration:30. (Apps.Eeg.build ()) in
  let eeg22_spec =
    Bench_util.spec_exn ~mode:Wishbone.Movable.Permissive
      ~platform:Profiler.Platform.tmote_sky eeg22_raw
  in
  (* bind sequentially: OCaml evaluates list elements right-to-left *)
  let speech_r = bench_two_tier ~name:"speech" ~reps:100 speech_spec in
  let eeg14_r = bench_two_tier ~name:"eeg14" ~reps:20 eeg14_spec in
  let eeg22_r = bench_two_tier ~name:"eeg22" ~reps:10 eeg22_spec in
  let insts = [ speech_r; eeg14_r; eeg22_r ] in
  let chain = bench_chain (Lazy.force Bench_util.speech_profile) speech_spec in
  (* tree suite: routing star and binary tree on speech at their own
     boundary rates, the 20-mote testbed star at the eeg chain rates *)
  let speech_raw = Lazy.force Bench_util.speech_profile in
  let star_r =
    bench_tree ~name:"speech-star8" ~reps:50
      (star_placement ~n_leaves:8 speech_spec)
  in
  let bin_r =
    bench_tree ~name:"speech-bin7" ~reps:50 (binary_placement speech_raw speech_spec)
  in
  let eeg14_t =
    bench_tree ~name:"eeg14-testbed" ~reps:10 ~rate:eeg14_r.rate
      (star_placement ~n_leaves:20 eeg14_spec)
  in
  let eeg22_t =
    bench_tree ~name:"eeg22-testbed" ~reps:5 ~rate:eeg22_r.rate
      (star_placement ~n_leaves:20 eeg22_spec)
  in
  write_json insts chain [ star_r; bin_r; eeg14_t; eeg22_t ];
  Bench_util.row "wrote BENCH_placement.json\n"

(* ---- CI smoke: Y fixture + one testbed-tree placement -------------- *)

(* the hand-checked Y of test_placement.ml: two sensing branches
   sharing the microserver -> root uplink; shared budget 5.5 admits
   exactly one optimum (objective 9.5), 4.9 admits none although each
   branch alone would fit *)
let y_placement ~shared_budget =
  let passthrough () =
    Dataflow.Op.stateless_instance (fun v ->
        ([ v ], Dataflow.Workload.make ~call_ops:1. ()))
  in
  let mk_op ?(namespace = Dataflow.Op.Node) ?(side_effect = Dataflow.Op.Pure)
      id name =
    { Dataflow.Op.id; name; kind = "t"; namespace; stateful = false;
      side_effect; fresh = passthrough }
  in
  let ops =
    [|
      mk_op ~side_effect:Dataflow.Op.Sensor_input 0 "srcA";
      mk_op 1 "a";
      mk_op ~namespace:Dataflow.Op.Server
        ~side_effect:Dataflow.Op.Display_output 2 "sinkA";
      mk_op ~side_effect:Dataflow.Op.Sensor_input 3 "srcB";
      mk_op 4 "b";
      mk_op ~namespace:Dataflow.Op.Server
        ~side_effect:Dataflow.Op.Display_output 5 "sinkB";
    |]
  in
  let g =
    Dataflow.Graph.make ops [ (0, 1, 0); (1, 2, 0); (3, 4, 0); (4, 5, 0) ]
  in
  let placement =
    match Wishbone.Movable.classify Wishbone.Movable.Conservative g with
    | Ok p -> p
    | Error m -> failwith m
  in
  let leaf_cpu = [| 0.3; 0.4; 0.; 0.3; 0.4; 0. |] in
  let spec =
    {
      Wishbone.Spec.graph = g;
      placement;
      cpu = leaf_cpu;
      bandwidth = [| 4.; 1.; 4.; 2. |];
      cpu_budget = 0.5;
      net_budget = 1e9;
      alpha = 0.;
      beta = 1.;
    }
  in
  let leaf tname =
    { Wishbone.Placement.tname; cpu = leaf_cpu; cpu_budget = 0.5; alpha = 0. }
  in
  Wishbone.Placement.v
    ~topology:(Wishbone.Placement.Topology.of_parents [| 2; 2; 3; -1 |])
    ~pins:[ (3, 1) ] ~spec
    ~tiers:
      [
        leaf "leafA"; leaf "leafB";
        { Wishbone.Placement.tname = "micro";
          cpu = [| 0.; 0.2; 0.; 0.; 0.2; 0. |]; cpu_budget = 0.3; alpha = 0. };
        { Wishbone.Placement.tname = "root"; cpu = Array.make 6 0.;
          cpu_budget = infinity; alpha = 0. };
      ]
    ~links:
      [
        { Wishbone.Placement.lname = "leafA-up"; net_budget = infinity;
          beta = 1. };
        { Wishbone.Placement.lname = "leafB-up"; net_budget = infinity;
          beta = 1. };
        { Wishbone.Placement.lname = "shared-up"; net_budget = shared_budget;
          beta = 0.3 };
      ]
    ()

let smoke_tree () =
  Bench_util.header "tree placement: smoke (Y fixture + testbed star)";
  let check label ok =
    if not ok then begin
      Printf.eprintf "tree smoke: FAILED: %s\n" label;
      exit 1
    end
  in
  let feq a b = Float.abs (a -. b) <= 1e-6 in
  (match Wishbone.Placement.solve (y_placement ~shared_budget:5.5) with
  | Wishbone.Placement.Partitioned r ->
      check "Y objective 9.5" (feq r.Wishbone.Placement.objective 9.5);
      check "Y tier assignment"
        (r.Wishbone.Placement.tier_of = [| 0; 2; 3; 1; 3; 3 |]);
      check "Y shared uplink carries 5 B/s"
        (feq r.Wishbone.Placement.link_net.(2) 5.)
  | _ -> check "Y solve at shared budget 5.5" false);
  (match Wishbone.Placement.solve (y_placement ~shared_budget:4.9) with
  | Wishbone.Placement.No_feasible_partition -> ()
  | _ -> check "Y infeasible at shared budget 4.9" false);
  (* speech on the 20-mote routing star: the placement must reproduce
     the two-tier optimum with the whole cut on mote 0's uplink.  Motes
     1-19 hold no source, so the star must encode and solve exactly the
     two-tier ILP: the same rows, columns and pivots, counters no
     machine can move *)
  let spec =
    Wishbone.Spec.scale_rate
      (Bench_util.spec_exn ~platform:Profiler.Platform.tmote_sky
         (Lazy.force Bench_util.speech_profile))
      0.05
  in
  let star = star_placement ~n_leaves:20 spec
  and chain = Wishbone.Placement.of_spec spec in
  let size pl =
    let enc =
      Wishbone.Placement.encode Wishbone.Placement.Restricted pl
        (Wishbone.Preprocess.contract spec)
    in
    ( Lp.Problem.n_constrs enc.Wishbone.Placement.problem,
      Lp.Problem.n_vars enc.Wishbone.Placement.problem )
  in
  let (star_rows, star_cols), (rows, cols) = (size star, size chain) in
  check
    (Printf.sprintf "star encodes the chain's %dx%d ILP (got %dx%d)" rows cols
       star_rows star_cols)
    (star_rows = rows && star_cols = cols);
  (match
     (Wishbone.Placement.solve star, Wishbone.Placement.solve chain)
   with
  | Wishbone.Placement.Partitioned s, Wishbone.Placement.Partitioned two ->
      let pivots (r : Wishbone.Placement.report) =
        r.Wishbone.Placement.solver.Lp.Branch_bound.total_pivots
      in
      check
        (Printf.sprintf "star solves in the chain's %d pivots (got %d)"
           (pivots two) (pivots s))
        (pivots s = pivots two);
      check "star objective = two-tier objective"
        (feq s.Wishbone.Placement.objective two.Wishbone.Placement.objective);
      check "cut rides mote 0's uplink"
        (feq s.Wishbone.Placement.link_net.(0)
           two.Wishbone.Placement.link_net.(0));
      check "all other radios idle"
        (Array.for_all (fun x -> feq x 0.)
           (Array.sub s.Wishbone.Placement.link_net 1 19))
  | _ -> check "testbed star solve" false);
  Bench_util.row
    "tree smoke ok: Y optimum 9.5 with binding shared uplink, infeasible \
     at 4.9; 21-tier testbed star matches the two-tier optimum and \
     encodes its %dx%d ILP\n"
    rows cols
