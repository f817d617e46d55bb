(* The [compile] workload: one developer compiling apps back to back.

   Each pass compiles speech, eeg22 and eeg14: it profiles each app on
   its recorded sensor trace and specs it, then runs the solves a
   developer asks for: a fixed-rate ladder on each app's two-tier
   chain, eeg14 on an 8-leaf routing star, and the §4.3 maximum-rate
   search on the eeg14 chain.  Set-up builds the app graphs and
   synthesises the seeded sensor traces.  The apps' operator costs do
   not depend on the traces, so every seed gives the same specs, every
   answer can be held to a pinned value, and every seed does the same
   work.

   The tree and the search exercise the two mechanisms later work
   targets (symmetric tree siblings, the bisecting rate search); the
   chain ladder bypasses both. *)

open Common

(* The search runs without a wall-clock limit: its deterministic node
   budget alone bounds it, so the rate it settles on does not depend on
   the machine's speed.  The budget is a fifth of the default's 5,000
   nodes: the probe that exhausts it settles on the same rate either
   way, and the pass stays short enough to repeat within a run. *)
let search_options =
  {
    Wishbone.Rate_search.default_search_options with
    Lp.Branch_bound.time_limit = infinity;
    max_nodes = 1000;
  }

(* leaves of the routing star the tree request places eeg14 on *)
let star_leaves = 8

(* seconds of sensor data each app is profiled on *)
let trace_s = 30.

type request = Chain of float | Tree of float | Search

type app = {
  name : string;
  graph : Dataflow.Graph.t;
  trace : Profiler.Profile.Trace.event list;  (* the seeded sensor data *)
  mode : Wishbone.Movable.mode;
  requests : request list;
}

(* Objectives and the search rate at this benchmark's inputs, as the
   library computed them when the benchmark was written. *)
let pinned_objective = function
  | "speech", 0.02 -> 104.
  | "speech", 0.05 -> 260.
  | "speech", 0.08 -> 416.
  | "eeg14", 0.5 -> 42.
  | "eeg14", 1.0 -> 84.
  | "eeg14", 1.4296 -> 844.89359999999976
  | "eeg22", 0.5 -> 66.
  | "eeg22", 0.8 -> 105.59999999999988
  | "eeg22", 0.92699 -> 1062.3305399999988
  | app, rate -> invalid_arg (Printf.sprintf "no pinned objective for %s x%g" app rate)

let pinned_search_rate = 1.42961333839197

(* a spec on the testbed's routing star: every leaf a copy of the
   spec's node tier, the unbudgeted server at the hub *)
let star ~n_leaves (spec : Wishbone.Spec.t) =
  let n = Array.length spec.cpu in
  let leaf k =
    {
      Wishbone.Placement.tname = Printf.sprintf "mote%d" k;
      cpu = spec.cpu;
      cpu_budget = spec.cpu_budget;
      alpha = spec.alpha;
    }
  in
  let server =
    { Wishbone.Placement.tname = "server"; cpu = Array.make n 0.;
      cpu_budget = infinity; alpha = 0. }
  in
  let radio k =
    { Wishbone.Placement.lname = Printf.sprintf "radio%d" k;
      net_budget = spec.net_budget; beta = spec.beta }
  in
  Wishbone.Placement.v
    ~topology:
      (Wishbone.Placement.Topology.of_parents
         (Netsim.Testbed.routing_parents ~n_nodes:n_leaves))
    ~spec
    ~tiers:(List.init n_leaves leaf @ [ server ])
    ~links:(List.init n_leaves radio)
    ()

(* The placement's cost must equal the objective of the ILP solution
   branch & bound settled on, its last incumbent. *)
let check_solver_objective label pl (r : Wishbone.Placement.report) =
  let cost = Wishbone.Placement.objective_value pl ~tier_of:r.tier_of in
  check (Printf.sprintf "%s: cost %.17g = the ILP incumbent's objective" label cost)
    (match List.rev r.solver.incumbent_trace with
    | (_, ilp) :: _ -> feq ~rel:1e-6 cost ilp
    | [] -> false)

let check_placement label pl (r : Wishbone.Placement.report) ~pin =
  check (label ^ ": feasible")
    (Wishbone.Placement.feasible pl ~tier_of:r.tier_of);
  check_solver_objective label pl r;
  check (Printf.sprintf "%s: objective %.17g = pinned %.17g" label r.objective pin)
    (feq ~rel:1e-6 r.objective pin)

(* Rate-search probes, seen through the branch & bound node hook: a
   call with no nodes and no pivots yet starts a probe.  A probe's span
   runs until the next probe starts, so it includes that probe's
   encoding. *)
let probe_hook () =
  let start = ref nan and nodes = ref 0 in
  let close () =
    if not (Float.is_nan !start) then begin
      let stop = Span.now_us () in
      Span.record "rate_search.probe" ~start_us:!start ~stop_us:stop;
      add "rate_search.probes" 1.;
      add "rate_search.probe_nodes" (Float.of_int !nodes);
      set_max "rate_search.max_probe_ms" ((stop -. !start) /. 1000.)
    end
  in
  let on_node ~nodes:n ~pivots =
    if n = 0 && pivots = 0 then begin
      close ();
      start := Span.now_us ()
    end;
    nodes := n
  in
  (on_node, close)

let run_pass plan attributed =
  let sparse0 = Lp.Sparse.counters () and fallbacks0 = Lp.Sparse.dense_fallbacks () in
  let chain_s = ref 0. and tree_s = ref 0. and search_s = ref 0. in
  let bb_nodes = ref 0 and bb_pivots = ref 0 and bb_lp = ref 0 and bb_hot = ref 0 in
  let search_rate = ref 0. and search_exact = ref false in
  let account (s : Lp.Branch_bound.stats) =
    bb_nodes := !bb_nodes + s.nodes_explored;
    bb_pivots := !bb_pivots + s.total_pivots;
    bb_lp := !bb_lp + s.lp_solves;
    bb_hot := !bb_hot + s.hot_solves
  in
  attributed := [];
  let compile app =
    let spec =
      phase "profile" (fun () ->
          let raw =
            call "profiler.collect" (fun () ->
                Profiler.Profile.collect ~duration:trace_s app.graph app.trace)
          in
          call "spec.of_profile" (fun () ->
              match
                Wishbone.Spec.of_profile ~mode:app.mode
                  ~node_platform:Profiler.Platform.tmote_sky raw
              with
              | Ok s -> s
              | Error m -> failwith m))
    in
    let chain = Wishbone.Placement.of_spec spec in
    let solve label pl =
      Span.with_ "placement.solve" (fun () -> Wishbone.Placement.solve pl)
      |> function
      | Wishbone.Placement.Partitioned r -> Some r
      | _ ->
          check (label ^ ": partitioned") false;
          None
    in
    List.iter
      (fun req ->
        let label =
          match req with
          | Chain rate -> Printf.sprintf "%s chain x%g" app.name rate
          | Tree rate -> Printf.sprintf "%s star%d x%g" app.name star_leaves rate
          | Search -> app.name ^ " chain search"
        in
        let t0 = now () in
        (match req with
        | Chain rate ->
            let pl = Wishbone.Placement.scale_rate chain rate in
            phase "chain" (fun () ->
                Option.iter
                  (fun (r : Wishbone.Placement.report) ->
                    check_placement label pl r ~pin:(pinned_objective (app.name, rate));
                    account r.solver;
                    if !Span.enabled then begin
                      add "bb.solve_ms" (r.solver.time_total *. 1000.);
                      add "bb.time_to_incumbent_ms" (r.solver.time_to_incumbent *. 1000.);
                      add "bb.nodes" (Float.of_int r.solver.nodes_explored);
                      add "bb.lp_solves" (Float.of_int r.solver.lp_solves);
                      add "bb.hot_solves" (Float.of_int r.solver.hot_solves);
                      add "bb.pivots" (Float.of_int r.solver.total_pivots)
                    end)
                  (solve label pl));
            chain_s := !chain_s +. (now () -. t0);
            if not (List.mem_assoc label !attributed) then
              attributed := (label, pl) :: !attributed
        | Tree rate ->
            let pl = Wishbone.Placement.scale_rate (star ~n_leaves:star_leaves spec) rate in
            phase "tree" (fun () ->
                Option.iter
                  (fun (r : Wishbone.Placement.report) ->
                    (* the star's optimum is the chain's at the same rate *)
                    check_placement label pl r ~pin:(pinned_objective (app.name, rate));
                    account r.solver;
                    set "tree.bb_ms" (r.solver.time_total *. 1000.);
                    set "tree.bb_nodes" (Float.of_int r.solver.nodes_explored);
                    set "tree.bb_pivots" (Float.of_int r.solver.total_pivots))
                  (solve label pl));
            tree_s := !tree_s +. (now () -. t0);
            attributed := (label, pl) :: !attributed
        | Search ->
            let on_node, close = probe_hook () in
            let options =
              if !Span.enabled then { search_options with on_node = Some on_node }
              else search_options
            in
            phase "search" (fun () ->
                match
                  Span.with_ "rate_search.search" (fun () ->
                      let r = Wishbone.Rate_search.search_placement ~options chain in
                      close ();
                      r)
                with
                | None -> check (label ^ ": found a rate") false
                | Some r ->
                    let rate = r.placement_multiplier in
                    let rep = r.placement_report in
                    let pl = Wishbone.Placement.scale_rate chain rate in
                    check (Printf.sprintf "%s: rate %.17g = pinned" label rate)
                      (feq ~rel:1e-9 rate pinned_search_rate);
                    check (label ^ ": feasible at its rate")
                      (Wishbone.Placement.feasible pl ~tier_of:rep.tier_of);
                    check_solver_objective label pl rep;
                    account rep.solver;
                    search_rate := rate;
                    search_exact := r.placement_exact);
            search_s := !search_s +. (now () -. t0)))
      app.requests
  in
  (* Each app compile starts from a collected heap, as it would in a
     compiler process of its own, so no collector work left behind by
     the previous app lands in its time.  eeg14 goes last: its tree and
     search grow the heap the most.  The pass time is the sum of the app
     compile times. *)
  let wall_s =
    List.fold_left
      (fun acc app ->
        Gc.full_major ();
        let (), t = time (fun () -> compile app) in
        acc +. t)
      0. plan
  in
  Printf.eprintf "compile: chain %.3f s, tree %.3f s, search %.3f s\n%!" !chain_s !tree_s
    !search_s;
  let sp = Lp.Sparse.counters () in
  let refactorisations = sp.refactorisations - sparse0.refactorisations
  and ft_updates = sp.ft_updates - sparse0.ft_updates
  and ft_entries = sp.ft_entries - sparse0.ft_entries
  and fallbacks = Lp.Sparse.dense_fallbacks () - fallbacks0 in
  if !Span.enabled then begin
    set "compile.compile_s" wall_s;
    set "compile.chain_solve_s" !chain_s;
    set "compile.tree_solve_s" !tree_s;
    set "compile.search_s" !search_s;
    set "sparse.refactorisations" (Float.of_int refactorisations);
    set "sparse.ft_updates" (Float.of_int ft_updates);
    set "sparse.ft_entries" (Float.of_int ft_entries);
    set "sparse.dense_fallbacks" (Float.of_int fallbacks);
    set "rate_search.rate" !search_rate;
    set "rate_search.placement_exact" (if !search_exact then 1. else 0.)
  end;
  {
    wall_s;
    counters =
      [
        ("bb.nodes", !bb_nodes); ("bb.pivots", !bb_pivots);
        ("bb.lp_solves", !bb_lp); ("bb.hot_solves", !bb_hot);
        ("sparse.refactorisations", refactorisations);
        ("sparse.ft_updates", ft_updates); ("sparse.ft_entries", ft_entries);
        ("sparse.dense_fallbacks", fallbacks);
        ("search.rate_bits", Int64.to_int (Int64.bits_of_float !search_rate));
        ("search.exact", Bool.to_int !search_exact);
      ];
  }

(* Layer attribution, outside the timed pass: contract and encode
   every distinct instance, and solve the star's root relaxation on
   its own, so the trace splits [tree_solve_s] between the root LP and
   the branch & bound nodes. *)
let attribute instances =
  List.iter
    (fun (label, (pl : Wishbone.Placement.t)) ->
      Span.with_ ("attribute." ^ label) (fun () ->
          let c = call "preprocess.contract" (fun () -> Wishbone.Preprocess.contract pl.spec) in
          let enc =
            call "placement.encode" (fun () ->
                Wishbone.Placement.encode Wishbone.Placement.Restricted pl c)
          in
          let rows = Lp.Problem.n_constrs enc.problem
          and cols = Lp.Problem.n_vars enc.problem in
          if Wishbone.Placement.Topology.is_chain pl.topology then begin
            set_max "preprocess.n_super" (Float.of_int c.n_super);
            set_max "placement.rows" (Float.of_int rows);
            set_max "placement.cols" (Float.of_int cols)
          end
          else begin
            set "tree.rows" (Float.of_int rows);
            set "tree.cols" (Float.of_int cols);
            let data = Lp.Sparse.of_problem enc.problem in
            let r = call "lp.root" (fun () -> Lp.Sparse.solve_warm data) in
            set "lp.root_pivots" (Float.of_int r.pivots);
            check (label ^ ": root relaxation optimal")
              (Lp.Solution.is_optimal r.status)
          end))
    (List.rev instances)

(* The sensor data a developer records to profile an app on, made
   from the seed as the apps' own [profile] functions make it. *)
let speech_trace ~seed (app : Apps.Speech.t) =
  Profiler.Profile.Trace.periodic ~source:app.source ~rate:Apps.Speech.frame_rate
    ~duration:trace_s ~gen:(Apps.Speech.frame_gen ~seed)

(* one event per channel and 2-s window, 16-bit samples, in time order *)
let eeg_trace ~seed (app : Apps.Eeg.t) =
  let gen =
    Dsp.Siggen.Eeg.create ~seed ~n_channels:app.n_channels
      ~sample_rate:Apps.Eeg.sample_rate ()
  in
  let quantize =
    Array.map (fun x -> Int.max (-32768) (Int.min 32767 (int_of_float (Float.round x))))
  in
  let events = ref [] in
  for w = 0 to int_of_float (trace_s *. Apps.Eeg.window_rate) - 1 do
    let time = Float.of_int w /. Apps.Eeg.window_rate in
    Array.iteri
      (fun ch samples ->
        events :=
          { Profiler.Profile.Trace.time; source = app.sources.(ch);
            value = Dataflow.Value.Int16_arr (quantize samples) }
          :: !events)
      (Dsp.Siggen.Eeg.window gen Apps.Eeg.window_samples)
  done;
  List.rev !events

let setup seed =
  let speech = Apps.Speech.build () in
  let eeg14 = Apps.Eeg.build ~n_channels:14 () in
  let eeg22 = Apps.Eeg.build () in
  let chain = List.map (fun r -> Chain r) in
  let plan =
    [
      { name = "speech"; graph = speech.graph; trace = speech_trace ~seed speech;
        mode = Wishbone.Movable.Conservative;
        requests = chain [ 0.02; 0.05; 0.08 ] };
      { name = "eeg22"; graph = eeg22.graph; trace = eeg_trace ~seed eeg22;
        mode = Wishbone.Movable.Permissive;
        requests = chain [ 0.5; 0.8; 0.92699 ] };
      { name = "eeg14"; graph = eeg14.graph; trace = eeg_trace ~seed eeg14;
        mode = Wishbone.Movable.Permissive;
        requests = chain [ 0.5; 1.0; 1.4296 ] @ [ Tree 1.4296; Search ] };
    ]
  in
  (* the traced run's attribution re-encodes these instances *)
  let attributed = ref [] in
  { domains = 1;
    pass = (fun () -> run_pass plan attributed);
    extras = (fun () -> attribute !attributed) }
