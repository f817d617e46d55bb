(* The wishbone command-line tool: profile, partition, rate-sweep and
   deploy the bundled applications from the shell.

     wishbone platforms
     wishbone profile  -a speech -p tmote
     wishbone partition -a eeg -p tmote --mode permissive --rate 0.5
     wishbone sweep    -a speech -p tmote --from 0.01 --to 0.2 --steps 10
     wishbone deploy   -a speech -p tmote --nodes 20 --cut 6
     wishbone serve    --queries fleet.txt --shards 2 --repeat 2
     wishbone netprofile --nodes 20 --target 0.9 *)

open Cmdliner

(* ---- shared arguments ---- *)

type app = Speech | Eeg | Eeg1

let app_conv =
  let parse = function
    | "speech" -> Ok Speech
    | "eeg" -> Ok Eeg
    | "eeg1" -> Ok Eeg1
    | s -> Error (`Msg (Printf.sprintf "unknown app %S (speech|eeg|eeg1)" s))
  in
  let print ppf = function
    | Speech -> Format.fprintf ppf "speech"
    | Eeg -> Format.fprintf ppf "eeg"
    | Eeg1 -> Format.fprintf ppf "eeg1"
  in
  Arg.conv (parse, print)

let app_arg =
  Arg.(
    value
    & opt app_conv Speech
    & info [ "a"; "app" ] ~docv:"APP"
        ~doc:"Application: speech (MFCC pipeline), eeg (22 channels), eeg1 \
              (single channel).")

let platform_conv =
  let parse s =
    match Profiler.Platform.find s with
    | p -> Ok p
    | exception Not_found ->
        Error
          (`Msg
            (Printf.sprintf "unknown platform %S; try: %s" s
               (String.concat ", "
                  (List.map
                     (fun p -> p.Profiler.Platform.name)
                     Profiler.Platform.all))))
  in
  let print ppf p = Format.fprintf ppf "%s" p.Profiler.Platform.name in
  Arg.conv (parse, print)

let platform_arg =
  Arg.(
    value
    & opt platform_conv Profiler.Platform.tmote_sky
    & info [ "p"; "platform" ] ~docv:"PLATFORM"
        ~doc:"Embedded node platform (see $(b,wishbone platforms)).")

let duration_arg =
  Arg.(
    value & opt float 30.
    & info [ "duration" ] ~docv:"SECONDS" ~doc:"Profiling trace length.")

let mode_conv =
  let parse = function
    | "conservative" -> Ok Wishbone.Movable.Conservative
    | "permissive" -> Ok Wishbone.Movable.Permissive
    | s -> Error (`Msg (Printf.sprintf "unknown mode %S" s))
  in
  let print ppf = function
    | Wishbone.Movable.Conservative -> Format.fprintf ppf "conservative"
    | Wishbone.Movable.Permissive -> Format.fprintf ppf "permissive"
  in
  Arg.conv (parse, print)

let mode_arg =
  Arg.(
    value
    & opt mode_conv Wishbone.Movable.Conservative
    & info [ "mode" ] ~docv:"MODE"
        ~doc:
          "Stateful relocation mode: conservative refuses to put loss \
           upstream of state; permissive relocates with per-node state \
           tables (§2.1.1).")

(* ---- tier chains (--tiers) ---- *)

let tiers_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tiers" ] ~docv:"PLAT,PLAT,..."
        ~doc:
          "Solve over a multi-tier platform chain instead of the two-way \
           cut: comma-separated platform names, node-most first (e.g. \
           $(b,tmote,gumstix)); an unbudgeted central server is appended \
           implicitly.  Overrides $(b,--platform) for the node tier.")

let parse_chain s =
  let names =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  if names = [] then Error "--tiers: empty platform chain"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest -> (
          match Profiler.Platform.find n with
          | p -> go (p :: acc) rest
          | exception Not_found ->
              Error (Printf.sprintf "--tiers: unknown platform %S" n))
    in
    go [] names

(* ---- tier trees (--topology) ---- *)

(* A rooted tier tree over the listed platforms, node-most first, plus
   the implicit unbudgeted central server as the root (one past the
   last listed platform).  [parents = None] is the plain chain, exactly
   as --tiers builds it; see [Wishbone.Placement.of_platforms]. *)
type topo_spec = {
  plats : Profiler.Platform.t list;
  parents : int array option;
}

let topology_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "topology" ] ~docv:"PLAT[>K],..."
        ~doc:
          "Solve over a rooted tier $(i,tree) instead of a chain: \
           comma-separated $(b,PLATFORM[>K]) entries, node-most first, \
           where $(b,>K) uplinks the tier to the K'th entry (0-based; K \
           may also be one past the last entry, naming the implicit \
           unbudgeted central server at the root).  Without $(b,>K) an \
           entry uplinks to the next one, so a list with no $(b,>K) at \
           all is exactly the $(b,--tiers) chain.  Example: \
           $(b,tmote>2,tmote>2,gumstix) is a Y — two motes sharing one \
           gumstix whose uplink reaches the server.")

let parse_topology s =
  if not (String.contains s '>') then
    Result.map (fun plats -> { plats; parents = None }) (parse_chain s)
  else
    let toks =
      String.split_on_char ',' s
      |> List.map String.trim
      |> List.filter (fun x -> x <> "")
    in
    let n = List.length toks in
    if n = 0 then Error "--topology: empty platform list"
    else
      let rec go i plats parents = function
        | [] -> (
            let parents = Array.of_list (List.rev (-1 :: parents)) in
            match Wishbone.Placement.Topology.of_parents parents with
            | _ -> Ok { plats = List.rev plats; parents = Some parents }
            | exception Invalid_argument m -> Error ("--topology: " ^ m))
        | tok :: rest -> (
            let name, parent =
              match String.index_opt tok '>' with
              | None -> (tok, Ok (i + 1))
              | Some j -> (
                  let k =
                    String.sub tok (j + 1) (String.length tok - j - 1)
                  in
                  ( String.sub tok 0 j,
                    match int_of_string_opt (String.trim k) with
                    | Some p when p > i && p <= n -> Ok p
                    | Some p ->
                        Error
                          (Printf.sprintf
                             "--topology: %S: parent %d not in (%d, %d] \
                              (parents must sit later in the list; %d is \
                              the server)"
                             tok p i n n)
                    | None ->
                        Error
                          (Printf.sprintf "--topology: bad parent index in %S"
                             tok) ))
            in
            match parent with
            | Error m -> Error m
            | Ok p -> (
                match Profiler.Platform.find (String.trim name) with
                | plat -> go (i + 1) (plat :: plats) (p :: parents) rest
                | exception Not_found ->
                    Error
                      (Printf.sprintf "--topology: unknown platform %S" name)))
      in
      go 0 [] [] toks

(* --tiers and --topology are mutually exclusive; [None] when neither
   was given *)
let tier_spec tiers topology =
  match (tiers, topology) with
  | Some _, Some _ -> Error "--tiers and --topology are mutually exclusive"
  | Some s, None ->
      Result.map (fun plats -> Some { plats; parents = None }) (parse_chain s)
  | None, Some s -> Result.map Option.some (parse_topology s)
  | None, None -> Ok None

(* ---- app construction ---- *)

type built = {
  graph : Dataflow.Graph.t;
  profile : duration:float -> Profiler.Profile.raw;
  label : string;
}

let build_app = function
  | Speech ->
      let t = Apps.Speech.build () in
      {
        graph = t.Apps.Speech.graph;
        profile = (fun ~duration -> Apps.Speech.profile ~duration t);
        label = "speech detection (MFCC pipeline)";
      }
  | Eeg ->
      let t = Apps.Eeg.build () in
      {
        graph = t.Apps.Eeg.graph;
        profile = (fun ~duration -> Apps.Eeg.profile ~duration t);
        label = "EEG seizure detection, 22 channels";
      }
  | Eeg1 ->
      let t = Apps.Eeg.single_channel () in
      {
        graph = t.Apps.Eeg.graph;
        profile = (fun ~duration -> Apps.Eeg.profile ~duration t);
        label = "EEG seizure detection, single channel";
      }

(* ---- commands ---- *)

let platforms_cmd =
  let run () =
    Printf.printf "%-10s %10s %12s %14s  %s\n" "name" "clock" "float cyc"
      "radio B/s" "description";
    List.iter
      (fun (p : Profiler.Platform.t) ->
        Printf.printf "%-10s %7.0f MHz %12.0f %14.0f  %s\n" p.name
          (p.clock_hz /. 1e6) p.cycles_float p.radio_bytes_per_sec
          p.description)
      Profiler.Platform.all
  in
  Cmd.v (Cmd.info "platforms" ~doc:"List the platform catalog.")
    Term.(const run $ const ())

let profile_cmd =
  let run app platform duration =
    let b = build_app app in
    Printf.printf "profiling %s for %.0f s...\n" b.label duration;
    let raw = b.profile ~duration in
    let costed = Profiler.Profile.cost raw platform in
    Printf.printf "%-16s %6s %14s %10s %12s\n" "operator" "fires" "us/fire"
      "cpu %" "out B/s";
    Array.iter
      (fun (op : Dataflow.Op.t) ->
        let out_bps =
          List.fold_left
            (fun acc (e : Dataflow.Graph.edge) ->
              acc +. Profiler.Profile.edge_bytes_per_sec raw e.eid)
            0.
            (Dataflow.Graph.succs b.graph op.id)
        in
        Printf.printf "%-16s %6d %14.1f %10.3f %12.1f\n" op.name
          (Profiler.Profile.op_fires raw op.id)
          (costed.seconds_per_fire.(op.id) *. 1e6)
          (100. *. costed.cpu_fraction.(op.id))
          out_bps)
      (Dataflow.Graph.ops b.graph)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Profile an application on synthetic sample data (§3).")
    Term.(const run $ app_arg $ platform_arg $ duration_arg)

let partition_cmd =
  let rate_arg =
    Arg.(
      value & opt float 1.0
      & info [ "rate" ] ~docv:"X" ~doc:"Input rate multiplier (§4.3).")
  in
  let dot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:"Write a GraphViz visualization of the partition.")
  in
  let search_arg =
    Arg.(
      value & flag
      & info [ "search" ]
          ~doc:"Binary-search the maximum sustainable rate instead of \
                partitioning at --rate.")
  in
  let max_pivots_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-pivots" ] ~docv:"N"
          ~doc:
            "Simplex pivot budget per LP relaxation.  When the budget \
             runs out mid-search the best incumbent found so far is \
             reported together with its optimality gap.")
  in
  let time_limit_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "time-limit-ms" ] ~docv:"MS"
          ~doc:
            "Wall-clock budget for the branch & bound, in milliseconds. \
             On expiry the best incumbent found so far is reported \
             together with its optimality gap.")
  in
  let node_budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "node-budget" ] ~docv:"N"
          ~doc:
            "Deterministic branch & bound node budget: counts work \
             units, not seconds, so — unlike $(b,--time-limit-ms) — a \
             bounded run stops at the same node and returns the same \
             incumbent and gap on any machine.")
  in
  let pivot_budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "pivot-budget" ] ~docv:"N"
          ~doc:
            "Deterministic tree-wide simplex pivot budget, checked at \
             every node boundary and threaded into each LP solve.  Like \
             $(b,--node-budget) the answer is machine-independent.")
  in
  let workers_arg =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Concurrent branch & bound node expansions (deterministic: \
             the partition returned is the same for any worker count).")
  in
  let pricing_arg =
    Arg.(
      value
      & opt
          (some
             (enum
                [ ("devex", Lp.Simplex.Devex); ("dantzig", Lp.Simplex.Dantzig) ]))
          None
      & info [ "pricing" ] ~docv:"RULE"
          ~doc:
            "Simplex pricing rule: $(b,devex) (reference-framework \
             weights, the default) or $(b,dantzig) (candidate-list most \
             negative reduced cost).  Either rule reaches the same \
             optimum; only the pivot trajectory differs.")
  in
  let solver_options base max_pivots time_limit_ms node_budget pivot_budget
      workers pricing =
    let o = base in
    {
      o with
      Lp.Branch_bound.workers;
      time_limit =
        (match time_limit_ms with
        | Some ms -> ms /. 1000.
        | None -> o.Lp.Branch_bound.time_limit);
      max_nodes =
        (match node_budget with
        | Some n -> n
        | None -> o.Lp.Branch_bound.max_nodes);
      pivot_budget =
        (match pivot_budget with
        | Some n -> n
        | None -> o.Lp.Branch_bound.pivot_budget);
      simplex =
        (let s = o.Lp.Branch_bound.simplex in
         let s =
           match max_pivots with
           | Some p -> { s with Lp.Simplex.max_pivots = p }
           | None -> s
         in
         match pricing with
         | Some p -> { s with Lp.Simplex.pricing = p }
         | None -> s);
    }
  in
  (* process-wide solver work counters, reset at solve entry: the
     verbose tail of the report, for eyeballing the effect of
     --pricing / --workers on actual work done *)
  let report_counters (options : Lp.Branch_bound.options) ~fb0 =
    let c = Lp.Sparse.counters () in
    Printf.printf
      "solver counters: pricing %s, %d pivots, %d refactorisations, %d FT \
       updates (%d entries), %d dense fallbacks\n"
      (match options.Lp.Branch_bound.simplex.Lp.Simplex.pricing with
      | Lp.Simplex.Devex -> "devex"
      | Lp.Simplex.Dantzig -> "dantzig")
      (Lp.Simplex.cumulative_pivots ())
      c.Lp.Sparse.refactorisations c.Lp.Sparse.ft_updates
      c.Lp.Sparse.ft_entries
      (Lp.Sparse.dense_fallbacks () - fb0)
  in
  (* on budget exhaustion the solver keeps its best incumbent; surface
     it with the gap to the strongest remaining bound instead of
     failing *)
  let report_budget ~objective (stats : Lp.Branch_bound.stats) =
    if not stats.Lp.Branch_bound.proved_optimal then
      let bound = stats.Lp.Branch_bound.best_bound in
      if Float.is_nan bound then
        Printf.printf
          "budget exhausted: best incumbent so far (no dual bound available)\n"
      else
        Printf.printf
          "budget exhausted: best incumbent so far, gap %.2f%% (objective \
           %g, strongest bound %g)\n"
          (100. *. Float.abs (objective -. bound)
          /. Float.max 1. (Float.abs objective))
          objective bound
  in
  let budget_failure m =
    Printf.eprintf
      "%s before any feasible partition was found; raise --max-pivots, \
       --node-budget, --pivot-budget or --time-limit-ms\n"
      m;
    exit 1
  in
  let run app platform duration mode rate dot search tiers topology max_pivots
      time_limit_ms node_budget pivot_budget workers pricing =
    (* the rate search keeps its looser per-solve budgets unless
       overridden explicitly *)
    let options =
      solver_options
        (if search then Wishbone.Rate_search.default_search_options
         else Lp.Branch_bound.default_options)
        max_pivots time_limit_ms node_budget pivot_budget workers pricing
    in
    Lp.Simplex.reset_cumulative_pivots ();
    Lp.Sparse.reset_counters ();
    let fb0 = Lp.Sparse.dense_fallbacks () in
    let die m =
      Printf.eprintf "error: %s\n" m;
      exit 1
    in
    let b = build_app app in
    let raw = b.profile ~duration in
    let ts =
      match tier_spec tiers topology with
      | Ok (Some ts) -> ts
      | Ok None -> { plats = [ platform ]; parents = None }
      | Error m -> die m
    in
    let node_platform = List.hd ts.plats in
    let spec =
      match Wishbone.Spec.of_profile ~mode ~node_platform raw with
      | Ok spec -> spec
      | Error m -> die m
    in
    let pl =
      Wishbone.Placement.of_platforms ?parents:ts.parents spec raw ts.plats
    in
    let finish pl (r : Wishbone.Placement.report) =
      Format.printf "%a@." (Wishbone.Placement.pp_report b.graph pl) r;
      report_counters options ~fb0;
      report_budget ~objective:r.objective r.solver;
      match dot with
      | Some path ->
          let costed = Profiler.Profile.cost raw node_platform in
          let assignment = Array.map (fun tier -> tier = 0) r.tier_of in
          Wishbone.Viz.save ~path ~assignment ~costed raw;
          Printf.printf "wrote %s\n" path
      | None -> ()
    in
    if search then
      match Wishbone.Rate_search.search_placement ~options pl with
      | Some { placement_multiplier; placement_report; placement_exact } ->
          Printf.printf "maximum sustainable rate: x%.4f%s\n"
            placement_multiplier
            (if placement_exact then ""
             else
               " (degraded: a search probe died on the solver budget; this \
                rate is a safe lower bound)");
          finish
            (Wishbone.Placement.scale_rate pl placement_multiplier)
            placement_report
      | None ->
          print_endline "no feasible placement at any rate";
          exit 1
    else
      let pl = Wishbone.Placement.scale_rate pl rate in
      match Wishbone.Placement.solve ~options pl with
      | Wishbone.Placement.Partitioned r -> finish pl r
      | Wishbone.Placement.No_feasible_partition ->
          print_endline "no feasible placement at this rate; try --search";
          exit 1
      | Wishbone.Placement.Solver_failure m when m = "solver budget exhausted"
        ->
          budget_failure m
      | Wishbone.Placement.Solver_failure m ->
          Printf.eprintf "solver failure: %s\n" m;
          exit 1
  in
  Cmd.v
    (Cmd.info "partition"
       ~doc:
         "Compute the optimal node/server partition (§4), or — with \
          $(b,--tiers) / $(b,--topology) — the optimal placement over a \
          multi-tier platform chain or rooted tier tree.")
    Term.(
      const run $ app_arg $ platform_arg $ duration_arg $ mode_arg $ rate_arg
      $ dot_arg $ search_arg $ tiers_arg $ topology_arg $ max_pivots_arg
      $ time_limit_arg $ node_budget_arg $ pivot_budget_arg $ workers_arg
      $ pricing_arg)

let sweep_cmd =
  let from_arg =
    Arg.(value & opt float 0.25 & info [ "from" ] ~docv:"X" ~doc:"Lowest rate.")
  in
  let to_arg =
    Arg.(value & opt float 2.0 & info [ "to" ] ~docv:"X" ~doc:"Highest rate.")
  in
  let steps_arg =
    Arg.(value & opt int 8 & info [ "steps" ] ~docv:"N" ~doc:"Sweep points.")
  in
  let run app platform duration mode lo hi steps =
    let b = build_app app in
    let raw = b.profile ~duration in
    match Wishbone.Spec.of_profile ~mode ~node_platform:platform raw with
    | Error m ->
        Printf.eprintf "error: %s\n" m;
        exit 1
    | Ok spec ->
        let pl = Wishbone.Placement.of_spec spec in
        Printf.printf "%-10s %16s %16s %12s\n" "rate x" "ops on node"
          "cut B/s" "node cpu %";
        for i = 0 to steps - 1 do
          let mult =
            lo +. ((hi -. lo) *. Float.of_int i /. Float.of_int (Int.max 1 (steps - 1)))
          in
          match
            Wishbone.Placement.solve (Wishbone.Placement.scale_rate pl mult)
          with
          | Wishbone.Placement.Partitioned r ->
              Printf.printf "%-10.3f %16d %16.1f %12.1f\n" mult
                (List.length (Wishbone.Placement.ops_on r 0))
                r.link_net.(0)
                (100. *. r.tier_cpu.(0))
          | Wishbone.Placement.No_feasible_partition ->
              Printf.printf "%-10.3f %16s\n" mult "(does not fit)"
          | Wishbone.Placement.Solver_failure m ->
              Printf.printf "%-10.3f solver failure: %s\n" mult m
        done
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Partition across a range of input rates.")
    Term.(
      const run $ app_arg $ platform_arg $ duration_arg $ mode_arg $ from_arg
      $ to_arg $ steps_arg)

let deploy_cmd =
  let nodes_arg =
    Arg.(value & opt int 1 & info [ "nodes" ] ~docv:"N" ~doc:"Network size.")
  in
  let cut_arg =
    Arg.(
      value & opt int 6
      & info [ "cut" ] ~docv:"K"
          ~doc:"Pipeline cut: first K operators on the node (speech only).")
  in
  let sim_duration_arg =
    Arg.(
      value & opt float 60.
      & info [ "sim-duration" ] ~docv:"SECONDS" ~doc:"Simulated seconds.")
  in
  let faults_arg =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:"Inject faults: Gilbert-Elliott burst loss (--burst-loss) and \
                node crash/reboot cycles (--crash-rate).")
  in
  let burst_loss_arg =
    Arg.(
      value & opt float 0.1
      & info [ "burst-loss" ] ~docv:"P"
          ~doc:"Long-run extra loss probability injected as bursts (with \
                --faults).")
  in
  let crash_rate_arg =
    Arg.(
      value & opt float 0.
      & info [ "crash-rate" ] ~docv:"PER_SEC"
          ~doc:"Per-node crash rate in crashes/second (with --faults); state \
                is lost and the node reboots after a fixed delay.")
  in
  let reliable_arg =
    Arg.(
      value & flag
      & info [ "reliable" ]
          ~doc:"Use the end-to-end ack/retry transport instead of best-effort \
                delivery.")
  in
  let adaptive_arg =
    Arg.(
      value & flag
      & info [ "adaptive" ]
          ~doc:"Close the loop: run the adaptive controller, which probes \
                goodput and steps the rate down the §4.3 lattice and/or \
                repartitions until the target is met.")
  in
  let rate_arg =
    Arg.(
      value & opt float 1.0
      & info [ "rate" ] ~docv:"X" ~doc:"Input rate multiplier.")
  in
  let seed_arg =
    Arg.(value & opt int 5 & info [ "seed" ] ~docv:"N" ~doc:"Simulation seed.")
  in
  let run_tiers_deploy ~ts ~replicas ~sim_duration ~rate ~seed t =
    let node_platform = List.hd ts.plats in
    let raw = Apps.Speech.profile ~duration:10. t in
    match
      Wishbone.Spec.of_profile ~mode:Wishbone.Movable.Conservative
        ~node_platform raw
    with
    | Error m ->
        Printf.eprintf "error: %s\n" m;
        exit 1
    | Ok spec -> (
        (* build at rate 1, then scale every tier, not just tier 0 *)
        let pl =
          Wishbone.Placement.scale_rate
            (Wishbone.Placement.of_platforms ?parents:ts.parents spec raw
               ts.plats)
            rate
        in
        match Wishbone.Placement.solve pl with
        | Wishbone.Placement.No_feasible_partition ->
            print_endline "no feasible placement at this rate";
            exit 1
        | Wishbone.Placement.Solver_failure m ->
            Printf.eprintf "solver failure: %s\n" m;
            exit 1
        | Wishbone.Placement.Partitioned r ->
            Format.printf "%a@."
              (Wishbone.Placement.pp_report t.Apps.Speech.graph pl)
              r;
            let n_links = Wishbone.Placement.n_tiers pl - 1 in
            (* every link is a bounded shedding channel so overload
               shows up as per-link drop counters, not silence *)
            let links =
              List.init n_links (fun k ->
                  Some
                    {
                      Runtime.Multirun.policy = Runtime.Shed.Drop_newest;
                      capacity = 8;
                      service = 1;
                      seed = seed + k;
                    })
            in
            let sources =
              List.map
                (fun (s : Netsim.Testbed.source_spec) -> (s.source, s.gen))
                (Apps.Speech.testbed_sources ~rate_mult:rate t)
            in
            let rounds = Int.max 1 (int_of_float sim_duration) in
            let tc =
              Wishbone.Deploy.run_tiers ~n_nodes:replicas ~links ~rounds
                ~placement:pl ~tier_of:r.tier_of ~sources ()
            in
            (* rounds injections per node at frame_rate*rate windows/s
               -> per-node offered B/s for the predicted-vs-measured
               comparison *)
            let per_sec bytes =
              Float.of_int bytes
              *. Apps.Speech.frame_rate *. rate
              /. Float.of_int (rounds * replicas)
            in
            Printf.printf "%-10s %16s %16s %10s\n" "link" "predicted B/s"
              "offered B/s" "dropped";
            for k = 0 to n_links - 1 do
              Printf.printf "%-10s %16.1f %16.1f %10d\n"
                pl.Wishbone.Placement.links.(k).Wishbone.Placement.lname
                tc.Wishbone.Deploy.predicted_link_net.(k)
                (per_sec tc.Wishbone.Deploy.offered_bytes.(k))
                tc.Wishbone.Deploy.link_dropped.(k)
            done;
            Printf.printf "sink outputs: %d\n"
              tc.Wishbone.Deploy.sink_outputs)
  in
  let run platform nodes cut sim_duration faults burst_loss crash_rate
      reliable adaptive rate seed tiers topology =
    let t = Apps.Speech.build () in
    let die m =
      Printf.eprintf "error: %s\n" m;
      exit 1
    in
    (* the tier placement to execute and its tier-0 replica count *)
    let tiered =
      match (tiers, topology) with
      | None, Some "testbed" ->
          (* the fig. 9/10 routing tree: every mote a leaf tier of the
             node platform, one radio hop from the basestation root;
             the sensing sources sit on tier 0, so the fan-out IS the
             topology and no extra tier-0 replication applies *)
          let n = Int.max 1 nodes in
          Some
            ( {
                plats = List.init n (fun _ -> platform);
                parents = Some (Netsim.Testbed.routing_parents ~n_nodes:n);
              },
              1 )
      | _ -> (
          match tier_spec tiers topology with
          | Error m -> die m
          | Ok ts -> Option.map (fun ts -> (ts, nodes)) ts)
    in
    match tiered with
    | Some (ts, replicas) ->
        run_tiers_deploy ~ts ~replicas ~sim_duration ~rate ~seed t
    | None ->
    let assignment = Apps.Speech.cut_assignment t cut in
    let link =
      if platform.Profiler.Platform.radio_payload_bytes <= 64 then
        Netsim.Link.cc2420
      else Netsim.Link.wifi
    in
    let fault_spec =
      if not faults then Netsim.Faults.none
      else
        {
          Netsim.Faults.none with
          Netsim.Faults.crash_rate;
          burst =
            (if burst_loss > 0. then
               Some (Netsim.Faults.burst_of_loss burst_loss)
             else None);
        }
    in
    let transport =
      if reliable then Netsim.Transport.default_reliable ()
      else Netsim.Transport.Unreliable
    in
    let config =
      Netsim.Testbed.default_config ~n_nodes:nodes ~duration:sim_duration
        ~seed ~platform ~link ~faults:fault_spec ~transport ()
    in
    let sources ~rate =
      Apps.Speech.testbed_sources ~rate_mult:rate t
    in
    if adaptive then begin
      let raw = Apps.Speech.profile ~duration:10. t in
      match
        Wishbone.Spec.of_profile ~mode:Wishbone.Movable.Conservative
          ~node_platform:platform raw
      with
      | Error m ->
          Printf.eprintf "error: %s\n" m;
          exit 1
      | Ok spec ->
          let probe ~rate:r ~assignment =
            Wishbone.Adaptive.testbed_probe ~config ~graph:t.Apps.Speech.graph
              ~sources:(fun ~rate:r' -> sources ~rate:(rate *. r'))
              ~rate:r ~assignment
          in
          let out = Wishbone.Adaptive.run ~spec ~assignment ~probe () in
          Format.printf "%a" Wishbone.Adaptive.pp_trace out.Wishbone.Adaptive.trace;
          Printf.printf
            "final: rate x%.4f, goodput %.1f%%%s\n"
            (rate *. out.Wishbone.Adaptive.rate)
            (100. *. out.Wishbone.Adaptive.goodput)
            (if out.Wishbone.Adaptive.converged then "" else " (not converged)")
    end
    else begin
      let r =
        Netsim.Testbed.run config ~graph:t.Apps.Speech.graph
          ~node_of:(fun i -> assignment.(i))
          ~sources:(sources ~rate)
      in
      Printf.printf
        "inputs %d (processed %.1f%%)\nmessages %d (received %.1f%%)\n\
         packets %d (collisions %d, channel %d, queue %d)\n\
         goodput %.2f%%; node cpu %.1f%%; offered %.0f B/s\n"
        r.inputs_offered
        (100. *. r.input_fraction)
        r.msgs_sent
        (100. *. r.msg_fraction)
        r.packets_sent r.packets_lost_collision r.packets_lost_channel
        r.packets_lost_queue
        (100. *. r.goodput_fraction)
        (100. *. r.node_busy_fraction)
        r.offered_bytes_per_sec;
      if faults || reliable then
        Printf.printf
          "faults: crashes %d, inputs lost while down %d\n\
           transport: retransmissions %d, duplicates %d, expired %d, \
           pending %d; acks %d sent / %d lost\n"
          r.crashes r.inputs_lost_down r.retransmissions r.msgs_duplicate
          r.msgs_expired r.msgs_pending r.acks_sent r.acks_lost
    end
  in
  Cmd.v
    (Cmd.info "deploy"
       ~doc:
         "Run the speech app on the simulated wireless testbed (§7.3), \
          optionally under injected faults; with $(b,--tiers) or \
          $(b,--topology), execute a multi-tier placement through the \
          tier-level engine with bounded inter-tier channels and a \
          per-edge predicted-vs-offered table.  $(b,--topology testbed) \
          places against the testbed's own routing tree ($(b,--nodes) \
          motes, one hop from the basestation).")
    Term.(
      const run $ platform_arg $ nodes_arg $ cut_arg $ sim_duration_arg
      $ faults_arg $ burst_loss_arg $ crash_rate_arg $ reliable_arg
      $ adaptive_arg $ rate_arg $ seed_arg $ tiers_arg $ topology_arg)

(* ---- serve: the fleet placement service over a query file ---- *)

let serve_cmd =
  let queries_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "queries" ] ~docv:"FILE"
          ~doc:
            "Newline-delimited query file.  Each line is $(b,APP CHAIN \
             REQUEST [cpu=F] [net=F]) where APP is \
             speech|eeg1|eeg14|eeg22|synthetic:SEED[:NOPS], CHAIN is a \
             comma-separated platform chain (node-most first; $(b,-) for \
             synthetic specs, which carry their own budgets) — or, with \
             $(b,PLAT>K) entries, a rooted tier tree as in \
             $(b,--topology) — REQUEST is $(b,rate X) or $(b,search), \
             and cpu=/net= override the node CPU and radio budgets.  \
             Blank lines and $(b,#) comments are skipped.")
  in
  let shards_arg =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Solver domains per batch.  Responses are identical for every \
             shard count; only wall-clock changes.")
  in
  let cache_arg =
    Arg.(
      value & opt int 512
      & info [ "cache" ] ~docv:"N" ~doc:"LRU cache capacity in entries.")
  in
  let repeat_arg =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Serve the batch N times through the same service; later \
             passes replay from the warm cache.")
  in
  let node_budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "node-budget" ] ~docv:"N"
          ~doc:
            "Deterministic branch & bound node budget per solve; \
             exhaustion surfaces as gap-certified $(b,degraded) answers, \
             identical on every machine and shard count.")
  in
  let retry_arg =
    Arg.(
      value & opt int 1
      & info [ "retry" ] ~docv:"N"
          ~doc:
            "Extra solve attempts the per-query supervisor makes after a \
             contained exception before answering $(b,failed).")
  in
  let checkpoint_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Crash-safe cache snapshot: restore the cache from FILE \
             before serving (a missing, corrupt or stale snapshot starts \
             cold) and atomically rewrite it after each pass.")
  in
  let inject_faults_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "inject-faults" ] ~docv:"SEED"
          ~doc:
            "Inject seeded solver faults (transient declines, permanent \
             faults, mid-solve crashes, worker deaths) into ~10% of \
             solves — the containment test harness.  Answers remain \
             deterministic per seed and shard count.")
  in
  let run queries_file shards cache repeat node_budget retry checkpoint
      inject_faults mode duration =
    let fail line msg =
      Printf.eprintf "serve: line %d: %s\n" line msg;
      exit 1
    in
    (* profiling dominates query construction, so raw traces are
       cached per app token and re-costed per platform *)
    let profiles : (string, Dataflow.Graph.t * Profiler.Profile.raw) Hashtbl.t =
      Hashtbl.create 4
    in
    let profile_app line token =
      match Hashtbl.find_opt profiles token with
      | Some gr -> gr
      | None ->
          let build () =
            match token with
            | "speech" ->
                let t = Apps.Speech.build () in
                (t.Apps.Speech.graph, Apps.Speech.profile ~duration t)
            | "eeg1" ->
                let t = Apps.Eeg.single_channel () in
                (t.Apps.Eeg.graph, Apps.Eeg.profile ~duration t)
            | "eeg14" ->
                let t = Apps.Eeg.build ~n_channels:14 () in
                (t.Apps.Eeg.graph, Apps.Eeg.profile ~duration t)
            | "eeg22" ->
                let t = Apps.Eeg.build ~n_channels:22 () in
                (t.Apps.Eeg.graph, Apps.Eeg.profile ~duration t)
            | _ -> fail line (Printf.sprintf "unknown app %S" token)
          in
          let gr = build () in
          Hashtbl.add profiles token gr;
          gr
    in
    let synthetic_spec line token =
      match String.split_on_char ':' token with
      | [ _; seed ] -> (
          match int_of_string_opt seed with
          | Some seed -> Apps.Synthetic.random_spec ~seed ~mode ()
          | None -> fail line (Printf.sprintf "bad synthetic seed %S" seed))
      | [ _; seed; n_ops ] -> (
          match (int_of_string_opt seed, int_of_string_opt n_ops) with
          | Some seed, Some n_ops ->
              Apps.Synthetic.random_spec ~seed ~n_ops ~mode ()
          | _ -> fail line (Printf.sprintf "bad synthetic token %S" token))
      | _ ->
          fail line
            (Printf.sprintf "bad synthetic token %S (synthetic:SEED[:NOPS])"
               token)
    in
    let parse_overrides line (spec : Wishbone.Spec.t) tokens =
      List.fold_left
        (fun (spec : Wishbone.Spec.t) tok ->
          match String.split_on_char '=' tok with
          | [ "cpu"; v ] -> (
              match float_of_string_opt v with
              | Some f -> { spec with Wishbone.Spec.cpu_budget = f }
              | None -> fail line (Printf.sprintf "bad override %S" tok))
          | [ "net"; v ] -> (
              match float_of_string_opt v with
              | Some f -> { spec with Wishbone.Spec.net_budget = f }
              | None -> fail line (Printf.sprintf "bad override %S" tok))
          | _ -> fail line (Printf.sprintf "unknown override %S" tok))
        spec tokens
    in
    let parse_line lineno text =
      let tokens =
        String.split_on_char ' ' text
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun t -> t <> "")
      in
      match tokens with
      | [] -> None
      | _ when String.length (List.hd tokens) > 0
               && (List.hd tokens).[0] = '#' -> None
      | app :: chain :: rest ->
          let request, overrides =
            match rest with
            | "search" :: o -> (Wishbone.Service.Search, o)
            | "rate" :: x :: o -> (
                match float_of_string_opt x with
                | Some r -> (Wishbone.Service.Rate r, o)
                | None -> fail lineno (Printf.sprintf "bad rate %S" x))
            | _ -> fail lineno "expected `rate X' or `search'"
          in
          let placement =
            if String.length app >= 9 && String.sub app 0 9 = "synthetic"
            then begin
              if chain <> "-" then
                fail lineno
                  "synthetic specs carry their own budgets; use `-' for \
                   the chain";
              let spec = synthetic_spec lineno app in
              Wishbone.Placement.of_spec (parse_overrides lineno spec overrides)
            end
            else begin
              let _, raw = profile_app lineno app in
              let ts =
                match parse_topology chain with
                | Ok t -> t
                | Error m -> fail lineno m
              in
              let node_platform = List.hd ts.plats in
              match Wishbone.Spec.of_profile ~mode ~node_platform raw with
              | Error m -> fail lineno m
              | Ok spec ->
                  Wishbone.Placement.of_platforms ?parents:ts.parents
                    (parse_overrides lineno spec overrides)
                    raw ts.plats
            end
          in
          Some (text, { Wishbone.Service.placement; request })
      | _ -> fail lineno "expected `APP CHAIN REQUEST'"
    in
    let lines =
      let ic = open_in queries_file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go acc n =
            match input_line ic with
            | line -> go ((n, line) :: acc) (n + 1)
            | exception End_of_file -> List.rev acc
          in
          go [] 1)
    in
    let labelled =
      List.filter_map (fun (n, l) -> parse_line n l) lines |> Array.of_list
    in
    if Array.length labelled = 0 then begin
      Printf.eprintf "serve: %s: no queries\n" queries_file;
      exit 1
    end;
    let queries = Array.map snd labelled in
    let options =
      match node_budget with
      | None -> Wishbone.Service.default_options
      | Some n ->
          { Wishbone.Service.default_options with Lp.Branch_bound.max_nodes = n }
    in
    let fault_plan =
      match inject_faults with
      | None -> Wishbone.Service.Fault_plan.none
      | Some seed -> Wishbone.Service.Fault_plan.seeded seed
    in
    let svc =
      match checkpoint with
      | None ->
          Wishbone.Service.create ~capacity:cache ~options ~retries:retry
            ~fault_plan ()
      | Some path -> (
          let svc, outcome =
            Wishbone.Service.restore ~capacity:cache ~options ~retries:retry
              ~fault_plan path
          in
          match outcome with
          | Wishbone.Service.Restored n ->
              Printf.printf "checkpoint: restored %d cache entries from %s\n"
                n path;
              svc
          | Wishbone.Service.Cold_start reason ->
              Printf.printf "checkpoint: cold start (%s)\n" reason;
              svc)
    in
    for pass = 1 to repeat do
      let t0 = Unix.gettimeofday () in
      let responses = Wishbone.Service.run_batch ~shards svc queries in
      let dt = Unix.gettimeofday () -. t0 in
      Array.iteri
        (fun i (r : Wishbone.Service.response) ->
          let label, _ = labelled.(i) in
          Printf.printf "[%d.%02d] %-9s %8.2f ms  %s\n    %s\n" pass i
            (match r.Wishbone.Service.served with
            | Wishbone.Service.Hit -> "hit"
            | Wishbone.Service.Warm_start -> "warm"
            | Wishbone.Service.Cold -> "cold")
            r.Wishbone.Service.latency_ms
            (let node_ops (report : Wishbone.Placement.report) =
               Array.fold_left
                 (fun acc t -> if t = 0 then acc + 1 else acc)
                 0 report.Wishbone.Placement.tier_of
             in
             match r.Wishbone.Service.answer with
            | Wishbone.Service.Placed { rate; report } ->
                Printf.sprintf
                  "placed: rate x%.4f, objective %.6g, %d ops on node \
                   (digest %s)"
                  rate report.Wishbone.Placement.objective (node_ops report)
                  (String.sub r.Wishbone.Service.digest 0 12)
            | Wishbone.Service.Degraded { rate; report; gap } ->
                Printf.sprintf
                  "degraded: rate x%.4f, objective %.6g within %.2f%% of \
                   optimal, %d ops on node (digest %s)"
                  rate report.Wishbone.Placement.objective (100. *. gap)
                  (node_ops report)
                  (String.sub r.Wishbone.Service.digest 0 12)
            | Wishbone.Service.Infeasible -> "infeasible"
            | Wishbone.Service.Failed m -> "failed: " ^ m)
            label)
        responses;
      Printf.printf "pass %d: %d queries in %.1f ms (%.1f queries/s)\n" pass
        (Array.length queries) (1000. *. dt)
        (Float.of_int (Array.length queries) /. Float.max 1e-9 dt);
      match checkpoint with
      | None -> ()
      | Some path -> Wishbone.Service.checkpoint svc path
    done;
    let c = Wishbone.Service.counters svc in
    Printf.printf
      "counters: %d queries, %d hits, %d misses (%d warm starts), %d \
       inserts, %d evictions, %d resident\n"
      c.Wishbone.Service.queries c.Wishbone.Service.hits
      c.Wishbone.Service.misses c.Wishbone.Service.warm_starts
      c.Wishbone.Service.inserts c.Wishbone.Service.evictions
      c.Wishbone.Service.resident;
    Printf.printf
      "health:   %d ok, %d degraded, %d failed, %d retries, %d worker \
       deaths\n"
      c.Wishbone.Service.ok c.Wishbone.Service.degraded
      c.Wishbone.Service.failed c.Wishbone.Service.retries
      c.Wishbone.Service.worker_deaths
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a batch of placement queries through the sharded, cached \
          fleet placement service (DESIGN.md §16).")
    Term.(
      const run $ queries_arg $ shards_arg $ cache_arg $ repeat_arg
      $ node_budget_arg $ retry_arg $ checkpoint_arg $ inject_faults_arg
      $ mode_arg $ duration_arg)

let netprofile_cmd =
  let nodes_arg =
    Arg.(value & opt int 1 & info [ "nodes" ] ~docv:"N" ~doc:"Network size.")
  in
  let target_arg =
    Arg.(
      value & opt float 0.9
      & info [ "target" ] ~docv:"FRACTION" ~doc:"Target reception rate.")
  in
  let run nodes target =
    let p =
      Netsim.Netprofile.max_send_rate ~target ~n_nodes:nodes
        ~link:Netsim.Link.cc2420 ()
    in
    Printf.printf
      "max per-node send rate %.2f msg/s at %.1f%% reception (%.0f B/s \
       aggregate goodput)\n"
      p.offered_msgs_per_sec (100. *. p.reception) p.goodput_bytes_per_sec
  in
  Cmd.v
    (Cmd.info "netprofile"
       ~doc:"Profile the radio channel: max send rate for a target \
             reception rate (§7.3.1).")
    Term.(const run $ nodes_arg $ target_arg)

let () =
  let doc = "profile-based partitioning for sensornet applications" in
  let info = Cmd.info "wishbone" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            platforms_cmd; profile_cmd; partition_cmd; sweep_cmd; deploy_cmd;
            serve_cmd; netprofile_cmd;
          ]))
