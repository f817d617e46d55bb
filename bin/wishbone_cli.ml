(* The wishbone command-line tool: profile, partition, rate-sweep,
   deploy and serve the bundled applications from the shell.

     wishbone platforms
     wishbone profile  -a speech -p tmote
     wishbone partition -a eeg22 -p tmote --mode permissive --rate 0.5
     wishbone partition -a eeg1 --topology "tmote>2,tmote>2,gumstix" --search
     wishbone sweep    -a speech -p tmote --from 0.01 --to 0.2 --steps 10
     wishbone deploy   -p tmote --nodes 20 --cut 6
     wishbone serve    --queries fleet.txt --shards 2 --repeat 2
     wishbone netprofile --nodes 20 --target 0.9

   Apps, tier topologies and requests are spelled in the one query
   grammar of [Apps.Query]: [partition] answers one query, [serve] a
   file of them, and [deploy] runs one on the simulated testbed. *)

open Cmdliner

let die m =
  Printf.eprintf "error: %s\n" m;
  exit 1

let or_die ?(prefix = "") = function Ok x -> x | Error m -> die (prefix ^ m)

(* ---- shared arguments ---- *)

(* A finite number that [ok] accepts, for [flag].  A bad value is
   reported as [error: FLAG: ...] with exit status 1, as every other
   bad input is, rather than as a cmdliner usage error. *)
let number ~what ~ok of_string to_float pp ~flag =
  let parse s =
    match of_string s with
    | Some x when ok (to_float x) && Float.is_finite (to_float x) -> Ok x
    | _ -> die (Printf.sprintf "%s: expected %s, got %S" flag what s)
  in
  Arg.conv (parse, pp)

let positive of_string =
  number ~what:"a positive number" ~ok:(fun x -> x > 0.) of_string

let pos_float = positive float_of_string_opt Fun.id Format.pp_print_float
let pos_int = positive int_of_string_opt Float.of_int Format.pp_print_int

let nonneg_int =
  number ~what:"a non-negative integer" ~ok:(fun x -> x >= 0.)
    int_of_string_opt Float.of_int Format.pp_print_int

let nonneg_float =
  number ~what:"a non-negative number" ~ok:(fun x -> x >= 0.)
    float_of_string_opt Fun.id Format.pp_print_float

let app_arg =
  let parse s = Result.map_error (fun m -> `Msg m) (Apps.Query.app_of_string s)
  and print ppf a = Format.pp_print_string ppf (Apps.Query.app_to_string a) in
  Arg.(
    value
    & opt (conv (parse, print)) Apps.Query.Speech
    & info [ "a"; "app" ] ~docv:"APP"
        ~doc:
          ("Application: " ^ Apps.Query.apps
         ^ ".  speech is the MFCC pipeline, eegN the N-channel EEG \
            detector; a synthetic app is a random spec with its own \
            budgets, so the platform flags do not apply to it."))

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
    value
    & opt (pos_float ~flag:"--duration") 30.
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

let topology_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "topology" ] ~docv:"PLAT[>K],..."
        ~doc:
          "Solve over a multi-tier platform chain or rooted tier \
           $(i,tree) instead of the two-way cut: comma-separated \
           $(b,PLATFORM[>K]) entries, node-most first, where $(b,>K) \
           uplinks the tier to the K'th entry (0-based; K may also be one \
           past the last entry, naming the implicit unbudgeted central \
           server at the root).  Without $(b,>K) an entry uplinks to the \
           next one, so $(b,tmote,meraki) is a chain.  Example: \
           $(b,tmote>2,tmote>2,gumstix) is a Y — two motes sharing one \
           gumstix whose uplink reaches the server.  Overrides \
           $(b,--platform) for the node tier.")

(* the one query a command's flags name, with no budget overrides *)
let flag_query profiles ~mode app topology request =
  or_die
    (Apps.Query.build profiles ~mode
       { app; topology = Some topology; request; cpu = None; net = None })

let node_only platform = { Apps.Query.plats = [ platform ]; parents = None }

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
    let raw = or_die (Apps.Query.profile (Apps.Query.cache ~duration) app) in
    let graph = Profiler.Profile.graph raw in
    Printf.printf "profiling %s for %.0f s...\n" (Apps.Query.describe app)
      duration;
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
            (Dataflow.Graph.succs graph op.id)
        in
        Printf.printf "%-16s %6d %14.1f %10.3f %12.1f\n" op.name
          (Profiler.Profile.op_fires raw op.id)
          (costed.seconds_per_fire.(op.id) *. 1e6)
          (100. *. costed.cpu_fraction.(op.id))
          out_bps)
      (Dataflow.Graph.ops graph)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Profile an application on synthetic sample data (§3).")
    Term.(const run $ app_arg $ platform_arg $ duration_arg)

let rate_arg =
  Arg.(
    value
    & opt (pos_float ~flag:"--rate") 1.0
    & info [ "rate" ] ~docv:"X" ~doc:"Input rate multiplier (§4.3).")

let partition_cmd =
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
      & opt (some (pos_int ~flag:"--max-pivots")) None
      & info [ "max-pivots" ] ~docv:"N"
          ~doc:
            "Simplex pivot budget per LP relaxation.  When the budget \
             runs out mid-search the best incumbent found so far is \
             reported together with its optimality gap.")
  in
  let time_limit_arg =
    Arg.(
      value
      & opt (some (pos_float ~flag:"--time-limit-ms")) None
      & info [ "time-limit-ms" ] ~docv:"MS"
          ~doc:
            "Wall-clock budget for the branch & bound, in milliseconds. \
             On expiry the best incumbent found so far is reported \
             together with its optimality gap.")
  in
  let node_budget_arg =
    Arg.(
      value
      & opt (some (pos_int ~flag:"--node-budget")) None
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
      & opt (some (pos_int ~flag:"--pivot-budget")) None
      & info [ "pivot-budget" ] ~docv:"N"
          ~doc:
            "Deterministic tree-wide simplex pivot budget, checked at \
             every node boundary and threaded into each LP solve.  Like \
             $(b,--node-budget) the answer is machine-independent.")
  in
  let solver_options (o : Lp.Branch_bound.options) max_pivots time_limit_ms
      node_budget pivot_budget =
    {
      o with
      time_limit =
        Option.fold ~none:o.time_limit ~some:(fun ms -> ms /. 1000.)
          time_limit_ms;
      max_nodes = Option.value ~default:o.max_nodes node_budget;
      pivot_budget = Option.value ~default:o.pivot_budget pivot_budget;
      simplex =
        { max_pivots = Option.value ~default:o.simplex.max_pivots max_pivots };
    }
  in
  (* process-wide solver work counters, read as deltas from solve
     entry: the verbose tail of the report, showing the work the solve
     did *)
  let report_counters ~(c0 : Lp.Sparse.counters) ~fb0 =
    let c = Lp.Sparse.counters () in
    Printf.printf
      "solver counters: %d pivots, %d refactorisations, %d FT updates (%d \
       entries), %d dense fallbacks\n"
      (c.pivots - c0.pivots)
      (c.refactorisations - c0.refactorisations)
      (c.ft_updates - c0.ft_updates)
      (c.ft_entries - c0.ft_entries)
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
  let run app platform duration mode rate dot search topology max_pivots
      time_limit_ms node_budget pivot_budget =
    (* the rate search keeps its looser per-solve budgets unless
       overridden explicitly *)
    let options =
      solver_options
        (if search then Wishbone.Rate_search.default_search_options
         else Lp.Branch_bound.default_options)
        max_pivots time_limit_ms node_budget pivot_budget
    in
    let c0 = Lp.Sparse.counters () and fb0 = Lp.Sparse.dense_fallbacks () in
    let topology =
      match topology with
      | None -> node_only platform
      | Some s -> or_die (Apps.Query.topology_of_string ~flag:"--topology" s)
    in
    let profiles = Apps.Query.cache ~duration in
    let q =
      flag_query profiles ~mode app topology
        (if search then Search else Rate rate)
    in
    (* --dot colours the graph by the profiled trace, so a synthetic app
       is refused before solving *)
    let dot =
      let trace () = Apps.Query.profile profiles app in
      Option.map (fun path -> (path, or_die ~prefix:"--dot: " (trace ()))) dot
    in
    let finish rate (r : Wishbone.Placement.report) =
      let pl = Wishbone.Placement.scale_rate q.placement rate in
      Format.printf "%a@."
        (Wishbone.Placement.pp_report q.placement.spec.graph pl)
        r;
      report_counters ~c0 ~fb0;
      report_budget ~objective:r.objective r.solver;
      Option.iter
        (fun (path, raw) ->
          let costed = Profiler.Profile.cost raw (List.hd topology.plats) in
          let assignment = Array.map (fun tier -> tier = 0) r.tier_of in
          (try Wishbone.Viz.save ~path ~assignment ~costed raw
           with Sys_error m -> die ("--dot: " ^ m));
          Printf.printf "wrote %s\n" path)
        dot
    in
    match Wishbone.Service.solve_direct ~options q with
    | (Placed { rate; report } | Degraded { rate; report; _ }) as answer ->
        if search then
          Printf.printf "maximum sustainable rate: x%.4f%s\n" rate
            (match answer with
            | Degraded _ ->
                " (degraded: a search probe died on the solver budget; this \
                 rate is a safe lower bound)"
            | _ -> "");
        finish rate report
    | Infeasible ->
        print_endline
          (if search then "no feasible placement at any rate"
           else "no feasible placement at this rate; try --search");
        exit 1
    | Failed m ->
        if m = "solver budget exhausted" then
          Printf.eprintf
            "%s before any feasible partition was found; raise \
             --max-pivots, --node-budget, --pivot-budget or --time-limit-ms\n"
            m
        else Printf.eprintf "solver failure: %s\n" m;
        exit 1
  in
  Cmd.v
    (Cmd.info "partition"
       ~doc:
         "Compute the optimal node/server partition (§4), or — with \
          $(b,--topology) — the optimal placement over a multi-tier \
          platform chain or rooted tier tree.")
    Term.(
      const run $ app_arg $ platform_arg $ duration_arg $ mode_arg $ rate_arg
      $ dot_arg $ search_arg $ topology_arg $ max_pivots_arg $ time_limit_arg
      $ node_budget_arg $ pivot_budget_arg)

let sweep_cmd =
  let from_arg =
    Arg.(
      value
      & opt (pos_float ~flag:"--from") 0.25
      & info [ "from" ] ~docv:"X" ~doc:"Lowest rate.")
  in
  let to_arg =
    Arg.(
      value
      & opt (pos_float ~flag:"--to") 2.0
      & info [ "to" ] ~docv:"X" ~doc:"Highest rate.")
  in
  let steps_arg =
    Arg.(
      value
      & opt (pos_int ~flag:"--steps") 8
      & info [ "steps" ] ~docv:"N" ~doc:"Sweep points.")
  in
  let run app platform duration mode lo hi steps =
    let q =
      flag_query (Apps.Query.cache ~duration) ~mode app (node_only platform)
        (Rate lo)
    in
    Printf.printf "%-10s %16s %16s %12s\n" "rate x" "ops on node" "cut B/s"
      "node cpu %";
    for i = 0 to steps - 1 do
      let mult =
        lo +. ((hi -. lo) *. Float.of_int i /. Float.of_int (Int.max 1 (steps - 1)))
      in
      match Wishbone.Service.solve_direct { q with request = Rate mult } with
      | Placed { report = r; _ } | Degraded { report = r; _ } ->
          Printf.printf "%-10.3f %16d %16.1f %12.1f\n" mult
            (List.length (Wishbone.Placement.ops_on r 0))
            r.link_net.(0)
            (100. *. r.tier_cpu.(0))
      | Infeasible -> Printf.printf "%-10.3f %16s\n" mult "(does not fit)"
      | Failed m -> Printf.printf "%-10.3f solver failure: %s\n" mult m
    done
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Partition across a range of input rates.")
    Term.(
      const run $ app_arg $ platform_arg $ duration_arg $ mode_arg $ from_arg
      $ to_arg $ steps_arg)

let nodes_arg =
  Arg.(
    value
    & opt (pos_int ~flag:"--nodes") 1
    & info [ "nodes" ] ~docv:"N" ~doc:"Network size.")

let deploy_cmd =
  let cut_arg =
    Arg.(
      value & opt int 6
      & info [ "cut" ] ~docv:"K"
          ~doc:"Pipeline cut: first K operators on the node (speech only).")
  in
  let sim_duration_arg =
    Arg.(
      value
      & opt (pos_float ~flag:"--sim-duration") 60.
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
      value
      & opt (nonneg_float ~flag:"--crash-rate") 0.
      & info [ "crash-rate" ] ~docv:"PER_SEC"
          ~doc:"Per-node crash rate in crashes/second (with --faults); state \
                is lost and the node reboots 2 s later.")
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
  let seed_arg =
    Arg.(value & opt int 5 & info [ "seed" ] ~docv:"N" ~doc:"Simulation seed.")
  in
  (* deploy runs the speech app, profiled for 10 s under the
     conservative mode *)
  let speech_query topology rate =
    flag_query
      (Apps.Query.cache ~duration:10.)
      ~mode:Wishbone.Movable.Conservative Speech topology (Rate rate)
  in
  let run_tiers_deploy ~ts ~replicas ~sim_duration ~rate ~seed t =
    let q = speech_query ts rate in
    match Wishbone.Service.solve_direct q with
    | Infeasible ->
        print_endline "no feasible placement at this rate";
        exit 1
    | Failed m ->
        Printf.eprintf "solver failure: %s\n" m;
        exit 1
    | Placed { report = r; _ } | Degraded { report = r; _ } ->
        (* every tier is costed at --rate, not just tier 0 *)
        let pl = Wishbone.Placement.scale_rate q.placement rate in
        Format.printf "%a@."
          (Wishbone.Placement.pp_report q.placement.spec.graph pl)
          r;
        let n_links = Wishbone.Placement.n_tiers pl - 1 in
        (* every link is a bounded shedding channel so overload shows up
           as per-link drop counters, not silence *)
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
        (* rounds injections per node at frame_rate*rate windows/s ->
           per-node offered B/s for the predicted-vs-measured comparison *)
        let per_sec bytes =
          Float.of_int bytes *. Apps.Speech.frame_rate *. rate
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
        Printf.printf "sink outputs: %d\n" tc.Wishbone.Deploy.sink_outputs
  in
  let run platform nodes cut sim_duration faults burst_loss crash_rate
      reliable adaptive rate seed topology =
    let t = Apps.Speech.build () in
    (* the tier placement to execute and its tier-0 replica count *)
    let tiered =
      match topology with
      | Some "testbed" ->
          (* the fig. 9/10 routing tree: every mote a leaf tier of the
             node platform, one radio hop from the basestation root;
             the sensing sources sit on tier 0, so the fan-out IS the
             topology and no extra tier-0 replication applies *)
          Some
            ( {
                Apps.Query.plats = List.init nodes (fun _ -> platform);
                parents = Some (Netsim.Testbed.routing_parents ~n_nodes:nodes);
              },
              1 )
      | Some s ->
          Some (or_die (Apps.Query.topology_of_string ~flag:"--topology" s), nodes)
      | None -> None
    in
    match tiered with
    | Some (ts, replicas) ->
        run_tiers_deploy ~ts ~replicas ~sim_duration ~rate ~seed t
    | None ->
    let n_ops = Array.length t.Apps.Speech.order in
    if cut < 1 || cut >= n_ops then
      die
        (Printf.sprintf "--cut: expected 1 to %d (speech has %d operators), \
                         got %d"
           (n_ops - 1) n_ops cut);
    let assignment = Apps.Speech.cut_assignment t cut in
    let link =
      if platform.Profiler.Platform.radio_payload_bytes <= 64 then
        Netsim.Link.cc2420
      else Netsim.Link.wifi
    in
    if not (burst_loss >= 0. && burst_loss < 1.) then
      die
        (Printf.sprintf "--burst-loss: expected a probability in [0, 1), got %g"
           burst_loss);
    let fault_spec =
      if not faults then Netsim.Faults.none
      else
        {
          Netsim.Faults.none with
          Netsim.Faults.crash_rate;
          reboot_s = 2.;
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
      let q = speech_query (node_only platform) 1. in
      let probe ~rate:r ~assignment =
        Wishbone.Adaptive.testbed_probe ~config ~graph:t.Apps.Speech.graph
          ~sources:(fun ~rate:r' -> sources ~rate:(rate *. r'))
          ~rate:r ~assignment
      in
      let out =
        Wishbone.Adaptive.run ~spec:q.placement.spec ~assignment ~probe ()
      in
      Format.printf "%a" Wishbone.Adaptive.pp_trace out.Wishbone.Adaptive.trace;
      Printf.printf "final: rate x%.4f, goodput %.1f%%%s\n"
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
          optionally under injected faults; with $(b,--topology), execute \
          a multi-tier placement through the tier-level engine with bounded inter-tier channels and a \
          per-edge predicted-vs-offered table.  $(b,--topology testbed) \
          places against the testbed's own routing tree ($(b,--nodes) \
          motes, one hop from the basestation).")
    Term.(
      const run $ platform_arg $ nodes_arg $ cut_arg $ sim_duration_arg
      $ faults_arg $ burst_loss_arg $ crash_rate_arg $ reliable_arg
      $ adaptive_arg $ rate_arg $ seed_arg $ topology_arg)

(* ---- serve: the fleet placement service over a query file ---- *)

let serve_cmd =
  let queries_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "queries" ] ~docv:"FILE"
          ~doc:
            "Newline-delimited query file.  Each line is $(b,APP CHAIN \
             REQUEST [cpu=F] [net=F]) in the query grammar that \
             $(b,partition) also speaks: APP is as for $(b,--app), CHAIN \
             a $(b,--topology) tier list ($(b,-) for synthetic specs, \
             which carry their own budgets), REQUEST is $(b,rate X) or \
             $(b,search), and cpu=/net= override the node CPU and radio \
             budgets.  Blank lines and $(b,#) comments are skipped.")
  in
  let shards_arg =
    Arg.(
      value
      & opt
          (number ~what:"an integer from 1 to 128"
             ~ok:(fun x ->
               x >= 1. && x <= Float.of_int Wishbone.Service.max_shards)
             int_of_string_opt Float.of_int Format.pp_print_int
             ~flag:"--shards")
          1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Solver domains per batch, at most 128 (OCaml's domain \
             limit).  Responses are identical for every shard count; \
             only wall-clock changes.")
  in
  let cache_arg =
    Arg.(
      value
      & opt (nonneg_int ~flag:"--cache") 512
      & info [ "cache" ] ~docv:"N"
          ~doc:"Cache capacity in entries; the cheapest to solve again \
                are evicted first.")
  in
  let repeat_arg =
    Arg.(
      value
      & opt (pos_int ~flag:"--repeat") 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Serve the batch N times through the same service; later \
             passes replay from the warm cache.")
  in
  let node_budget_arg =
    Arg.(
      value
      & opt (some (pos_int ~flag:"--node-budget")) None
      & info [ "node-budget" ] ~docv:"N"
          ~doc:
            "Deterministic branch & bound node budget per solve; \
             exhaustion surfaces as gap-certified $(b,degraded) answers, \
             identical on every machine and shard count.")
  in
  let retry_arg =
    Arg.(
      value
      & opt (nonneg_int ~flag:"--retry") 1
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
    (* the snapshot is first written after pass 1: refuse a path that
       cannot hold it before solving anything *)
    Option.iter
      (fun path ->
        let dir = Filename.dirname path in
        let refuse file why = die ("--checkpoint: " ^ file ^ ": " ^ why) in
        if not (Sys.file_exists dir) then refuse dir "no such directory"
        else if not (Sys.is_directory dir) then refuse dir "not a directory"
        else if Sys.file_exists path && Sys.is_directory path then
          refuse path "is a directory")
      checkpoint;
    let lines =
      match In_channel.with_open_text queries_file In_channel.input_all with
      | text ->
          String.split_on_char '\n' text |> List.mapi (fun i l -> (i + 1, l))
      | exception Sys_error m ->
          (* opening names the file in its message; reading does not *)
          if String.starts_with ~prefix:queries_file m then
            Printf.eprintf "serve: %s\n" m
          else Printf.eprintf "serve: %s: %s\n" queries_file m;
          exit 1
    in
    (* each app is profiled once, on first use *)
    let profiles = Apps.Query.cache ~duration in
    let labelled =
      List.filter_map
        (fun (n, text) ->
          let fail msg =
            Printf.eprintf "serve: line %d: %s\n" n msg;
            exit 1
          in
          match Apps.Query.parse text with
          | Ok None -> None
          | Ok (Some l) -> (
              match Apps.Query.build profiles ~mode l with
              | Ok q -> Some (text, q)
              | Error m -> fail m)
          | Error m -> fail m)
        lines
      |> Array.of_list
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
      | Some path ->
          let svc, outcome =
            Wishbone.Service.restore ~capacity:cache ~options ~retries:retry
              ~fault_plan path
          in
          (match outcome with
          | Restored n ->
              Printf.printf "checkpoint: restored %d cache entries from %s\n"
                n path
          | Cold_start reason ->
              Printf.printf "checkpoint: cold start (%s)\n" reason);
          svc
    in
    for pass = 1 to repeat do
      let t0 = Unix.gettimeofday () in
      let responses = Wishbone.Service.run_batch ~shards svc queries in
      let dt = Unix.gettimeofday () -. t0 in
      Array.iteri
        (fun i (r : Wishbone.Service.response) ->
          let node_ops report = List.length (Wishbone.Placement.ops_on report 0)
          and digest = String.sub r.digest 0 12 in
          Printf.printf "[%d.%02d] %-9s %8.2f ms  %s\n    %s\n" pass i
            (match r.served with
            | Hit -> "hit"
            | Warm_start -> "warm"
            | Cold -> "cold")
            r.latency_ms
            (match r.answer with
            | Placed { rate; report } ->
                Printf.sprintf
                  "placed: rate x%.4f, objective %.6g, %d ops on node \
                   (digest %s)"
                  rate report.objective (node_ops report) digest
            | Degraded { rate; report; gap } ->
                Printf.sprintf
                  "degraded: rate x%.4f, objective %.6g within %.2f%% of \
                   optimal, %d ops on node (digest %s)"
                  rate report.objective (100. *. gap) (node_ops report) digest
            | Infeasible -> "infeasible"
            | Failed m -> "failed: " ^ m)
            (fst labelled.(i)))
        responses;
      Printf.printf "pass %d: %d queries in %.1f ms (%.1f queries/s)\n" pass
        (Array.length queries) (1000. *. dt)
        (Float.of_int (Array.length queries) /. Float.max 1e-9 dt);
      match checkpoint with
      | None -> ()
      | Some path -> (
          try Wishbone.Service.checkpoint svc path
          with Sys_error m -> die ("--checkpoint: " ^ m))
    done;
    let c : Wishbone.Service.counters = Wishbone.Service.counters svc in
    Printf.printf
      "counters: %d queries, %d hits, %d misses (%d warm starts), %d \
       inserts, %d evictions, %d resident\n"
      c.queries c.hits c.misses c.warm_starts c.inserts c.evictions c.resident;
    Printf.printf
      "health:   %d ok, %d degraded, %d failed, %d retries, %d worker \
       deaths\n"
      c.ok c.degraded c.failed c.retries c.worker_deaths
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
  let target_arg =
    Arg.(
      value
      & opt
          (number ~what:"a fraction in (0, 1]"
             ~ok:(fun x -> x > 0. && x <= 1.)
             float_of_string_opt Fun.id Format.pp_print_float ~flag:"--target")
          0.9
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
