(* Heterogeneous deployment planning with the §9 extensions:

   - a mixed network (TMote motes + Meraki gateways) gets one physical
     partition per node class (Wishbone.Mixed);
   - a three-tier architecture (motes -> microservers -> server) is
     the three-tier chain of Wishbone.Placement.of_platforms;
   - an in-network aggregation operator's fan-in cost is modelled with
     Wishbone.Aggregation.

     dune exec examples/fleet_planner.exe *)

open Dataflow

let () =
  let app = Apps.Speech.build () in
  let raw = Apps.Speech.profile ~duration:20. app in

  (* ---- mixed network: per-class physical partitions ---- *)
  print_endline "mixed network: 16 TMotes and 2 Meraki gateways";
  (match
     Wishbone.Mixed.plan raw
       ~classes:
         [
           { Wishbone.Mixed.platform = Profiler.Platform.tmote_sky;
             n_nodes = 16; net_share = None };
           { Wishbone.Mixed.platform = Profiler.Platform.meraki; n_nodes = 2;
             net_share = None };
         ]
   with
  | Error m -> print_endline ("mixed plan failed: " ^ m)
  | Ok plans ->
      Format.printf "%a@." Wishbone.Mixed.pp plans);

  (* ---- three tiers: motes -> meraki microservers -> server ---- *)
  print_endline
    "\nthree-tier placement at 8% of the native rate (motes feed \
     microservers, microservers feed the server):";
  let slow = Profiler.Profile.scale_rate raw 0.08 in
  (match
     Wishbone.Spec.of_profile ~node_platform:Profiler.Platform.tmote_sky slow
   with
  | Error m -> print_endline m
  | Ok spec -> (
      let pl =
        Wishbone.Placement.of_platforms spec slow
          [ Profiler.Platform.tmote_sky; Profiler.Platform.meraki ]
      in
      (* a 300 B/s microserver uplink instead of the Meraki's radio *)
      let links = Array.copy pl.links in
      links.(1) <- { (links.(1)) with net_budget = 300. };
      match Wishbone.Placement.solve { pl with links } with
      | Wishbone.Placement.Partitioned r ->
          let tier_name = [| "mote"; "microserver"; "server" |] in
          Array.iteri
            (fun i tier ->
              Printf.printf "  %-10s -> %s\n"
                (Graph.op app.Apps.Speech.graph i).Op.name tier_name.(tier))
            r.tier_of;
          Printf.printf
            "mote radio %.1f B/s, microserver uplink %.1f B/s; mote cpu \
             %.1f%%, micro cpu %.1f%%\n"
            r.link_net.(0) r.link_net.(1)
            (100. *. r.tier_cpu.(0))
            (100. *. r.tier_cpu.(1))
      | Wishbone.Placement.No_feasible_partition ->
          print_endline "  no feasible three-tier placement"
      | Wishbone.Placement.Solver_failure m -> print_endline m));

  (* ---- in-network aggregation ---- *)
  print_endline "\nin-network aggregation: a mean-over-8-windows reducer";
  let b = Builder.create () in
  let reduce = ref 0 in
  Builder.in_node b (fun () ->
      let s = Builder.source b ~name:"sample" () in
      let r =
        Wishbone.Aggregation.reduce_op b ~name:"mean8" ~window:8
          ~combine:(fun vs ->
            let sum =
              List.fold_left
                (fun acc v ->
                  match v with Value.Float f -> acc +. f | _ -> acc)
                0. vs
            in
            (Value.Float (sum /. 8.), Workload.make ~float_ops:9. ~call_ops:1. ()))
          s
      in
      reduce := Builder.op_id r;
      Builder.sink b ~name:"collect" r);
  let graph = Builder.build b in
  let source = List.hd (Graph.sources graph) in
  let events =
    Profiler.Profile.Trace.periodic ~source ~rate:32. ~duration:20.
      ~gen:(fun i -> Value.Float (Float.of_int i))
  in
  let agg_raw = Profiler.Profile.collect ~duration:20. graph events in
  match
    Wishbone.Spec.of_profile ~mode:Wishbone.Movable.Permissive
      ~node_platform:Profiler.Platform.tmote_sky agg_raw
  with
  | Error m -> print_endline m
  | Ok spec ->
      Printf.printf "bandwidth saved per node when aggregating in-network: %.1f B/s\n"
        (Wishbone.Aggregation.in_network_benefit spec ~op:!reduce);
      List.iter
        (fun fan_in ->
          let annotated =
            Wishbone.Aggregation.annotate_fan_in spec ~op:!reduce ~fan_in
          in
          match
            Wishbone.Placement.solve (Wishbone.Placement.of_spec annotated)
          with
          | Wishbone.Placement.Partitioned r ->
              Printf.printf
                "  fan-in %4.0f: reduce runs %-10s (node cpu %5.1f%%, cut %.1f B/s)\n"
                fan_in
                (if r.tier_of.(!reduce) = 0 then "in-network" else "at server")
                (100. *. r.tier_cpu.(0))
                r.link_net.(0)
          | _ -> Printf.printf "  fan-in %4.0f: no partition\n" fan_in)
        [ 1.; 8.; 64.; 512.; 4096. ]
