(* Second-round coverage: solver edge cases, netsim link variants,
   profiler validation, cut-point corner cases. *)

open Lp

let feq ?(tol = 1e-6) = Alcotest.(check (float tol))

(* ---- simplex corner cases ---- *)

let test_beale_cycling_guard () =
  (* Beale's classic cycling example; Bland's fallback must terminate *)
  let p = Problem.create () in
  let x = Array.init 4 (fun _ -> Problem.add_var p) in
  Problem.add_constr p
    [ (x.(0), 0.25); (x.(1), -8.); (x.(2), -1.); (x.(3), 9.) ]
    Problem.Le 0.;
  Problem.add_constr p
    [ (x.(0), 0.5); (x.(1), -12.); (x.(2), -0.5); (x.(3), 3.) ]
    Problem.Le 0.;
  Problem.add_constr p [ (x.(2), 1.) ] Problem.Le 1.;
  Problem.set_objective p Problem.Maximize
    [ (x.(0), 0.75); (x.(1), -20.); (x.(2), 0.5); (x.(3), -6.) ];
  match (Simplex.solve p).status with
  | Solution.Optimal s -> feq "beale optimum" 1.25 s.objective
  | st -> Alcotest.failf "beale: %a" Solution.pp_status st

let test_pivot_budget () =
  let p = Problem.create () in
  let vars = Array.init 20 (fun _ -> Problem.add_var ~hi:5. p) in
  for i = 0 to 18 do
    Problem.add_constr p [ (vars.(i), 1.); (vars.(i + 1), 1.) ] Problem.Le 7.
  done;
  Problem.set_objective p Problem.Maximize
    (Array.to_list (Array.map (fun v -> (v, 1.)) vars));
  let options = { Simplex.default_options with Simplex.max_pivots = 1 } in
  match (Simplex.solve ~options p).status with
  | Solution.Iteration_limit -> ()
  | st -> Alcotest.failf "expected iteration limit, got %a" Solution.pp_status st

let test_redundant_equalities () =
  (* duplicate equality rows leave a redundant artificial basic at 0;
     phase 2 must still solve correctly *)
  let p = Problem.create () in
  let x = Problem.add_var p and y = Problem.add_var p in
  Problem.add_constr p [ (x, 1.); (y, 1.) ] Problem.Eq 4.;
  Problem.add_constr p [ (x, 2.); (y, 2.) ] Problem.Eq 8.;
  Problem.set_objective p Problem.Maximize [ (x, 1.) ];
  match (Simplex.solve p).status with
  | Solution.Optimal s ->
      feq "x" 4. s.x.(x);
      feq "obj" 4. s.objective
  | st -> Alcotest.failf "redundant eq: %a" Solution.pp_status st

let test_empty_objective () =
  let p = Problem.create () in
  let x = Problem.add_var ~hi:3. p in
  Problem.add_constr p [ (x, 1.) ] Problem.Ge 1.;
  match (Simplex.solve p).status with
  | Solution.Optimal s ->
      feq "feasible point" 0. s.objective;
      Alcotest.(check bool) "x in range" true (s.x.(x) >= 1. -. 1e-9)
  | st -> Alcotest.failf "empty objective: %a" Solution.pp_status st

let test_bb_time_limit () =
  (* a deliberately hard equality-knapsack; a tiny time budget must
     return rather than hang *)
  let rng = Prng.create 77 in
  let p = Problem.create () in
  let vars = Array.init 40 (fun _ -> Problem.add_var ~hi:1. ~integer:true p) in
  Problem.add_constr p
    (Array.to_list
       (Array.map (fun v -> (v, Float.of_int (100 + Prng.int rng 900))) vars))
    Problem.Eq 10_007.;
  Problem.set_objective p Problem.Maximize
    (Array.to_list (Array.map (fun v -> (v, 1.)) vars));
  let options =
    { Branch_bound.default_options with Branch_bound.time_limit = 0.2 }
  in
  let t0 = Unix.gettimeofday () in
  let _status, stats = Branch_bound.solve ~options p in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "returned promptly" true (dt < 5.);
  Alcotest.(check bool) "did not claim proof if budget hit" true
    ((not stats.proved_optimal) || stats.time_total <= 0.2 +. 1.)

let test_bb_gap_tolerance () =
  let p = Problem.create () in
  let vars = Array.init 12 (fun _ -> Problem.add_var ~hi:1. ~integer:true p) in
  Problem.add_constr p
    (Array.to_list (Array.map (fun v -> (v, 3.)) vars))
    Problem.Le 10.;
  Problem.set_objective p Problem.Maximize
    (Array.to_list (Array.map (fun v -> (v, 1.)) vars));
  let options =
    { Branch_bound.default_options with Branch_bound.gap_tol = 0.5 }
  in
  match Branch_bound.solve ~options p with
  | Solution.Optimal s, stats ->
      (* true optimum is 3; a 50% gap accepts >= 2 *)
      Alcotest.(check bool) "within gap" true (s.objective >= 2. -. 1e-9);
      Alcotest.(check bool) "terminated via gap" true stats.proved_optimal
  | st, _ -> Alcotest.failf "gap: %a" Solution.pp_status st

(* ---- netsim variants ---- *)

let probe () =
  let b = Dataflow.Builder.create () in
  let s =
    Dataflow.Builder.in_node b (fun () ->
        Dataflow.Builder.source b ~name:"s" ())
  in
  Dataflow.Builder.sink b ~name:"k" s;
  (Dataflow.Builder.build b, Dataflow.Builder.op_id s)

let test_wifi_carries_more () =
  let graph, src = probe () in
  let run link platform =
    let config =
      Netsim.Testbed.default_config ~n_nodes:1 ~duration:20. ~seed:2 ~platform
        ~link ()
    in
    let sources =
      [
        {
          Netsim.Testbed.source = src;
          rate = 40.;
          gen = (fun ~node:_ ~seq:_ -> Dataflow.Value.Int16_arr (Array.make 200 0));
        };
      ]
    in
    Netsim.Testbed.run config ~graph ~node_of:(fun i -> i = src) ~sources
  in
  let mote = run Netsim.Link.cc2420 Profiler.Platform.tmote_sky in
  let wifi = run Netsim.Link.wifi Profiler.Platform.meraki in
  (* 16 kB/s of raw frames: hopeless on the mote radio, easy on WiFi *)
  Alcotest.(check bool) "mote collapses" true (mote.msg_fraction < 0.05);
  Alcotest.(check bool) "wifi delivers" true (wifi.msg_fraction > 0.9)

let test_double_buffering () =
  (* processing takes 1.5 sample periods: with one buffered window the
     node should still process ~2/3 of inputs, not 1/2 *)
  let b = Dataflow.Builder.create () in
  let src = ref 0 in
  Dataflow.Builder.in_node b (fun () ->
      let s = Dataflow.Builder.source b ~name:"s" () in
      src := Dataflow.Builder.op_id s;
      let burn =
        Dataflow.Builder.map b ~name:"burn"
          (fun v ->
            (v, Dataflow.Workload.make ~int_ops:(1.5 *. 8e6 /. 10.) ()))
          s
      in
      Dataflow.Builder.sink b ~name:"k" burn);
  let graph = Dataflow.Builder.build b in
  let config =
    {
      (Netsim.Testbed.default_config ~n_nodes:1 ~duration:30. ~seed:3
         ~platform:Profiler.Platform.tmote_sky ~link:Netsim.Link.cc2420 ())
      with
      Netsim.Testbed.os_overhead = 1.0;
      per_packet_cpu_s = 0.;
    }
  in
  let sources =
    [
      {
        Netsim.Testbed.source = !src;
        rate = 10.;
        gen = (fun ~node:_ ~seq:_ -> Dataflow.Value.Int 0);
      };
    ]
  in
  let r =
    Netsim.Testbed.run config ~graph
      ~node_of:(fun i -> i <> Dataflow.Graph.n_ops graph - 1)
      ~sources
  in
  Alcotest.(check bool)
    (Printf.sprintf "~2/3 processed (got %.2f)" r.input_fraction)
    true
    (r.input_fraction > 0.6 && r.input_fraction < 0.72)

(* ---- profiler validation ---- *)

let test_scale_rate_validation () =
  let graph, src = probe () in
  let events =
    [ { Profiler.Profile.Trace.time = 0.; source = src;
        value = Dataflow.Value.Int 1 } ]
  in
  let raw = Profiler.Profile.collect ~duration:1. graph events in
  Alcotest.check_raises "nonpositive factor"
    (Invalid_argument "Profile.scale_rate: factor must be positive") (fun () ->
      ignore (Profiler.Profile.scale_rate raw 0.))

let test_collect_window_validation () =
  let graph, _ = probe () in
  Alcotest.check_raises "bad window"
    (Invalid_argument "Profile.collect: window must be positive") (fun () ->
      ignore (Profiler.Profile.collect ~window:0. ~duration:1. graph []))

(* ---- cutpoints: network-bound platform picks the source cut ---- *)

let test_best_cut_network_vs_compute () =
  let t = Apps.Speech.build () in
  let raw = Apps.Speech.profile ~duration:10. t in
  (* Meraki: big radio, slow soft-float CPU -> best rate at the source *)
  let cuts = Wishbone.Cutpoints.enumerate raw Profiler.Platform.meraki in
  (match Wishbone.Cutpoints.best_by_rate cuts with
  | Some c -> Alcotest.(check string) "meraki best" "source" c.Wishbone.Cutpoints.label
  | None -> Alcotest.fail "no cut");
  (* TMote: tiny radio -> best rate in the middle *)
  let cuts = Wishbone.Cutpoints.enumerate raw Profiler.Platform.tmote_sky in
  match Wishbone.Cutpoints.best_by_rate cuts with
  | Some c ->
      Alcotest.(check string) "tmote best" "filtbank" c.Wishbone.Cutpoints.label
  | None -> Alcotest.fail "no cut"

(* ---- graph utilities ---- *)

let test_map_ops_identity_check () =
  let t = Apps.Speech.build () in
  let renamed =
    Dataflow.Graph.map_ops
      (fun op -> { op with Dataflow.Op.kind = "x" })
      t.Apps.Speech.graph
  in
  Alcotest.(check string) "kind changed" "x"
    (Dataflow.Graph.op renamed 0).Dataflow.Op.kind;
  Alcotest.check_raises "id change rejected"
    (Invalid_argument "Graph.map_ops: id changed") (fun () ->
      ignore
        (Dataflow.Graph.map_ops
           (fun op -> { op with Dataflow.Op.id = op.Dataflow.Op.id + 1 })
           t.Apps.Speech.graph))

let test_value_pp_abbreviates () =
  let s =
    Format.asprintf "%a" Dataflow.Value.pp
      (Dataflow.Value.Tuple
         [ Dataflow.Value.Int 3; Dataflow.Value.Float_arr (Array.make 1000 0.) ])
  in
  Alcotest.(check bool) "short rendering" true (String.length s < 40)


(* ---- DES fuzzing: invariants over random configurations ---- *)

let prop_testbed_invariants =
  QCheck.Test.make ~count:60 ~name:"testbed invariants on random configs"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let graph, src = probe () in
      let link =
        if Prng.bool rng 0.5 then Netsim.Link.cc2420 else Netsim.Link.wifi
      in
      let platform =
        List.nth Profiler.Platform.all
          (Prng.int rng (List.length Profiler.Platform.all))
      in
      let config =
        {
          (Netsim.Testbed.default_config
             ~n_nodes:(1 + Prng.int rng 24)
             ~duration:(Prng.uniform rng 2. 15.)
             ~seed ~platform ~link ())
          with
          Netsim.Testbed.tx_queue_packets = 1 + Prng.int rng 40;
        }
      in
      let payload = 1 + Prng.int rng 300 in
      let sources =
        [
          {
            Netsim.Testbed.source = src;
            rate = Prng.uniform rng 0.2 80.;
            gen =
              (fun ~node:_ ~seq:_ ->
                Dataflow.Value.Int16_arr (Array.make payload 0));
          };
        ]
      in
      let r = Netsim.Testbed.run config ~graph ~node_of:(fun i -> i = src) ~sources in
      (* busy time is accumulated per event in float seconds, so the
         fraction can overshoot 1 by a few ulps-per-event (seen: 4e-5
         over a 15 s run) *)
      let frac_ok f = f >= 0. && f <= 1. +. 1e-4 in
      if not (frac_ok r.input_fraction) then
        QCheck.Test.fail_reportf "seed %d: input fraction %g" seed
          r.input_fraction
      else if not (frac_ok r.msg_fraction) then
        QCheck.Test.fail_reportf "seed %d: msg fraction %g" seed r.msg_fraction
      else if r.msgs_received > r.msgs_sent then
        QCheck.Test.fail_reportf "seed %d: received > sent" seed
      else if r.inputs_processed > r.inputs_offered then
        QCheck.Test.fail_reportf "seed %d: processed > offered" seed
      else if r.sink_outputs > r.msgs_received then
        QCheck.Test.fail_reportf "seed %d: sinks > deliveries" seed
      else if
        r.packets_lost_collision + r.packets_lost_channel > r.packets_sent
      then QCheck.Test.fail_reportf "seed %d: losses exceed transmissions" seed
      else if not (frac_ok r.node_busy_fraction) then
        QCheck.Test.fail_reportf "seed %d: busy fraction %g" seed
          r.node_busy_fraction
      else true)

let prop_rate_search_returns_feasible =
  QCheck.Test.make ~count:40 ~name:"rate search result is always feasible"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let spec =
        Apps.Synthetic.random_spec ~seed ~n_ops:(5 + (seed mod 6))
          ~cpu_budget:(0.1 +. Float.of_int (seed mod 4) /. 10.)
          ~net_budget:(30. +. Float.of_int (seed mod 6) *. 30.)
          ()
      in
      match
        Wishbone.Rate_search.search_placement (Wishbone.Placement.of_spec spec)
      with
      | None -> true
      | Some { placement_multiplier; placement_report = r; _ } ->
          Wishbone.Spec.feasible
            (Wishbone.Spec.scale_rate spec placement_multiplier)
            ~node_side:
              (Array.map (fun t -> t = 0) r.Wishbone.Placement.tier_of))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "more"
    [
      ( "simplex_edge",
        [
          tc "beale cycling guard" test_beale_cycling_guard;
          tc "pivot budget" test_pivot_budget;
          tc "redundant equalities" test_redundant_equalities;
          tc "empty objective" test_empty_objective;
        ] );
      ( "bb_edge",
        [
          tc "time limit" test_bb_time_limit;
          tc "gap tolerance" test_bb_gap_tolerance;
        ] );
      ( "netsim_variants",
        [
          tc "wifi vs mote radio" test_wifi_carries_more;
          tc "double buffering" test_double_buffering;
        ] );
      ( "validation",
        [
          tc "scale_rate" test_scale_rate_validation;
          tc "collect window" test_collect_window_validation;
        ] );
      ( "cutpoints_platforms",
        [ tc "network- vs compute-bound best cut" test_best_cut_network_vs_compute ] );
      ( "graph_util",
        [
          tc "map_ops" test_map_ops_identity_check;
          tc "value pp" test_value_pp_abbreviates;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_testbed_invariants;
          QCheck_alcotest.to_alcotest prop_rate_search_returns_feasible;
        ] );
    ]
