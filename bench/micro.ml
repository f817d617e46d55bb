(* Bechamel micro-benchmarks for the hot paths: the simplex pivot
   machinery, the ILP solve, the FFT, a full pipeline traversal, and
   one second of simulated testbed time. *)

open Bechamel
open Toolkit

let lp_test () =
  (* a 30-var knapsack-ish ILP *)
  let rng = Prng.create 4 in
  let p = Lp.Problem.create () in
  let vars =
    Array.init 30 (fun _ -> Lp.Problem.add_var ~hi:1. ~integer:true p)
  in
  Lp.Problem.add_constr p
    (Array.to_list (Array.map (fun v -> (v, Prng.uniform rng 1. 5.)) vars))
    Lp.Problem.Le 30.;
  Lp.Problem.set_objective p Lp.Problem.Maximize
    (Array.to_list (Array.map (fun v -> (v, Prng.uniform rng 1. 10.)) vars));
  fun () -> ignore (Lp.Branch_bound.solve p)

let simplex_test () =
  let rng = Prng.create 5 in
  let p = Lp.Problem.create () in
  let vars = Array.init 60 (fun _ -> Lp.Problem.add_var ~hi:10. p) in
  for _ = 1 to 40 do
    Lp.Problem.add_constr p
      (Array.to_list (Array.map (fun v -> (v, Prng.uniform rng (-2.) 3.)) vars))
      Lp.Problem.Le
      (Prng.uniform rng 5. 50.)
  done;
  Lp.Problem.set_objective p Lp.Problem.Maximize
    (Array.to_list (Array.map (fun v -> (v, Prng.uniform rng 0. 5.)) vars));
  fun () -> ignore (Lp.Simplex.solve p)

let fft_test () =
  let rng = Prng.create 6 in
  let x = Array.init 256 (fun _ -> Prng.gaussian rng) in
  fun () -> ignore (Dsp.Fft.power_spectrum x)

let traversal_test () =
  let speech = Lazy.force Bench_util.speech in
  let exec = Runtime.Exec.full speech.Apps.Speech.graph in
  let frame = Apps.Speech.frame_gen ~seed:9 0 in
  fun () ->
    ignore
      (Runtime.Exec.fire exec ~op:speech.Apps.Speech.source ~port:0 frame)

let partition_test () =
  let spec = Apps.Synthetic.random_spec ~seed:11 ~n_ops:40 () in
  let pl = Wishbone.Placement.of_spec spec in
  fun () -> ignore (Wishbone.Placement.solve pl)

let testbed_test () =
  let speech = Lazy.force Bench_util.speech in
  let assignment = Apps.Speech.cut_assignment speech 6 in
  let sources = Apps.Speech.testbed_sources ~rate_mult:1.0 speech in
  let config =
    Netsim.Testbed.default_config ~n_nodes:4 ~duration:1. ~seed:8
      ~platform:Profiler.Platform.tmote_sky ~link:Netsim.Link.cc2420 ()
  in
  fun () ->
    ignore
      (Netsim.Testbed.run config ~graph:speech.Apps.Speech.graph
         ~node_of:(fun i -> assignment.(i))
         ~sources)

let tests =
  Test.make_grouped ~name:"micro" ~fmt:"%s %s"
    [
      Test.make ~name:"ilp_30bin" (Staged.stage (lp_test ()));
      Test.make ~name:"simplex_60x40" (Staged.stage (simplex_test ()));
      Test.make ~name:"fft_256" (Staged.stage (fft_test ()));
      Test.make ~name:"speech_traversal" (Staged.stage (traversal_test ()));
      Test.make ~name:"partition_40ops" (Staged.stage (partition_test ()));
      Test.make ~name:"testbed_4n_1s" (Staged.stage (testbed_test ()));
    ]

let run () =
  Bench_util.header "Micro-benchmarks (Bechamel, ns per run)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw_results = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let results = Analyze.merge ols instances results in
  let clock = Hashtbl.find results (Measure.label Instance.monotonic_clock) in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) clock [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] ->
          if est > 1e6 then Bench_util.row "%-28s %14.3f ms/run\n" name (est /. 1e6)
          else Bench_util.row "%-28s %14.1f ns/run\n" name est
      | _ -> Bench_util.row "%-28s (no estimate)\n" name)
    (List.sort compare rows)
