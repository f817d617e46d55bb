(* Quickstart: write a small stream program, profile it on sample
   data, and let Wishbone pick the optimal node/server partition for a
   TMote Sky.

     dune exec examples/quickstart.exe

   The program mirrors Figure 2 of the paper: a sensor source and a
   filter in the Node{} namespace, server-side processing after the
   implicit merge point. *)

open Dataflow

(* An 8-tap low-pass filter over 64-sample windows followed by 4x
   decimation: data-reducing, so worth running in-network if the CPU
   allows. *)
let filt_audio b stream =
  let taps = Dsp.Fir.low_pass ~cutoff:0.1 ~taps:8 in
  Builder.stateful b ~name:"filtAudio" ~kind:"fir"
    ~init:(fun () ->
      let fir = Dsp.Fir.create taps in
      fun ~port:_ v ->
        let samples = Value.float_arr v in
        let out, w = Dsp.Fir.decimate fir ~factor:4 samples in
        ([ Value.Float_arr out ], w))
    [ stream ]

(* Server-side feature: mean absolute amplitude per window. *)
let energy b stream =
  Builder.map b ~name:"energy" ~kind:"mag"
    (fun v ->
      let x = Value.float_arr v in
      let e, w = Dsp.Wavelet.mag_with_scale ~gain:(1. /. 16.) x in
      (Value.Float e, w))
    stream

let () =
  (* 1. wire the graph: namespace Node { s1 = readMic(); s2 =
     filtAudio(s1) }; main = energy(s2) *)
  let b = Builder.create () in
  let s2 =
    Builder.in_node b (fun () ->
        let s1 = Builder.source b ~name:"readMic" ~kind:"adc" () in
        filt_audio b s1)
  in
  let s3 = energy b s2 in
  Builder.sink b ~name:"display" s3;
  let graph = Builder.build b in
  let source = List.hd (Graph.sources graph) in
  Printf.printf "graph: %d operators, %d streams\n" (Graph.n_ops graph)
    (Graph.n_edges graph);

  (* 2. profile against sample data: 64-sample windows at 125 Hz
     (8 kHz audio) for 20 seconds *)
  let rng = Prng.create 42 in
  let events =
    Profiler.Profile.Trace.periodic ~source ~rate:125. ~duration:20.
      ~gen:(fun _ -> Value.Float_arr (Dsp.Siggen.white_noise rng 64))
  in
  let raw = Profiler.Profile.collect ~duration:20. graph events in
  Array.iter
    (fun (op : Op.t) ->
      let costed = Profiler.Profile.cost raw Profiler.Platform.tmote_sky in
      Printf.printf "  %-10s %8.1f us/fire  %5.1f%% of the TMote CPU\n"
        op.name
        (costed.seconds_per_fire.(op.id) *. 1e6)
        (100. *. costed.cpu_fraction.(op.id)))
    (Graph.ops graph);

  (* 3. partition for a TMote Sky: the paper's two-way node/server
     cut is the two-tier placement of the spec *)
  match Wishbone.Spec.of_profile ~mode:Wishbone.Movable.Permissive
          ~node_platform:Profiler.Platform.tmote_sky raw
  with
  | Error m -> print_endline ("cannot partition: " ^ m)
  | Ok spec -> (
      let pl = Wishbone.Placement.of_spec spec in
      match Wishbone.Placement.solve pl with
      | Wishbone.Placement.Partitioned r ->
          Format.printf "%a@." (Wishbone.Placement.pp_report graph pl) r;
          (* 4. write the visualization *)
          let costed = Profiler.Profile.cost raw Profiler.Platform.tmote_sky in
          Wishbone.Viz.save ~path:"quickstart.dot"
            ~assignment:(Array.map (fun tier -> tier = 0) r.tier_of)
            ~costed raw;
          print_endline "wrote quickstart.dot (render with graphviz)"
      | Wishbone.Placement.No_feasible_partition -> (
          print_endline "no feasible partition at the full rate; searching...";
          match Wishbone.Rate_search.search_placement pl with
          | Some { placement_multiplier; placement_report; _ } ->
              Printf.printf "max sustainable rate: x%.3f\n"
                placement_multiplier;
              Format.printf "%a@."
                (Wishbone.Placement.pp_report graph
                   (Wishbone.Placement.scale_rate pl placement_multiplier))
                placement_report
          | None -> print_endline "no feasible partition at any rate")
      | Wishbone.Placement.Solver_failure m -> print_endline m)
