(* Fault-injection bench: goodput of the single-channel EEG app on the
   simulated TMote testbed as Gilbert-Elliott burst loss is injected on
   top of the clean channel (§7.3 + DESIGN.md §12).

   Three deployments per injected loss rate:
     static     - the profiled partition, best-effort transport
     reliable   - same partition over the ack/retry transport
   and, at the headline 10% loss point, the adaptive controller closing
   the loop (rate lattice descent + measured-rate repartitioning).

   Writes BENCH_faults.json at the repo root so the degradation curve
   is tracked across PRs:  dune exec bench/main.exe -- faults *)

let n_nodes = 4
let duration = 60.
let seed = 9

let loss_grid = [ 0.0; 0.02; 0.05; 0.1; 0.2; 0.3 ]

type point = {
  loss : float;
  unreliable : Netsim.Testbed.result;
  reliable : Netsim.Testbed.result;
}

let config ~faults ~transport =
  Netsim.Testbed.default_config ~n_nodes ~duration ~seed
    ~platform:Profiler.Platform.tmote_sky ~link:Netsim.Link.cc2420 ~faults
    ~transport ()

let faults_of_loss loss =
  if loss <= 0. then Netsim.Faults.none
  else
    { Netsim.Faults.none with
      Netsim.Faults.burst = Some (Netsim.Faults.burst_of_loss loss) }

let deploy (eeg : Apps.Eeg.t) ~assignment ~loss ~transport ~rate =
  let cfg = config ~faults:(faults_of_loss loss) ~transport in
  Netsim.Testbed.run cfg ~graph:eeg.Apps.Eeg.graph
    ~node_of:(fun i -> assignment.(i))
    ~sources:(Apps.Eeg.testbed_sources ~rate_mult:rate eeg)

(* static partition of the profiled spec; if nothing fits at full rate,
   fall back to the source-only cut (everything but the ADC on the
   server) so the sweep still runs *)
let static_assignment (eeg : Apps.Eeg.t) spec =
  match Wishbone.Placement.solve (Wishbone.Placement.of_spec spec) with
  | Wishbone.Placement.Partitioned r ->
      Array.map (fun tier -> tier = 0) r.Wishbone.Placement.tier_of
  | _ ->
      let n = Array.length (Dataflow.Graph.ops eeg.Apps.Eeg.graph) in
      let a = Array.make n false in
      Array.iter (fun s -> a.(s) <- true) eeg.Apps.Eeg.sources;
      a

let write_json ~points ~(adaptive : Wishbone.Adaptive.outcome) ~adaptive_loss =
  let oc = open_out "BENCH_faults.json" in
  let pt p =
    Printf.sprintf
      "    {\"loss\": %.3f, \"unreliable_goodput\": %.4f, \
       \"reliable_goodput\": %.4f, \"reliable_expired\": %d, \
       \"reliable_duplicates\": %d, \"retransmissions\": %d}"
      p.loss p.unreliable.Netsim.Testbed.goodput_fraction
      p.reliable.Netsim.Testbed.goodput_fraction
      p.reliable.Netsim.Testbed.msgs_expired
      p.reliable.Netsim.Testbed.msgs_duplicate
      p.reliable.Netsim.Testbed.retransmissions
  in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"eeg_goodput_vs_injected_loss\",\n\
    \  \"app\": \"eeg1\",\n\
    \  \"n_nodes\": %d,\n\
    \  \"duration_s\": %.0f,\n\
    \  \"points\": [\n\
     %s\n\
    \  ],\n\
    \  \"adaptive\": {\"loss\": %.3f, \"goodput\": %.4f, \"rate\": %.4f, \
     \"steps\": %d, \"converged\": %b}\n\
     }\n"
    n_nodes duration
    (String.concat ",\n" (List.map pt points))
    adaptive_loss adaptive.Wishbone.Adaptive.goodput
    adaptive.Wishbone.Adaptive.rate
    (List.length adaptive.Wishbone.Adaptive.trace)
    adaptive.Wishbone.Adaptive.converged;
  close_out oc

let run () =
  Bench_util.header
    "Faults: EEG goodput vs injected burst loss (static / reliable / \
     adaptive)";
  Bench_util.paper_vs
    "§7.3: in-building packet delivery varied 45-99%; Wishbone treats \
     overload loss as a signal to re-plan";
  let eeg = Lazy.force Bench_util.eeg_channel in
  let raw = Lazy.force Bench_util.eeg_channel_profile in
  let spec =
    Bench_util.spec_exn ~platform:Profiler.Platform.tmote_sky raw
  in
  let assignment = static_assignment eeg spec in
  Bench_util.row "%-8s %14s %14s %14s %12s\n" "loss" "unreliable %"
    "reliable %" "retransmits" "expired";
  let points =
    List.map
      (fun loss ->
        let unreliable =
          deploy eeg ~assignment ~loss ~transport:Netsim.Transport.Unreliable
            ~rate:1.0
        in
        let reliable =
          deploy eeg ~assignment ~loss
            ~transport:(Netsim.Transport.default_reliable ())
            ~rate:1.0
        in
        Bench_util.row "%-8.2f %14.1f %14.1f %14d %12d\n" loss
          (100. *. unreliable.Netsim.Testbed.goodput_fraction)
          (100. *. reliable.Netsim.Testbed.goodput_fraction)
          reliable.Netsim.Testbed.retransmissions
          reliable.Netsim.Testbed.msgs_expired;
        { loss; unreliable; reliable })
      loss_grid
  in
  (* close the loop at the headline 10% loss point *)
  let adaptive_loss = 0.1 in
  let probe ~rate ~assignment =
    Wishbone.Adaptive.observe
      (deploy eeg ~assignment ~loss:adaptive_loss
         ~transport:(Netsim.Transport.default_reliable ()) ~rate)
  in
  let adaptive =
    Wishbone.Adaptive.run
      ~config:{ Wishbone.Adaptive.default_config with max_steps = 10 }
      ~spec ~assignment ~probe ()
  in
  Bench_util.row "adaptive @ %.0f%% loss: goodput %.1f%% at rate x%.4f \
                  (%d steps%s)\n"
    (100. *. adaptive_loss)
    (100. *. adaptive.Wishbone.Adaptive.goodput)
    adaptive.Wishbone.Adaptive.rate
    (List.length adaptive.Wishbone.Adaptive.trace)
    (if adaptive.Wishbone.Adaptive.converged then "" else ", not converged");
  write_json ~points ~adaptive ~adaptive_loss;
  Bench_util.row "wrote BENCH_faults.json\n"
