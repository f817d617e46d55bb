(* Shared helpers for the figure-reproduction benches. *)

let header title =
  Printf.printf "\n=== %s ===\n" title

let paper_vs s = Printf.printf "    [paper] %s\n" s

let row fmt = Printf.printf fmt

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let idx = int_of_float (Float.of_int (n - 1) *. p) in
    sorted.(idx)
  end

let speech = lazy (Apps.Speech.build ())

let speech_profile = lazy (Apps.Speech.profile ~duration:30. (Lazy.force speech))

let eeg_full = lazy (Apps.Eeg.build ())

let eeg_profile = lazy (Apps.Eeg.profile ~duration:120. (Lazy.force eeg_full))

let eeg_channel = lazy (Apps.Eeg.single_channel ())

let eeg_channel_profile =
  lazy (Apps.Eeg.profile ~duration:120. (Lazy.force eeg_channel))

let spec_exn ?mode ~platform raw =
  match Wishbone.Spec.of_profile ?mode ~node_platform:platform raw with
  | Ok s -> s
  | Error m -> failwith m

let cut_names (speech : Apps.Speech.t) report =
  List.map
    (fun i -> (Dataflow.Graph.op speech.Apps.Speech.graph i).Dataflow.Op.name)
    (Wishbone.Placement.ops_on report 0)
