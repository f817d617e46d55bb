(* Application graph tests: speech pipeline structure and data sizes,
   EEG cascade structure and detection behaviour, synthetic problem
   generators. *)

open Dataflow

(* ---- speech ---- *)

let speech = Apps.Speech.build ()

let test_speech_structure () =
  let g = speech.Apps.Speech.graph in
  Alcotest.(check int) "9 operators" 9 (Graph.n_ops g);
  Alcotest.(check bool) "linear pipeline" true (Graph.is_linear_pipeline g);
  let names =
    Array.to_list (Graph.topo_order g)
    |> List.map (fun i -> (Graph.op g i).Op.name)
  in
  Alcotest.(check (list string)) "pipeline order"
    [ "source"; "preemph"; "hamming"; "prefilt"; "fft"; "filtbank"; "logs";
      "cepstrals"; "detect" ]
    names

let test_speech_wire_sizes () =
  (* run one frame through and check the per-stage wire formats match
     the paper: 400ish-byte frames, 128ish after the filter bank,
     52ish after the cepstrals *)
  let g = speech.Apps.Speech.graph in
  let exec = Runtime.Exec.full g in
  ignore
    (Runtime.Exec.fire exec ~op:speech.Apps.Speech.source ~port:0
       (Apps.Speech.frame_gen ~seed:5 0));
  let order = Graph.topo_order g in
  let bytes_after name =
    let op =
      Array.to_list order
      |> List.find (fun i -> (Graph.op g i).Op.name = name)
    in
    match Graph.succs g op with
    | [ e ] -> Runtime.Exec.edge_bytes exec e.Graph.eid
    | _ -> Alcotest.failf "op %s should have one out-edge" name
  in
  Alcotest.(check int) "raw frame" 402 (bytes_after "source");
  Alcotest.(check int) "int16 front end" 402 (bytes_after "prefilt");
  Alcotest.(check int) "fft expands" 518 (bytes_after "fft");
  Alcotest.(check int) "filtbank reduces" 130 (bytes_after "filtbank");
  Alcotest.(check int) "logs neutral" 130 (bytes_after "logs");
  Alcotest.(check int) "cepstrals" 54 (bytes_after "cepstrals")

let test_speech_emits_13_mfccs () =
  let g = speech.Apps.Speech.graph in
  let exec = Runtime.Exec.full g in
  let fired =
    Runtime.Exec.fire exec ~op:speech.Apps.Speech.source ~port:0
      (Apps.Speech.frame_gen ~seed:6 0)
  in
  match fired.sink_values with
  | [ Value.Float_arr coeffs ] ->
      Alcotest.(check int) "13 coefficients" 13 (Array.length coeffs);
      Array.iter
        (fun c ->
          if not (Float.is_finite c) then Alcotest.fail "non-finite MFCC")
        coeffs
  | _ -> Alcotest.fail "expected one MFCC vector at the sink"

let test_speech_mfcc_discriminates () =
  (* voiced frames and silence produce systematically different MFCCs;
     c0 tracks overall log energy *)
  let g = speech.Apps.Speech.graph in
  let exec = Runtime.Exec.full g in
  let gen = Dsp.Siggen.Speech.create ~seed:77 () in
  let voiced_c0 = ref [] and quiet_c0 = ref [] in
  for _ = 1 to 400 do
    let frame = Dsp.Siggen.Speech.frame gen Apps.Speech.frame_samples in
    let voiced = Dsp.Siggen.Speech.is_voiced gen in
    let fired =
      Runtime.Exec.fire exec ~op:speech.Apps.Speech.source ~port:0
        (Value.Int16_arr frame)
    in
    match fired.sink_values with
    | [ Value.Float_arr c ] ->
        if voiced then voiced_c0 := c.(0) :: !voiced_c0
        else quiet_c0 := c.(0) :: !quiet_c0
    | _ -> Alcotest.fail "no MFCC"
  done;
  let mean l = List.fold_left ( +. ) 0. l /. Float.of_int (List.length l) in
  Alcotest.(check bool) "both classes seen" true
    (List.length !voiced_c0 > 10 && List.length !quiet_c0 > 10);
  Alcotest.(check bool) "voiced energy higher" true
    (mean !voiced_c0 > mean !quiet_c0 +. 1.)

let test_speech_frame_gen_deterministic () =
  let a = Apps.Speech.frame_gen ~seed:123 0 in
  let b = Apps.Speech.frame_gen ~seed:123 0 in
  Alcotest.(check bool) "replay equal" true (Value.equal a b)

let test_speech_cut_assignment () =
  let a = Apps.Speech.cut_assignment speech 1 in
  Alcotest.(check int) "one op on node" 1
    (Array.fold_left (fun n b -> if b then n + 1 else n) 0 a);
  Alcotest.(check bool) "source on node" true a.(speech.Apps.Speech.source);
  Alcotest.check_raises "k too big"
    (Invalid_argument "Speech.cut_assignment: k out of range") (fun () ->
      ignore (Apps.Speech.cut_assignment speech 9))

let test_speech_profile_rates () =
  let raw = Apps.Speech.profile ~duration:5. speech in
  Alcotest.(check (float 0.5)) "40 windows/s" 40.
    (Profiler.Profile.op_fires_per_sec raw speech.Apps.Speech.source);
  (* raw stream is 16 kB/s, within rounding *)
  let e0 = (List.hd (Graph.succs speech.Apps.Speech.graph speech.Apps.Speech.source)).Graph.eid in
  Alcotest.(check bool) "16 kB/s raw" true
    (Float.abs (Profiler.Profile.edge_bytes_per_sec raw e0 -. 16080.) < 200.)

(* ---- EEG ---- *)

let test_eeg_structure () =
  let t = Apps.Eeg.build () in
  let g = t.Apps.Eeg.graph in
  Alcotest.(check int) "22 channels" 22 (Array.length t.Apps.Eeg.sources);
  Alcotest.(check int) "1126 operators" 1126 (Graph.n_ops g);
  Alcotest.(check int) "channel subgraphs are uniform" 0
    ((Graph.n_ops g - 4) mod 22)

let test_eeg_single_channel_structure () =
  let t = Apps.Eeg.single_channel () in
  let g = t.Apps.Eeg.graph in
  (* 51 per-channel ops + sink *)
  Alcotest.(check int) "52 operators" 52 (Graph.n_ops g);
  Alcotest.(check (list int)) "one source" [ t.Apps.Eeg.sources.(0) ]
    (Graph.sources g)

let test_eeg_feature_window () =
  (* one 512-sample window through a single channel produces one
     3-band feature tuple *)
  let t = Apps.Eeg.single_channel () in
  let exec = Runtime.Exec.full t.Apps.Eeg.graph in
  let gen = Dsp.Siggen.Eeg.create ~seed:1 ~n_channels:1 () in
  let w = Dsp.Siggen.Eeg.window gen Apps.Eeg.window_samples in
  let quant = Array.map (fun x -> int_of_float (Float.round x)) w.(0) in
  let fired =
    Runtime.Exec.fire exec ~op:t.Apps.Eeg.sources.(0) ~port:0
      (Value.Int16_arr quant)
  in
  match fired.sink_values with
  | [ Value.Tuple [ Value.Float a; Value.Float b; Value.Float c ] ] ->
      List.iter
        (fun x ->
          Alcotest.(check bool) "finite nonneg energy" true
            (Float.is_finite x && x >= 0.))
        [ a; b; c ]
  | _ -> Alcotest.fail "expected a 3-energy tuple per window"

let test_eeg_detects_seizures () =
  (* train a patient-specific SVM on synthetic features, rebuild the
     app with it, and check the detector separates ictal windows *)
  let t0 = Apps.Eeg.build ~n_channels:4 () in
  let data = Apps.Eeg.collect_features ~seed:21 ~n_windows:120 t0 in
  let svm = Dsp.Svm.train (Array.map (fun (x, l) -> (x, l)) data) in
  let correct = ref 0 in
  Array.iter
    (fun (x, label) ->
      let c, _ = Dsp.Svm.classify svm x in
      if c = label then incr correct)
    data;
  let accuracy = Float.of_int !correct /. Float.of_int (Array.length data) in
  Alcotest.(check bool) "training accuracy > 0.9" true (accuracy > 0.9)

let test_eeg_debounce_in_graph () =
  (* the detect operator requires 3 consecutive positives before the
     alarm bit goes high *)
  let svm_always_positive =
    { Dsp.Svm.weights = Array.make (22 * 3) 0.; bias = 1. }
  in
  let t = Apps.Eeg.build ~svm:svm_always_positive () in
  let exec = Runtime.Exec.full t.Apps.Eeg.graph in
  let gen = Dsp.Siggen.Eeg.create ~seed:2 ~n_channels:22 () in
  let fire_window () =
    let w = Dsp.Siggen.Eeg.window gen Apps.Eeg.window_samples in
    let outs = ref [] in
    Array.iteri
      (fun ch samples ->
        let q = Array.map (fun x -> int_of_float (Float.round x)) samples in
        let fired =
          Runtime.Exec.fire exec ~op:t.Apps.Eeg.sources.(ch) ~port:0
            (Value.Int16_arr q)
        in
        outs := fired.sink_values @ !outs)
      w;
    !outs
  in
  let alarm_of = function
    | [ Value.Tuple [ Value.Bool alarm; Value.Float _ ] ] -> alarm
    | _ -> Alcotest.fail "expected one alarm tuple per window"
  in
  Alcotest.(check bool) "w1 no alarm" false (alarm_of (fire_window ()));
  Alcotest.(check bool) "w2 no alarm" false (alarm_of (fire_window ()));
  Alcotest.(check bool) "w3 alarm" true (alarm_of (fire_window ()))

let test_eeg_profile_bandwidths () =
  let t = Apps.Eeg.single_channel () in
  let raw = Apps.Eeg.profile ~duration:60. t in
  let g = t.Apps.Eeg.graph in
  (* raw channel stream is 512 int16 samples / 2 s = 513 B/s *)
  let e0 = (List.hd (Graph.succs g t.Apps.Eeg.sources.(0))).Graph.eid in
  Alcotest.(check bool) "raw 513 B/s" true
    (Float.abs (Profiler.Profile.edge_bytes_per_sec raw e0 -. 513.) < 15.);
  (* every level of the cascade reduces data (paper: "at each level the
     amount of data is halved") *)
  let low_adds =
    Array.to_list (Graph.ops g)
    |> List.filter (fun (o : Op.t) ->
           o.kind = "add" && String.length o.name >= 8
           && String.sub o.name 4 3 = "low")
  in
  let rate (o : Op.t) =
    match Graph.succs g o.id with
    | e :: _ -> Profiler.Profile.edge_bytes_per_sec raw e.Graph.eid
    | [] -> 0.
  in
  (* sort by level (the digit before "_add") and demand strictly
     decreasing rates down the cascade *)
  let level (o : Op.t) = Char.code o.name.[7] - Char.code '0' in
  let sorted = List.sort (fun a b -> compare (level a) (level b)) low_adds in
  let rates = List.map rate sorted in
  List.iteri
    (fun i r ->
      if i > 0 then
        Alcotest.(check bool) "cascade halves data" true
          (r < List.nth rates (i - 1) *. 0.6))
    rates;
  Alcotest.(check bool) "deep level is tiny" true
    (List.nth rates (List.length rates - 1) < 60.)

(* ---- synthetic ---- *)

let test_synthetic_random_valid () =
  for seed = 0 to 20 do
    let spec = Apps.Synthetic.random_spec ~seed () in
    let g = spec.Wishbone.Spec.graph in
    Alcotest.(check int) "cpu array sized" (Graph.n_ops g)
      (Array.length spec.Wishbone.Spec.cpu);
    Alcotest.(check int) "bw array sized" (Graph.n_edges g)
      (Array.length spec.Wishbone.Spec.bandwidth);
    (* sources pinned node, sink pinned server *)
    List.iter
      (fun s ->
        Alcotest.(check bool) "source pinned" true
          (spec.Wishbone.Spec.placement.(s) = Wishbone.Movable.Pin_node))
      (Graph.sources g)
  done

let test_synthetic_pipeline_shape () =
  let spec = Apps.Synthetic.random_pipeline_spec ~n_ops:10 () in
  Alcotest.(check bool) "is a pipeline" true
    (Graph.is_linear_pipeline spec.Wishbone.Spec.graph)

let test_fig3_spec_numbers () =
  let spec = Apps.Synthetic.fig3_spec ~cpu_budget:3. in
  Alcotest.(check int) "6 vertices" 6
    (Graph.n_ops spec.Wishbone.Spec.graph);
  Alcotest.(check (float 0.)) "budget" 3. spec.Wishbone.Spec.cpu_budget

(* ---- the query grammar ---- *)

module Q = Apps.Query

let parse_error line =
  match Q.parse line with
  | Error m -> m
  | Ok _ -> Alcotest.failf "%S parsed" line

let check_prefix what ~prefix m =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %S starts with %S" what m prefix)
    true
    (String.starts_with ~prefix m)

let parse_ok line =
  match Q.parse line with
  | Ok (Some l) -> l
  | Ok None -> Alcotest.failf "%S parsed as blank" line
  | Error m -> Alcotest.failf "%S: %s" line m

let build_line ?(duration = 5.) line =
  Q.build (Q.cache ~duration) ~mode:Wishbone.Movable.Conservative
    (parse_ok line)

(* one case per message the command-line smoke test rejects a query
   line with *)
let test_query_rejects () =
  List.iter
    (fun x ->
      check_prefix ("rate " ^ x) ~prefix:"bad rate"
        (parse_error ("synthetic:11:12 - rate " ^ x)))
    [ "0"; "-1"; "nan"; "inf" ];
  check_prefix "cpu=nan" ~prefix:"bad override"
    (parse_error "synthetic:11:12 - rate 0.5 cpu=nan");
  check_prefix "unknown platform" ~prefix:"chain: unknown platform"
    (parse_error "eeg1 foo rate 1");
  Alcotest.(check string) ">K out of range"
    "chain: \"tmote>3\": parent 3 not in (0, 2] (parents must sit later in \
     the list; 2 is the server)"
    (parse_error "speech tmote>3,meraki rate 1");
  (* synthetic:1:0 is well formed; building its spec is what fails *)
  match build_line "synthetic:1:0 - rate 1" with
  | Error m -> check_prefix "synthetic:1:0" ~prefix:"synthetic:1:0:" m
  | Ok _ -> Alcotest.fail "a 0-operator synthetic spec was built"

let test_query_lines () =
  Alcotest.(check bool) "blank" true (Q.parse " \t " = Ok None);
  Alcotest.(check bool) "comment" true (Q.parse "# speech tmote search" = Ok None);
  let l = parse_ok "eeg1\ttmote>2,tmote>2,gumstix search cpu=0.5 net=inf" in
  Alcotest.(check bool) "app, request, overrides" true
    (l.Q.app = Q.Eeg1 && l.Q.request = Wishbone.Service.Search
    && l.Q.cpu = Some 0.5 && l.Q.net = Some infinity);
  (match l.Q.topology with
  | Some { Q.plats; parents = Some p } ->
      Alcotest.(check (list string)) "platforms" [ "tmote"; "tmote"; "gumstix" ]
        (List.map (fun (p : Profiler.Platform.t) -> p.name) plats);
      Alcotest.(check (array int)) "parents, server last" [| 2; 2; 3; -1 |] p
  | _ -> Alcotest.fail "expected a tier tree");
  (* a list with no '>' is the chain *)
  (match (parse_ok "speech tmote,meraki rate 0.05").Q.topology with
  | Some { Q.plats = [ _; _ ]; parents = None } -> ()
  | _ -> Alcotest.fail "expected a two-platform chain");
  List.iter
    (fun a ->
      Alcotest.(check bool) ("round trip " ^ a) true
        (Result.map Q.app_to_string (Q.app_of_string a) = Ok a))
    [ "speech"; "eeg1"; "eeg14"; "eeg22"; "synthetic:3"; "synthetic:3:12" ]

(* [build] assembles exactly the placement the library calls would *)
let test_query_build () =
  let key line =
    match build_line line with
    | Ok q -> Wishbone.Service.instance_key q.Wishbone.Service.placement
    | Error m -> Alcotest.failf "%S: %s" line m
  in
  let spec = Apps.Synthetic.random_spec ~seed:7 ~n_ops:12 () in
  Alcotest.(check string) "synthetic with a cpu override"
    (Wishbone.Service.instance_key
       (Wishbone.Placement.of_spec { spec with Wishbone.Spec.cpu_budget = 0.5 }))
    (key "synthetic:7:12 - rate 1 cpu=0.5");
  let raw = Apps.Speech.profile ~duration:5. (Apps.Speech.build ()) in
  let plats = Profiler.Platform.[ tmote_sky; find "meraki" ] in
  let spec =
    match
      Wishbone.Spec.of_profile ~node_platform:Profiler.Platform.tmote_sky raw
    with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check string) "profiled speech chain"
    (Wishbone.Service.instance_key
       (Wishbone.Placement.of_platforms spec raw plats))
    (key "speech tmote,meraki rate 0.05");
  Alcotest.(check bool) "a synthetic app has no trace" true
    (Result.is_error (Q.profile (Q.cache ~duration:5.) (Q.Synthetic { seed = 1; n_ops = None })))

(* [parse] returns a value on any input: random token soup, and valid
   lines after truncation, doubled separators, overflowing integers,
   non-finite numbers and tabs *)
let prop_parse_total =
  let open QCheck.Gen in
  let vocab =
    [| "speech"; "eeg1"; "eeg14"; "eeg22"; "eeg"; "synthetic"; "synthetic:";
       "synthetic:1"; "synthetic:1:12"; "synthetic::"; ":"; "-"; "#"; "tmote";
       "meraki"; "gumstix"; "tmote>1"; "tmote>"; ">"; ">>"; ","; ",,";
       "tmote,meraki"; "rate"; "search"; "0.5"; "0"; "-1"; "nan"; "inf";
       "-inf"; "1e308"; "0x1p3"; "99999999999999999999"; "cpu="; "net=";
       "cpu=0.5"; "net=nan"; "cpu=inf"; "="; "=="; "\t" |]
  in
  let soup =
    let* n = int_range 0 8 in
    let* toks =
      list_repeat n
        (oneof [ oneofa vocab; string_size ~gen:printable (int_range 0 6) ])
    in
    let* seps = list_repeat n (oneofa [| " "; "\t"; ""; "  " |]) in
    return (String.concat "" (List.concat (List.map2 (fun t s -> [ t; s ]) toks seps)))
  in
  let valid =
    [| "speech tmote,meraki rate 0.05"; "eeg1 tmote>2,tmote>2,gumstix rate 0.5";
       "speech tmote search"; "synthetic:11:12 - rate 0.5 cpu=0.7 net=300";
       "eeg22 tmote rate 1.0 cpu=0.8"; "eeg14 tmote>1,gumstix search net=inf" |]
  in
  let mutate s =
    let n = String.length s in
    let* i = int_bound (Int.max 0 n) in
    let before = String.sub s 0 i and after = String.sub s i (n - i) in
    oneof
      [
        return before;
        map (fun c -> before ^ String.make 2 c ^ after) (oneofa [| '>'; ','; ':'; '=' |]);
        map (fun x -> before ^ x ^ after)
          (oneofa [| "99999999999999999999"; "-99999999999999999999"; "nan"; "inf"; "\t" |]);
        return (String.map (fun c -> if c = ' ' then '\t' else c) s);
        map (fun c -> before ^ String.make 1 c ^ after) printable;
      ]
  in
  let mutated =
    let* s = oneofa valid in
    let* k = int_range 1 3 in
    let rec go k s = if k = 0 then return s else mutate s >>= go (k - 1) in
    go k s
  in
  QCheck.Test.make ~count:2000 ~name:"Query.parse never raises"
    (QCheck.make ~print:(Printf.sprintf "%S") (oneof [ soup; mutated ]))
    (fun line -> match Q.parse line with Ok _ | Error _ -> true)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "apps"
    [
      ( "speech",
        [
          tc "structure" test_speech_structure;
          tc "wire sizes" test_speech_wire_sizes;
          tc "13 MFCCs" test_speech_emits_13_mfccs;
          tc "MFCCs discriminate speech" test_speech_mfcc_discriminates;
          tc "deterministic generator" test_speech_frame_gen_deterministic;
          tc "cut assignment" test_speech_cut_assignment;
          tc "profiled rates" test_speech_profile_rates;
        ] );
      ( "eeg",
        [
          tc "22-channel structure" test_eeg_structure;
          tc "single-channel structure" test_eeg_single_channel_structure;
          tc "feature window" test_eeg_feature_window;
          tc "learned detector separates" test_eeg_detects_seizures;
          tc "3-window debounce" test_eeg_debounce_in_graph;
          tc "cascade bandwidths" test_eeg_profile_bandwidths;
        ] );
      ( "synthetic",
        [
          tc "random specs valid" test_synthetic_random_valid;
          tc "pipeline shape" test_synthetic_pipeline_shape;
          tc "fig3 numbers" test_fig3_spec_numbers;
        ] );
      ( "query",
        [
          tc "rejected lines" test_query_rejects;
          tc "parsed lines" test_query_lines;
          tc "built placements" test_query_build;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20 |])
            prop_parse_total;
        ] );
    ]
