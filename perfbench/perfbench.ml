(* The repository benchmark: runs one workload for a given time and
   prints its metrics, by name and without units, as one JSON line
   (perfbench/run.py attaches the units from BENCHMARK.json).

     perfbench --workload compile|serve|simulate --seed N --seconds S
               --trace 0|1

   After one untimed warm-up pass, the loop repeats a round while
   another round still fits in [--seconds] (always at least one).  A
   round times one set-up batch (set-up repeated for 0.15 s, from a
   collected heap; its sample is the mean set-up time), a reference
   sample on one domain, and the workload's seeded pass between two
   reference samples on the pass's domains (see [Calib]).  [setup_s]
   is the median over rounds of set-up time over the one-domain
   reference, and [pass_s] the median of pass time over the mean of
   the references around it, both times [Calib.nominal_s]: seconds at
   the reference speed.  Every pass of a run does the same work, so
   its deterministic counters must repeat exactly; they must also
   repeat across runs of the same seed and executable, checked against
   [.perfbench/counters/].

   [--trace 0] reports the end-to-end metrics.  [--trace 1] runs the
   warm-up pass and one untraced pass, then one pass with spans around
   every library call plus the workload's attribution extras, and
   reports the per-layer metrics; the spans go to
   [.perfbench/trace-<workload>-<seed>.json] as Chrome trace-event JSON
   (open it in Perfetto) and each layer's self time is printed on
   stderr. *)

open Common

let workloads =
  [ ("compile", Compile.setup); ("serve", Serve.setup); ("simulate", Simulate.setup) ]

let setup_batch_s = 0.15
let out_dir = ".perfbench"

let usage =
  "perfbench --workload compile|serve|simulate --seed N --seconds S --trace 0|1"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline ("usage: " ^ usage);
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let int_of name s =
    match int_of_string_opt s with Some n -> n | None -> die (name ^ " takes an integer")
  in
  let rec go = function
    | "--workload" :: w :: rest -> workload := w; go rest
    | "--seed" :: s :: rest -> seed := Some (int_of "--seed" s); go rest
    | "--seconds" :: s :: rest -> seconds := Some (int_of "--seconds" s); go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); go rest
    | [] -> ()
    | a :: _ -> die ("unexpected argument " ^ a)
  in
  go (List.tl (Array.to_list Sys.argv));
  match (List.assoc_opt !workload workloads, !seed, !seconds, !trace) with
  | Some setup, Some seed, Some seconds, Some trace when seconds > 0 ->
      (!workload, setup, seed, seconds, trace)
  | None, _, _, _ -> die ("unknown workload " ^ Printf.sprintf "%S" !workload)
  | _ -> die "--seed, --seconds (> 0) and --trace are required"

let mkdir_p dir =
  try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* A pass's deterministic counters must equal the first pass's, and
   the first pass's must equal those an earlier run of the same seed
   recorded with the same executable (a changed program may
   legitimately do different work). *)
let check_counters workload seed (passes : pass list) =
  let render (p : pass) =
    String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s %d\n" k v) p.counters)
  in
  let first = render (List.hd passes) in
  List.iter
    (fun p -> check (workload ^ ": counters repeat across passes") (render p = first))
    passes;
  mkdir_p out_dir;
  mkdir_p (Filename.concat out_dir "counters");
  let path =
    Filename.concat out_dir
      (Printf.sprintf "counters/%s-seed%d-%s.txt" workload seed
         (String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12))
  in
  if Sys.file_exists path then begin
    let recorded = In_channel.with_open_bin path In_channel.input_all in
    check (workload ^ ": counters repeat across runs of the seed") (recorded = first)
  end
  else Out_channel.with_open_bin path (fun oc -> output_string oc first);
  prerr_string first

(* One timed round: its set-up batch and pass, and the reference
   samples taken next to them. *)
type round = {
  setup_s : float;  (* mean time of one set-up *)
  ref1_s : float;  (* one-domain reference after the set-up batch *)
  pass_s : float;
  ref_s : float;  (* mean of the references before and after the pass *)
}

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let () =
  let workload, setup, seed, seconds, trace = parse_args () in
  (* Set-up is timed in batches: a batch repeats it until
     [setup_batch_s] is spent, and its sample is its total time over its
     set-ups.  Each batch, reference sample and pass starts from a
     collected heap, so no collector work left over from an earlier one
     lands in its time. *)
  let setup_batch () =
    Gc.full_major ();
    let t0 = now () in
    let inst = setup seed and reps = ref 1 in
    while now () -. t0 < setup_batch_s do
      ignore (Sys.opaque_identity (setup seed));
      incr reps
    done;
    (inst, (now () -. t0) /. Float.of_int !reps)
  in
  let inst, _ = setup_batch () in
  let passes = ref [] in
  let run_pass () =
    Gc.full_major ();
    passes := inst.pass () :: !passes;
    (List.hd !passes).wall_s
  in
  (* one untimed warm-up pass first, so the timed passes see a grown
     heap *)
  Gc.full_major ();
  ignore (inst.pass ());
  let rounds = ref [] in
  if trace then begin
    let untraced = run_pass () in
    Span.enabled := true;
    let traced = run_pass () in
    inst.extras ();
    Span.enabled := false;
    set "trace.overhead_s" (traced -. untraced)
  end
  else begin
    let t0 = now () and last = ref 0. in
    let round () =
      let r0 = now () in
      let _, setup_s = setup_batch () in
      let ref1_s = Calib.sample ~domains:1 in
      let before = if inst.domains = 1 then ref1_s else Calib.sample ~domains:inst.domains in
      let pass_s = run_pass () in
      let after = Calib.sample ~domains:inst.domains in
      let r = { setup_s; ref1_s; pass_s; ref_s = (before +. after) /. 2. } in
      Printf.eprintf "round %d: set-up %.6f s, reference %.4f s; pass %.3f s, reference %.4f s\n%!"
        (List.length !rounds) r.setup_s r.ref1_s r.pass_s r.ref_s;
      rounds := r :: !rounds;
      last := now () -. r0
    in
    round ();
    while now () -. t0 +. !last <= Float.of_int seconds do
      round ()
    done
  end;
  check_counters workload seed (List.rev !passes);
  set "process.peak_rss_mb" (peak_rss_mb ());
  let metrics =
    if trace then begin
      mkdir_p out_dir;
      let path = Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" workload seed) in
      Span.export_chrome path;
      Printf.eprintf "trace: %d spans in %s; self time per layer:\n" (List.length !Span.recorded) path;
      List.iter (fun (l, ms) -> Printf.eprintf "  %-12s %12.3f ms\n" l ms) (Span.self_times ());
      List.sort compare (List.of_seq (Hashtbl.to_seq layers))
    end
    else
      let scaled f = Calib.nominal_s *. median (List.map f !rounds) in
      [
        ("setup_s", scaled (fun r -> r.setup_s /. r.ref1_s));
        ("pass_s", scaled (fun r -> r.pass_s /. r.ref_s));
      ]
  in
  List.iter
    (fun (name, v) -> check (name ^ " is a finite number") (Float.is_finite v))
    metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0) !attempted !failed
    (String.concat ", "
       (List.map (fun (name, v) -> Printf.sprintf "\"%s\": %s" name (json_number v)) metrics))
