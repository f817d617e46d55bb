(* Timing, statistics, answer checks and the per-layer metric table
   shared by the three workloads. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank percentile, [p] in (0, 1] *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. Float.of_int n)) - 1)))

let feq ?(rel = 1e-9) a b =
  Float.abs (a -. b) <= rel *. Float.max 1. (Float.abs b)

(* Answer checks.  Every check is one attempted operation; a false one
   is a failed operation and is named on stderr. *)
let attempted = ref 0
let failed = ref 0

let check label ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "perfbench: check failed: %s\n%!" label
  end

(* Per-layer metrics of the traced run, by name. *)
let layers : (string, float) Hashtbl.t = Hashtbl.create 64
let get name = Option.value ~default:0. (Hashtbl.find_opt layers name)
let set name v = Hashtbl.replace layers name v
let add name v = Hashtbl.replace layers name (get name +. v)
let set_max name v = Hashtbl.replace layers name (Float.max (get name) v)

(* A phase of the traced run: a [phase.<name>] span, plus the words
   it allocated in this domain as [gc.<name>.minor_words] and
   [gc.<name>.major_words].  Untraced, it is a plain call. *)
let phase name f =
  if not !Span.enabled then f ()
  else begin
    let s0 = Gc.quick_stat () in
    let r = Span.with_ ("phase." ^ name) f in
    let s1 = Gc.quick_stat () in
    add ("gc." ^ name ^ ".minor_words") (s1.Gc.minor_words -. s0.Gc.minor_words);
    add ("gc." ^ name ^ ".major_words") (s1.Gc.major_words -. s0.Gc.major_words);
    r
  end

(* A call into one layer of the library: in the traced run a span
   named [name], whose duration also accumulates into [<name>_ms]. *)
let call name f =
  if not !Span.enabled then f ()
  else begin
    let t0 = now () in
    let r = Span.with_ name f in
    add (name ^ "_ms") ((now () -. t0) *. 1000.);
    r
  end

(* the process's resident-set high-water mark *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Float.of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* One pass is a fixed, seeded unit of work: every pass of a run does
   the same work, so its counters must repeat exactly. *)
type pass = {
  wall_s : float;
  counters : (string * int) list;  (* deterministic work *)
}

type instance = {
  domains : int;  (* the domains a pass runs on *)
  pass : unit -> pass;
  extras : unit -> unit;
      (* traced run only: layer attribution and replays that are not
         part of the timed pass *)
}
