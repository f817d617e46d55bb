(* In-memory trace spans recorded around calls into the library.

   Spans are kept only while [enabled] is set (the benchmark's traced
   run); otherwise [with_] calls straight through, so the untraced run
   measures the library with nothing of the tracer on its path.  All
   spans come from the benchmark's own domain: the library is timed
   from outside, never instrumented. *)

type t = {
  id : int;
  parent : int;  (* -1 for a root span *)
  name : string;  (* "layer.operation", e.g. "placement.encode" *)
  start_us : float;
  mutable dur_us : float;
}

let enabled = ref false
let recorded : t list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let now_us () = Unix.gettimeofday () *. 1e6

(* a new span, child of the innermost open span *)
let add_span name start_us =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  let s = { id; parent; name; start_us; dur_us = 0. } in
  recorded := s :: !recorded;
  s

let with_ name f =
  if not !enabled then f ()
  else begin
    let s = add_span name (now_us ()) in
    stack := s.id :: !stack;
    Fun.protect f ~finally:(fun () ->
        s.dur_us <- now_us () -. s.start_us;
        stack := List.tl !stack)
  end

(* A span whose bounds were observed from inside a callee (a solver
   hook). *)
let record name ~start_us ~stop_us =
  if !enabled then (add_span name start_us).dur_us <- stop_us -. start_us

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time of each layer, in ms: a span's duration minus the part of
   it its child spans cover, summed over the layer's spans.  Children
   of one span never overlap (one domain, properly nested), so the
   covered part is the sum of the children's durations. *)
let self_times () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.dur_us
          +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    !recorded;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.dur_us -. Option.value ~default:0. (Hashtbl.find_opt child s.id)
      in
      let l = layer s.name in
      Hashtbl.replace by_layer l
        (self /. 1000.
        +. Option.value ~default:0. (Hashtbl.find_opt by_layer l)))
    !recorded;
  List.sort compare (List.of_seq (Hashtbl.to_seq by_layer))

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON ("X" complete events), which Perfetto and
   chrome://tracing open directly.  Timestamps are relative to the
   first span. *)
let export_chrome path =
  let spans = List.rev !recorded in
  let t0 = match spans with s :: _ -> s.start_us | [] -> 0. in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"ts\": %.3f, \"dur\": \
         %.3f, \"pid\": 1, \"tid\": 1, \"args\": {\"id\": %d, \"parent\": %d}}"
        (if i = 0 then "" else ",\n")
        (json_string s.name)
        (json_string (layer s.name))
        (s.start_us -. t0) s.dur_us s.id s.parent)
    spans;
  output_string oc "\n]}\n";
  close_out oc
