let hamming n =
  if n <= 1 then Array.make (Int.max n 0) 1.
  else
    Array.init n (fun i ->
        0.54 -. (0.46 *. Float.cos (2. *. Float.pi *. Float.of_int i /. Float.of_int (n - 1))))

let apply window frame =
  let n = Array.length frame in
  if Array.length window <> n then invalid_arg "Window.apply: length mismatch";
  let out = Array.init n (fun i -> window.(i) *. frame.(i)) in
  let nf = Float.of_int n in
  ( out,
    Dataflow.Workload.make ~float_ops:nf ~mem_ops:(3. *. nf) ~branch_ops:nf
      ~call_ops:1. () )

let preemphasis ?(alpha = 0.97) ~prev frame =
  let n = Array.length frame in
  let out = Array.make n 0. in
  let last = ref prev in
  for i = 0 to n - 1 do
    out.(i) <- frame.(i) -. (alpha *. !last);
    last := frame.(i)
  done;
  let nf = Float.of_int n in
  ( out,
    !last,
    Dataflow.Workload.make ~float_ops:(2. *. nf) ~mem_ops:(3. *. nf)
      ~branch_ops:nf ~call_ops:1. () )

let dc_remove frame =
  let n = Array.length frame in
  let nf = Float.of_int n in
  let mean = Array.fold_left ( +. ) 0. frame /. Float.max 1. nf in
  let out = Array.map (fun x -> x -. mean) frame in
  ( out,
    Dataflow.Workload.make ~float_ops:(2. *. nf) ~mem_ops:(2. *. nf)
      ~branch_ops:(2. *. nf) ~call_ops:1. () )
