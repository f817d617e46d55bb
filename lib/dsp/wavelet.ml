type kind = Low | High

(* Daubechies D4 scaling coefficients. *)
let qmf_low =
  let s3 = Float.sqrt 3. and d = 4. *. Float.sqrt 2. in
  [| (1. +. s3) /. d; (3. +. s3) /. d; (3. -. s3) /. d; (1. -. s3) /. d |]

let qmf_high =
  (* alternating-sign mirror of the low-pass taps *)
  let n = Array.length qmf_low in
  Array.init n (fun i ->
      let c = qmf_low.(n - 1 - i) in
      if i mod 2 = 0 then c else -.c)

type branch = {
  even : Fir.t;
  odd : Fir.t;
  mutable pending : float option;  (* leftover sample from an odd frame *)
}

let taps_of = function Low -> qmf_low | High -> qmf_high

let split_taps taps =
  (* polyphase split: even-index taps filter even samples, odd-index
     taps filter odd samples *)
  let n = Array.length taps in
  let even = Array.init ((n + 1) / 2) (fun i -> taps.(2 * i)) in
  let odd = Array.init (n / 2) (fun i -> taps.((2 * i) + 1)) in
  (even, odd)

let create_branch kind =
  let even_taps, odd_taps = split_taps (taps_of kind) in
  { even = Fir.create even_taps; odd = Fir.create odd_taps; pending = None }

let apply b frame =
  let buf =
    match b.pending with
    | None -> frame
    | Some x ->
        let n = Array.length frame in
        let out = Array.make (n + 1) x in
        Array.blit frame 0 out 1 n;
        out
  in
  let n = Array.length buf in
  let pairs = n / 2 in
  b.pending <- (if n land 1 = 1 then Some buf.(n - 1) else None);
  let out = Array.make pairs 0. in
  let w = ref (Dataflow.Workload.make ~call_ops:1. ()) in
  for i = 0 to pairs - 1 do
    let ye, we = Fir.push b.even buf.(2 * i) in
    let yo, wo = Fir.push b.odd buf.((2 * i) + 1) in
    out.(i) <- ye +. yo;
    w :=
      Dataflow.Workload.add !w
        (Dataflow.Workload.add we
           (Dataflow.Workload.add wo
              (Dataflow.Workload.make ~float_ops:1. ~mem_ops:1. ~branch_ops:1. ())))
  done;
  (out, !w)

let mag_with_scale ~gain frame =
  let acc = ref 0. in
  Array.iter (fun x -> acc := !acc +. (x *. x)) frame;
  let nf = Float.of_int (Array.length frame) in
  ( gain *. !acc,
    Dataflow.Workload.make ~float_ops:((2. *. nf) +. 1.) ~mem_ops:nf
      ~branch_ops:nf ~call_ops:1. () )
