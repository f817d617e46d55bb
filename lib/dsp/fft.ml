let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let is_pow2 n = n > 0 && n land (n - 1) = 0

let bit_reverse_permute re im =
  let n = Array.length re in
  let j = ref 0 in
  for i = 0 to n - 2 do
    if i < !j then begin
      let tr = re.(i) and ti = im.(i) in
      re.(i) <- re.(!j);
      im.(i) <- im.(!j);
      re.(!j) <- tr;
      im.(!j) <- ti
    end;
    let m = ref (n lsr 1) in
    while !m >= 1 && !j land !m <> 0 do
      j := !j lxor !m;
      m := !m lsr 1
    done;
    j := !j lor !m
  done

let transform ~sign re im =
  let n = Array.length re in
  if Array.length im <> n then invalid_arg "Fft: re/im length mismatch";
  if not (is_pow2 n) then invalid_arg "Fft: length must be a power of two";
  bit_reverse_permute re im;
  let len = ref 2 in
  while !len <= n do
    let half = !len / 2 in
    let theta = sign *. 2. *. Float.pi /. Float.of_int !len in
    let wr = Float.cos theta and wi = Float.sin theta in
    let start = ref 0 in
    while !start < n do
      let cr = ref 1. and ci = ref 0. in
      for k = 0 to half - 1 do
        let i0 = !start + k and i1 = !start + k + half in
        let tr = (re.(i1) *. !cr) -. (im.(i1) *. !ci) in
        let ti = (re.(i1) *. !ci) +. (im.(i1) *. !cr) in
        re.(i1) <- re.(i0) -. tr;
        im.(i1) <- im.(i0) -. ti;
        re.(i0) <- re.(i0) +. tr;
        im.(i0) <- im.(i0) +. ti;
        let ncr = (!cr *. wr) -. (!ci *. wi) in
        ci := (!cr *. wi) +. (!ci *. wr);
        cr := ncr
      done;
      start := !start + !len
    done;
    len := !len * 2
  done

let forward re im = transform ~sign:(-1.) re im

let inverse re im =
  transform ~sign:1. re im;
  let n = Array.length re in
  let s = 1. /. Float.of_int n in
  for i = 0 to n - 1 do
    re.(i) <- re.(i) *. s;
    im.(i) <- im.(i) *. s
  done

let naive_dft re im =
  let n = Array.length re in
  let out_re = Array.make n 0. and out_im = Array.make n 0. in
  for k = 0 to n - 1 do
    let sr = ref 0. and si = ref 0. in
    for t = 0 to n - 1 do
      let ang = -2. *. Float.pi *. Float.of_int (k * t) /. Float.of_int n in
      let c = Float.cos ang and s = Float.sin ang in
      sr := !sr +. (re.(t) *. c) -. (im.(t) *. s);
      si := !si +. (re.(t) *. s) +. (im.(t) *. c)
    done;
    out_re.(k) <- !sr;
    out_im.(k) <- !si
  done;
  (out_re, out_im)

(* instruction mix of one [n]-point transform ([n] a power of 2) *)
let workload n =
  let nf = Float.of_int n in
  let stages = Float.of_int (int_of_float (Float.round (Float.log2 nf))) in
  (* per stage: n/2 butterflies, each ~10 float ops + a complex twiddle
     update (~6 float ops); bit-reversal is ~n int ops *)
  Dataflow.Workload.make
    ~float_ops:(8. *. nf *. stages)
    ~trans_ops:(2. *. stages)
    ~int_ops:(2. *. nf)
    ~mem_ops:(4. *. nf *. stages)
    ~branch_ops:(nf *. stages /. 2.)
    ~call_ops:1. ()

let power_spectrum frame =
  let n = next_pow2 (Array.length frame) in
  let re = Array.make n 0. and im = Array.make n 0. in
  Array.blit frame 0 re 0 (Array.length frame);
  forward re im;
  let half = (n / 2) + 1 in
  let out = Array.make half 0. in
  for k = 0 to half - 1 do
    out.(k) <- (re.(k) *. re.(k)) +. (im.(k) *. im.(k))
  done;
  let w =
    Dataflow.Workload.add (workload n)
      (Dataflow.Workload.make
         ~float_ops:(3. *. Float.of_int half)
         ~mem_ops:(2. *. Float.of_int half)
         ~branch_ops:(Float.of_int half) ())
  in
  (out, w)
