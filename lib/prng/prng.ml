(* The SplitMix64 state lives unboxed in 8 bytes: a mutable [int64]
   record field would box a fresh state on every draw. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state z =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 z;
  t

let create seed = of_state (mix (Int64.of_int seed))

let derive seed path =
  let step z i =
    mix (Int64.add (Int64.mul z golden) (Int64.of_int (i + 1)))
  in
  Int64.to_int (List.fold_left step (mix (Int64.of_int seed)) path)

let[@inline] int64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 z;
  mix z

let[@inline] float t =
  (* 53 high bits -> [0,1) *)
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits *. (1. /. 9007199254740992.)

let uniform t lo hi = lo +. ((hi -. lo) *. float t)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (int64 t) 1) (Int64.of_int bound))

let bool t p = float t < p

let gaussian t =
  let u1 = Float.max 1e-300 (float t) in
  let u2 = float t in
  Float.sqrt (-2. *. Float.log u1) *. Float.cos (2. *. Float.pi *. u2)

let exponential t rate =
  if rate <= 0. then invalid_arg "Prng.exponential: rate must be positive";
  -.Float.log (Float.max 1e-300 (1. -. float t)) /. rate
