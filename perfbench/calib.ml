(* A fixed reference computation that measures how fast the machine
   runs right now.  It calls no library code, so no change to the
   program moves it; only the machine does.  It mixes what the
   workloads do: allocation the minor collector reclaims, hash-table
   probes over a few megabytes, float arithmetic over arrays, and a
   sort.

   On a shared VM the speed of the same code drifts by 20-60% over
   spells of seconds to minutes, and every vCPU slows at once.  A
   pass's wall time divided by the reference time measured around it
   cancels that drift; multiplied by [nominal_s] it reads as seconds on
   a machine where one kernel takes [kernel_s] on each domain. *)

let size = 1 lsl 15

let kernel () =
  let h = Hashtbl.create size in
  for i = 0 to size - 1 do
    Hashtbl.replace h ((i * 7919) land ((4 * size) - 1)) (Float.of_int i)
  done;
  let acc = ref 0. in
  for i = 0 to (4 * size) - 1 do
    match Hashtbl.find_opt h i with Some v -> acc := !acc +. v | None -> ()
  done;
  let a = Array.init size (fun i -> Float.of_int ((i * 31) mod 1000) /. 7.) in
  let b = Array.init size (fun i -> Float.of_int ((i * 17) mod 977) /. 3.) in
  for _ = 1 to 8 do
    for i = 0 to size - 1 do
      a.(i) <- (a.(i) *. 0.999) +. (b.((i * 13) land (size - 1)) *. 0.001)
    done
  done;
  let l = List.init size (fun i -> a.((i * 17) land (size - 1))) in
  let l = List.sort Float.compare l in
  acc := !acc +. List.fold_left ( +. ) 0. l;
  Sys.opaque_identity !acc

(* kernels per domain in one sample: about 0.13 s on one domain of a
   2-vCPU Xeon VM *)
let reps = 8
let kernel_s = 0.015
let nominal_s = Float.of_int reps *. kernel_s

(* Wall time of [reps] kernels on each of [domains] domains at once,
   from a collected heap.  A workload that runs on two domains is
   measured against two, because it needs both vCPUs to be fast. *)
let sample ~domains =
  let work () =
    for _ = 1 to reps do
      ignore (kernel ())
    done
  in
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join others;
  Unix.gettimeofday () -. t0
