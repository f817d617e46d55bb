(** Analysis windows for frame-based processing. *)

val hamming : int -> float array
(** Hamming coefficients [0.54 - 0.46 cos(2 pi i / (n-1))]. *)

val apply : float array -> float array -> float array * Dataflow.Workload.t
(** [apply window frame] multiplies elementwise.
    @raise Invalid_argument on a length mismatch. *)

val preemphasis :
  ?alpha:float -> prev:float -> float array ->
  float array * float * Dataflow.Workload.t
(** First-order high-pass [y(n) = x(n) - alpha * x(n-1)] across frame
    boundaries; returns the filtered frame, the carry for the next
    frame, and the instruction mix.  Default [alpha = 0.97] (standard
    in MFCC front ends). *)

val dc_remove : float array -> float array * Dataflow.Workload.t
(** Subtract the frame mean — the "prefilt" stage of the speech
    pipeline. *)
