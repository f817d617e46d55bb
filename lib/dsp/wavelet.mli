(** Polyphase wavelet decomposition, the filtering structure of the
    EEG application (§6.1): each level splits the signal into even and
    odd sample streams, passes each through a 4-tap FIR filter, and
    adds the two — halving the data rate.  Low-pass and high-pass
    variants differ only in coefficients.  Cascading 7 levels and
    taking band energies of the last high-pass outputs yields the
    seizure-detection features. *)

type kind = Low | High

type branch
(** Streaming state of one (even FIR, odd FIR) pair; preserves
    continuity across frames like the stateful [FIRFilter] of
    Figure 1. *)

val create_branch : kind -> branch

val apply : branch -> float array -> float array * Dataflow.Workload.t
(** Consumes a frame and emits roughly half as many samples (an odd
    trailing sample is carried to the next frame). *)

val mag_with_scale :
  gain:float -> float array -> float * Dataflow.Workload.t
(** Scaled band energy [gain * sum x_i^2] — the [MagWithScale]
    operator. *)

val qmf_low : float array
(** The 4 Daubechies-style low-pass taps used by both polyphase
    branches. *)

val qmf_high : float array
(** Quadrature mirror of [qmf_low]. *)
