(** Radix-2 fast Fourier transform.

    The MFCC front end computes the spectrum of each 25 ms audio frame
    (§6.2.1).  Frames are zero-padded to the next power of two.  A
    naive O(n²) DFT is exposed as a test oracle. *)

val next_pow2 : int -> int

val forward : float array -> float array -> unit
(** [forward re im] transforms in place; lengths must be equal and a
    power of two.
    @raise Invalid_argument otherwise. *)

val inverse : float array -> float array -> unit
(** Inverse transform in place (scaled by 1/n). *)

val naive_dft : float array -> float array -> float array * float array
(** O(n²) reference; returns fresh (re, im). *)

val power_spectrum : float array -> float array * Dataflow.Workload.t
(** [power_spectrum frame] zero-pads to the next power of two [n] and
    returns the [n/2 + 1] power-spectrum bins together with the
    instruction mix of the computation. *)
