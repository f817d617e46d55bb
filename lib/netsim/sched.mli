(** Event scheduler for the testbed's discrete-event loop: a
    hierarchical timing wheel behind a monomorphic (int payload, float
    key) interface.

    Two 256-slot levels over a fixed tick quantum plus an overflow
    bucket for far-future events.  Push and pop are O(1) amortized:
    buckets are growable int/float arrays that keep their capacity,
    and events due in the current tick drain through a small in-place
    binary heap ordered by [(time, seq)], where [seq] is the push
    sequence number.  Events therefore pop in nondecreasing time, and
    events at equal timestamps pop in FIFO order: a {e total} order
    independent of bucket geometry.  The [sched-equivalence] fuzz
    oracle checks that order against [Check.Reference]'s plain
    (time, seq) scheduler on random push/pop traces.

    Exact timestamp ties matter: a reboot at its crash instant
    ([reboot_s = 0]), or retransmit timers of different messages
    landing on one instant when windows and timeouts are exact binary
    fractions and clocks do not drift.  There the FIFO order is part
    of the simulation's result. *)

type kind = Wheel
(** The one scheduler.  Kept only so that callers passing
    [~sched:Wheel] to {!Testbed.default_config} (the repository
    benchmark's [simulate] workload) still compile. *)

type t

val create : ?capacity:int -> ?tick:float -> unit -> t
(** [capacity] preallocates the ready heap (default 1024).  [tick] is
    the wheel quantum in seconds (default [1e-3]); it affects
    performance only, never ordering.
    @raise Invalid_argument when [tick <= 0]. *)

val length : t -> int

val clear : t -> unit
(** Drops every pending event and resets {!time} and {!event} to their
    initial values, keeping the allocated arrays: afterwards [t] pops
    exactly as a fresh scheduler of the same tick would for the same
    pushes. *)

val push : t -> float -> int -> unit
(** [push t time ev] schedules packed event [ev] at [time >= 0].
    Events may be pushed at or before the last popped time; they pop
    next, after earlier-pushed events with the same timestamp. *)

val pop : t -> bool
(** Advance to the next event.  Returns false when empty; on true the
    popped entry is readable via {!time} and {!event} until the next
    [pop].  The only allocation is the boxed copy of the popped key
    that {!time} returns (two words). *)

val time : t -> float
(** Key of the last popped event (0. before the first pop). *)

val event : t -> int
(** Payload of the last popped event (0 before the first pop). *)
