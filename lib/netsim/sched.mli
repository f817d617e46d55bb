(** Event scheduler for the testbed's discrete-event loop.

    Two interchangeable kinds behind one monomorphic (int payload,
    float key) interface:

    - [Heap]: the historical float-keyed binary heap
      ({!Heap.Pqueue}).  This is the default; runs that predate the
      wheel scheduler reproduce bit-for-bit because the push/pop
      sequence — and therefore the heap's internal tie structure — is
      unchanged.
    - [Wheel]: a hierarchical timing wheel (two 256-slot levels over a
      fixed tick quantum plus an overflow bucket for far-future
      events).  Push and pop are O(1) amortized: buckets are growable
      int/float arrays that keep their capacity, and events due in the
      current tick drain through a small
      in-place binary heap ordered by [(time, seq)], where [seq] is
      the push sequence number — so events at equal timestamps pop in
      FIFO order, giving the wheel a {e total} order independent of
      bucket geometry.

    Both kinds pop in nondecreasing key order.  Timestamp ties are
    measure-zero in most simulator configurations (event times
    include draws from continuous distributions), and there the two
    kinds produce identical event sequences; the [sched-equivalence]
    fuzz oracle and the re-pinned goldens in [test_faults.ml] enforce
    this.  Some configurations do create exact ties — a reboot at its
    crash instant ([reboot_s = 0]), or retransmit timers of different
    messages landing on one instant when windows and timeouts are
    exact binary fractions and clocks do not drift — and there the
    heap's tie order, unlike the wheel's FIFO, changes the result. *)

type kind = Heap | Wheel

type t

val create : ?kind:kind -> ?capacity:int -> ?tick:float -> unit -> t
(** [capacity] preallocates the underlying arrays (default 1024).
    [tick] is the wheel quantum in seconds (default [1e-3]; ignored by
    [Heap]); it affects performance only, never ordering.
    @raise Invalid_argument when [tick <= 0]. *)

val kind : t -> kind
val length : t -> int
val is_empty : t -> bool

val clear : t -> unit
(** Drops every pending event and resets {!time} and {!event} to their
    initial values, keeping the allocated arrays: afterwards [t] pops
    exactly as a fresh scheduler of the same kind and tick would for
    the same pushes. *)

val push : t -> float -> int -> unit
(** [push t time ev] schedules packed event [ev] at [time >= 0].
    Events may be pushed at or before the last popped time; they pop
    next, after earlier-pushed events with the same timestamp. *)

val pop : t -> bool
(** Advance to the next event.  Returns false when empty; on true the
    popped entry is readable via {!time} and {!event} until the next
    [pop].  On the wheel path the only allocation is the boxed copy of
    the popped key that {!time} returns (two words); the heap path also
    allocates the [Some (key, ev)] of {!Heap.Pqueue.pop}. *)

val time : t -> float
(** Key of the last popped event (0. before the first pop). *)

val event : t -> int
(** Payload of the last popped event (0 before the first pop). *)
