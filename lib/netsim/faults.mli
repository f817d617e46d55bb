(** Seeded fault injection for the simulated testbed.

    The additive model behind the partitioner assumes a benign
    runtime; §7.3 of the paper shows what happens when that assumption
    breaks.  This module supplies the three failure processes the
    testbed can inject, all driven by explicitly derived PRNG streams
    so a fault schedule is a pure function of [(faults, seed)]:

    - {b node crash/reboot}: nodes fail with exponentially distributed
      up-times and reboot after a fixed downtime.  A crash loses all
      volatile state — operator state (the §2.1.1 stateful-operator
      caveat), the radio send queue, the in-flight transport buffer —
      and inputs arriving while the node is down are missed.
    - {b link burst loss}: a Gilbert–Elliott two-state channel layered
      on top of {!Link.base_loss}.  The channel alternates between a
      Good state (loss = [base_loss]) and a Bad state (loss =
      [max base_loss bad_loss]) with exponentially distributed
      sojourns, producing the correlated loss bursts real 802.15.4
      deployments see.
    - {b clock drift}: each node's sample clock runs at a slightly
      wrong rate, de-phasing the fleet over time.

    [none] injects nothing and draws nothing, so a run with
    [faults = none] is bit-identical to a run of a faultless build. *)

type burst = {
  to_bad_rate : float;  (** Good→Bad transitions per second *)
  to_good_rate : float;  (** Bad→Good transitions per second *)
  bad_loss : float;  (** per-packet loss probability in the Bad state *)
}

type t = {
  crash_rate : float;
      (** node crashes per second of up-time (0 = never) *)
  reboot_s : float;  (** downtime after a crash *)
  burst : burst option;  (** Gilbert–Elliott channel, [None] = clean *)
  clock_drift : float;
      (** max relative sample-clock error, e.g. [50e-6] = 50 ppm *)
}

val none : t

val burst_of_loss : ?mean_burst_s:float -> float -> burst
(** [burst_of_loss p] builds a Gilbert–Elliott channel whose {e
    time-averaged} extra loss is [p], spent in bursts with
    [bad_loss = max 0.5 (1.25 p)] (capped at 1) and mean Bad sojourn
    [mean_burst_s] (default 5 s). *)

(** {1 Runtime processes}

    Each process draws from its own PRNG so that enabling one fault
    class never perturbs another's schedule. *)

type channel
(** Gilbert–Elliott channel state, advanced lazily in simulation
    time. *)

val channel : Prng.t -> burst option -> channel
val channel_loss : channel -> now:float -> base:float -> float
(** Advance the channel to [now] and return the current per-packet
    loss probability ([base] when the channel is clean or Good). *)

val crash_schedule :
  Prng.t -> t -> n_nodes:int -> duration:float ->
  (float * int * [ `Crash | `Reboot ]) list
(** The full crash/reboot event list for a run, sorted by time.  Empty
    when [crash_rate = 0]. *)

val drifts : Prng.t -> t -> n_nodes:int -> float array
(** Per-node clock-rate multipliers, uniform in
    [1 ± clock_drift]; all exactly [1.0] when [clock_drift = 0]
    (drawing nothing). *)
