(** End-to-end reliable transport above the CSMA link.

    The link layer of {!Testbed} retries only after {e collisions};
    clean-channel loss (including injected {!Faults} burst loss) is
    silent — the §7.3 behaviour that turns CPU and channel overload
    into programmer-visible data loss.  [Reliable] layers a classic
    ack/retry protocol over it: the sender keeps each message in a
    retransmit buffer, the basestation acks every fully reassembled
    message, and unacked messages are retransmitted with exponential
    backoff until a per-message retry budget is exhausted — at which
    point the loss is {e accounted} ([msgs_expired] in
    {!Testbed.result}), never silent.

    Acks ride the same channel: each ack occupies the air for one
    short-packet time and is itself subject to the channel's loss
    process, so reliability is not free — retransmissions and acks
    steal airtime from fresh data, which is exactly the §4.3 overload
    coupling the adaptive controller has to manage. *)

type reliable = {
  max_retries : int;
      (** retransmissions after the first attempt; the total number of
          tries is [max_retries + 1] *)
  rto_s : float;  (** initial retransmit timeout *)
  rto_backoff : float;  (** timeout multiplier per retry (>= 1) *)
  rto_max_s : float;  (** timeout ceiling *)
}

type policy = Unreliable | Reliable of reliable

val default_reliable :
  ?max_retries:int -> ?rto_s:float -> ?rto_backoff:float ->
  ?rto_max_s:float -> unit -> policy
(** Defaults: 4 retries, 250 ms initial RTO, x2 backoff, 4 s cap —
    sized for the CC2420's ~14 ms packet time. *)

val rto : reliable -> attempt:int -> float
(** Timeout armed after transmission attempt [attempt] (1-based):
    [min rto_max_s (rto_s *. rto_backoff^(attempt-1))]. *)

val ack_bytes : int
(** Wire size of an ack (sequence number + addressing). *)
