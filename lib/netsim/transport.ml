type reliable = {
  max_retries : int;
  rto_s : float;
  rto_backoff : float;
  rto_max_s : float;
}

type policy = Unreliable | Reliable of reliable

let default_reliable ?(max_retries = 4) ?(rto_s = 0.25) ?(rto_backoff = 2.)
    ?(rto_max_s = 4.) () =
  if max_retries < 0 then invalid_arg "Transport.default_reliable: max_retries";
  if rto_s <= 0. || rto_backoff < 1. || rto_max_s < rto_s then
    invalid_arg "Transport.default_reliable: bad timeout parameters";
  Reliable { max_retries; rto_s; rto_backoff; rto_max_s }

let rto r ~attempt =
  if attempt < 1 then invalid_arg "Transport.rto: attempt is 1-based";
  let t = r.rto_s *. (r.rto_backoff ** Float.of_int (attempt - 1)) in
  Float.min r.rto_max_s t

let ack_bytes = 6
