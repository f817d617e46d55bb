type burst = {
  to_bad_rate : float;
  to_good_rate : float;
  bad_loss : float;
}

type t = {
  crash_rate : float;
  reboot_s : float;
  burst : burst option;
  clock_drift : float;
}

let none = { crash_rate = 0.; reboot_s = 0.; burst = None; clock_drift = 0. }

let burst_of_loss ?(mean_burst_s = 5.) p =
  if p <= 0. || p >= 1. then
    invalid_arg "Faults.burst_of_loss: loss must be in (0, 1)";
  (* time-averaged extra loss = P(bad) * bad_loss with
     P(bad) = to_bad / (to_bad + to_good) *)
  let bad_loss = Float.min 1.0 (Float.max 0.5 (p *. 1.25)) in
  let p_bad = p /. bad_loss in
  let to_good_rate = 1. /. mean_burst_s in
  let to_bad_rate = to_good_rate *. p_bad /. (1. -. p_bad) in
  { to_bad_rate; to_good_rate; bad_loss }

(* ---- Gilbert–Elliott channel ---- *)

type channel = {
  spec : burst option;
  rng : Prng.t;
  mutable bad : bool;
  mutable next_flip : float;
}

let channel rng spec =
  match spec with
  | None -> { spec; rng; bad = false; next_flip = Float.infinity }
  | Some b ->
      (* start in Good; first flip exponentially distributed *)
      { spec; rng; bad = false; next_flip = Prng.exponential rng b.to_bad_rate }

let advance ch now =
  match ch.spec with
  | None -> ()
  | Some b ->
      while ch.next_flip <= now do
        ch.bad <- not ch.bad;
        let rate = if ch.bad then b.to_good_rate else b.to_bad_rate in
        ch.next_flip <- ch.next_flip +. Prng.exponential ch.rng rate
      done

let channel_loss ch ~now ~base =
  advance ch now;
  match ch.spec with
  | Some b when ch.bad -> Float.max base b.bad_loss
  | _ -> base

(* ---- crash schedule ---- *)

let crash_schedule rng f ~n_nodes ~duration =
  if f.crash_rate <= 0. then []
  else begin
    let events = ref [] in
    for node = 0 to n_nodes - 1 do
      let t = ref (Prng.exponential rng f.crash_rate) in
      while !t < duration do
        events := (!t, node, `Crash) :: !events;
        let up_again = !t +. f.reboot_s in
        if up_again < duration then
          events := (up_again, node, `Reboot) :: !events;
        t := up_again +. Prng.exponential rng f.crash_rate
      done
    done;
    List.sort
      (fun (ta, na, _) (tb, nb, _) -> compare (ta, na) (tb, nb))
      !events
  end

let drifts rng f ~n_nodes =
  if f.clock_drift = 0. then Array.make n_nodes 1.0
  else
    Array.init n_nodes (fun _ ->
        Prng.uniform rng (1. -. f.clock_drift) (1. +. f.clock_drift))
