type observation = {
  goodput : float;
  input_fraction : float;
  msg_fraction : float;
  node_busy : float;
  edge_bytes_per_sec : float array;
}

let observe (r : Netsim.Testbed.result) =
  {
    goodput = r.Netsim.Testbed.goodput_fraction;
    input_fraction = r.Netsim.Testbed.input_fraction;
    msg_fraction = r.Netsim.Testbed.msg_fraction;
    node_busy = r.Netsim.Testbed.node_busy_fraction;
    edge_bytes_per_sec = r.Netsim.Testbed.edge_bytes_per_sec;
  }

type action =
  | Hold
  | Set_rate of float
  | Repartition of { assignment : bool array; rate : float }

type decision = {
  step : int;
  rate : float;
  obs : observation;
  action : action;
  note : string;
}

type config = {
  target : float;
  tol : float;
  max_steps : int;
  repartition : bool;
  rate_min : float;
}

let default_config =
  { target = 0.9; tol = 0.05; max_steps = 16; repartition = true;
    rate_min = 1e-4 }

type outcome = {
  rate : float;
  assignment : bool array;
  goodput : float;
  trace : decision list;
  converged : bool;
}

(* Fold the measured edge rates back into the spec: the testbed
   observed [bytes/s] at multiplier [rate] while processing
   [input_fraction] of the offered inputs, so the per-unit-rate
   bandwidth estimate is measured /. (rate *. input_fraction).  Edges
   the window never exercised keep their profiled value — no evidence,
   no update. *)
let respec (spec : Spec.t) (obs : observation) ~rate =
  let denom = rate *. Float.max 1e-9 obs.input_fraction in
  let bandwidth =
    Array.mapi
      (fun e profiled ->
        let measured = obs.edge_bytes_per_sec.(e) /. denom in
        if obs.edge_bytes_per_sec.(e) > 0. then measured else profiled)
      spec.Spec.bandwidth
  in
  { spec with Spec.bandwidth }

let run ?(config = default_config) ~spec ~assignment ~probe () =
  let trace = ref [] in
  let record d = trace := d :: !trace in
  (* bracket on the rate lattice: lo = highest rate known to meet the
     target, hi = lowest rate known to miss it *)
  let lo = ref None and hi = ref None in
  let root_basis = ref None in
  let assignment = ref (Array.copy assignment) in
  let rate = ref 1.0 in
  let best = ref None in
  let converged = ref false in
  let step = ref 0 in
  let gap_closed () =
    match (!lo, !hi) with
    | Some l, Some h -> (h -. l) /. l <= config.tol
    | Some _, None -> true  (* never missed: nothing to close *)
    | None, _ -> false
  in
  (try
     while !step < config.max_steps do
       incr step;
       let obs : observation = probe ~rate:!rate ~assignment:!assignment in
       if obs.goodput >= config.target then begin
         lo := Some !rate;
         best := Some (!rate, Array.copy !assignment, obs.goodput);
         if gap_closed () then begin
           converged := true;
           record
             {
               step = !step;
               rate = !rate;
               obs;
               action = Hold;
               note =
                 Printf.sprintf "goodput %.3f >= target %.3f; bracket closed"
                   obs.goodput config.target;
             };
           raise Exit
         end
         else begin
           (* climb back up inside the bracket *)
           let next = Float.sqrt (!rate *. Option.get !hi) in
           record
             {
               step = !step;
               rate = !rate;
               obs;
               action = Set_rate next;
               note =
                 Printf.sprintf
                   "goodput %.3f meets target; probing up towards %.4f"
                   obs.goodput (Option.get !hi);
             };
           rate := next
         end
       end
       else begin
         hi := Some !rate;
         (* candidate next rate: lattice descent *)
         let next =
           match !lo with
           | Some l -> Float.sqrt (l *. !rate)
           | None -> !rate /. 2.
         in
         if next < config.rate_min then begin
           record
             {
               step = !step;
               rate = !rate;
               obs;
               action = Hold;
               note = "rate floor reached without meeting the target";
             };
           raise Exit
         end;
         (* try a repartition informed by the measured edge rates *)
         let repartitioned =
           if not config.repartition then None
           else
             let spec' = Spec.scale_rate (respec spec obs ~rate:!rate) next in
             let initial =
               Array.map (fun on_node -> if on_node then 0 else 1) !assignment
             in
             match
               Placement.solve ~initial ?root_basis:!root_basis
                 (Placement.of_spec spec')
             with
             | Placement.Partitioned r ->
                 (match r.Placement.solver.Lp.Branch_bound.root_basis with
                 | Some b -> root_basis := Some b
                 | None -> ());
                 let a = Array.map (fun tier -> tier = 0) r.Placement.tier_of in
                 if a <> !assignment then Some a else None
             | Placement.No_feasible_partition | Placement.Solver_failure _ ->
                 None
         in
         (match repartitioned with
         | Some a ->
             record
               {
                 step = !step;
                 rate = !rate;
                 obs;
                 action = Repartition { assignment = Array.copy a; rate = next };
                 note =
                   Printf.sprintf
                     "goodput %.3f < target; measured rates favour a new cut \
                      at x%.4f"
                     obs.goodput next;
               };
             assignment := a
         | None ->
             record
               {
                 step = !step;
                 rate = !rate;
                 obs;
                 action = Set_rate next;
                 note =
                   Printf.sprintf
                     "goodput %.3f < target; descending the rate lattice"
                     obs.goodput;
               });
         rate := next
       end
     done
   with Exit -> ());
  let rate, assignment, goodput =
    match !best with
    | Some (r, a, g) -> (r, a, g)
    | None ->
        (!rate, !assignment,
         match !trace with d :: _ -> d.obs.goodput | [] -> 0.)
  in
  {
    rate;
    assignment;
    goodput;
    trace = List.rev !trace;
    converged = !converged;
  }

let testbed_probe ~config ~graph ~sources ~rate ~assignment =
  let r =
    Netsim.Testbed.run config ~graph
      ~node_of:(fun i -> assignment.(i))
      ~sources:(sources ~rate)
  in
  observe r

let pp_action ppf = function
  | Hold -> Format.fprintf ppf "hold"
  | Set_rate r -> Format.fprintf ppf "set-rate x%.4f" r
  | Repartition { assignment; rate } ->
      Format.fprintf ppf "repartition (%d node ops) @@ x%.4f"
        (Array.fold_left (fun n b -> if b then n + 1 else n) 0 assignment)
        rate

let pp_trace ppf trace =
  List.iter
    (fun d ->
      Format.fprintf ppf
        "step %2d  rate x%-8.4f goodput %5.1f%% (in %5.1f%%, msg %5.1f%%)  \
         -> %a@,    %s@."
        d.step d.rate (100. *. d.obs.goodput)
        (100. *. d.obs.input_fraction)
        (100. *. d.obs.msg_fraction)
        pp_action d.action d.note)
    trace
