open Dataflow

let max_movable = 20
let max_super = 12

let two_tier_brute_force (spec : Wishbone.Spec.t) =
  let n = Array.length spec.placement in
  let movable =
    List.filter
      (fun i -> spec.placement.(i) = Wishbone.Movable.Movable)
      (List.init n Fun.id)
  in
  let m = List.length movable in
  if m > max_movable then
    invalid_arg "Reference.two_tier_brute_force: too many movable operators";
  let movable = Array.of_list movable in
  let best = ref None in
  let assignment = Array.make n false in
  Array.iteri
    (fun i p -> assignment.(i) <- p = Wishbone.Movable.Pin_node)
    spec.placement;
  for mask = 0 to (1 lsl m) - 1 do
    Array.iteri
      (fun bit op -> assignment.(op) <- mask land (1 lsl bit) <> 0)
      movable;
    if Wishbone.Spec.feasible spec ~node_side:assignment then begin
      let obj = Wishbone.Spec.objective_value spec ~node_side:assignment in
      match !best with
      | Some (_, b) when b <= obj -> ()
      | _ -> best := Some (Array.copy assignment, obj)
    end
  done;
  !best

let pipeline_prefix_cut (spec : Wishbone.Spec.t) =
  let g = spec.graph in
  if not (Graph.is_linear_pipeline g) then
    invalid_arg "Reference.pipeline_prefix_cut: not a linear pipeline";
  let order = Graph.topo_order g in
  let n = Array.length order in
  let best = ref None in
  let assignment = Array.make n false in
  (* prefix of length k on the node, k = 1 .. n-1 *)
  for k = 1 to n - 1 do
    Array.iteri (fun pos op -> assignment.(op) <- pos < k) order;
    if Wishbone.Spec.feasible spec ~node_side:assignment then begin
      let obj = Wishbone.Spec.objective_value spec ~node_side:assignment in
      match !best with
      | Some (_, b) when b <= obj -> ()
      | _ -> best := Some (Array.copy assignment, obj)
    end
  done;
  !best

let three_tier ?(micro_cpu_budget = infinity) ?(micro_net_budget = infinity)
    ?(beta_micro = 0.3) ~micro_cpu (spec : Wishbone.Spec.t) =
  let n = Graph.n_ops spec.graph in
  if Array.length micro_cpu <> n then
    invalid_arg "Reference.three_tier: micro_cpu has wrong length";
  let tier tname cpu cpu_budget =
    { Wishbone.Placement.tname; cpu; cpu_budget; alpha = 0. }
  in
  Wishbone.Placement.v ~spec
    ~tiers:
      [
        tier "mote" spec.cpu spec.cpu_budget;
        tier "microserver" micro_cpu micro_cpu_budget;
        tier "central" (Array.make n 0.) infinity;
      ]
    ~links:
      [
        {
          Wishbone.Placement.lname = "mote_radio";
          net_budget = spec.net_budget;
          beta = 1.;
        };
        {
          Wishbone.Placement.lname = "micro_uplink";
          net_budget = micro_net_budget;
          beta = beta_micro;
        };
      ]
    ()

type tier = Mote | Microserver | Central

let three_tier_brute_force (pl : Wishbone.Placement.t) =
  let spec = pl.spec in
  let c = Wishbone.Preprocess.contract spec in
  let n = c.n_super in
  if n > max_super then
    invalid_arg "Reference.three_tier_brute_force: too many supernodes";
  let micro_cpu_per_op = pl.tiers.(1).cpu in
  let micro_cpu =
    Array.map
      (fun members ->
        List.fold_left (fun acc i -> acc +. micro_cpu_per_op.(i)) 0. members)
      c.members
  in
  let beta_mote = pl.links.(0).beta and beta_micro = pl.links.(1).beta in
  (* the same vacuous-budget clamp the ILP encoding applies *)
  let clamp budget costs =
    Float.min budget (Array.fold_left ( +. ) 1. costs)
  in
  let mote_cpu_budget = clamp pl.tiers.(0).cpu_budget c.cpu in
  let micro_cpu_budget = clamp pl.tiers.(1).cpu_budget micro_cpu in
  let total_bw = Array.fold_left (fun acc (_, _, r) -> acc +. r) 1. c.edges in
  let mote_net_budget = Float.min pl.links.(0).net_budget total_bw in
  let micro_net_budget = Float.min pl.links.(1).net_budget total_bw in
  let rank = function Mote -> 2 | Microserver -> 1 | Central -> 0 in
  let allowed s =
    match c.placement.(s) with
    | Wishbone.Movable.Pin_node -> [ Mote ]
    | Wishbone.Movable.Pin_server -> [ Central ]
    | Wishbone.Movable.Movable -> [ Mote; Microserver; Central ]
  in
  let tiers = Array.make n Central in
  let best = ref None in
  let evaluate () =
    let monotone =
      Array.for_all (fun (u, v, _) -> rank tiers.(u) >= rank tiers.(v)) c.edges
    in
    if monotone then begin
      let mote_cpu = ref 0. and micro_used = ref 0. in
      Array.iteri
        (fun s tier ->
          match tier with
          | Mote -> mote_cpu := !mote_cpu +. c.cpu.(s)
          | Microserver -> micro_used := !micro_used +. micro_cpu.(s)
          | Central -> ())
        tiers;
      let mote_net = ref 0. and micro_net = ref 0. in
      Array.iter
        (fun (u, v, r) ->
          if tiers.(u) = Mote && tiers.(v) <> Mote then
            mote_net := !mote_net +. r;
          if tiers.(u) <> Central && tiers.(v) = Central then
            micro_net := !micro_net +. r)
        c.edges;
      if
        !mote_cpu <= mote_cpu_budget +. 1e-9
        && !micro_used <= micro_cpu_budget +. 1e-9
        && !mote_net <= mote_net_budget +. 1e-6
        && !micro_net <= micro_net_budget +. 1e-6
      then begin
        let obj = (beta_mote *. !mote_net) +. (beta_micro *. !micro_net) in
        match !best with
        | Some (_, b) when b <= obj -> ()
        | _ -> best := Some (Array.copy tiers, obj)
      end
    end
  in
  let rec go s =
    if s = n then evaluate ()
    else
      List.iter
        (fun tier ->
          tiers.(s) <- tier;
          go (s + 1))
        (allowed s)
  in
  go 0;
  Option.map
    (fun (super_tiers, obj) ->
      ( Array.map (fun s -> 2 - rank super_tiers.(s)) c.super_of,
        obj ))
    !best

(* ---- event scheduler ---- *)

(* A pending set ordered by (time, push sequence), the order the
   timing wheel documents: nondecreasing time, ties first-in first-out.
   It shares nothing with [Netsim.Sched] but that contract. *)
module Pending = Map.Make (struct
  type t = float * int

  let compare (t1, s1) (t2, s2) =
    match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c
end)

type sched = { mutable pending : int Pending.t; mutable seq : int }

let sched () = { pending = Pending.empty; seq = 0 }

let sched_push s time ev =
  s.pending <- Pending.add (time, s.seq) ev s.pending;
  s.seq <- s.seq + 1

let sched_pop s =
  match Pending.min_binding_opt s.pending with
  | None -> None
  | Some (((time, _) as key), ev) ->
      s.pending <- Pending.remove key s.pending;
      Some (time, ev)

let sched_clear s =
  s.pending <- Pending.empty;
  s.seq <- 0
