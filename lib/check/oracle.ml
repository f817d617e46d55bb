open Dataflow

type outcome = Pass | Fail of string

let is_pass = function Pass -> true | Fail _ -> false
let describe = function Pass -> "pass" | Fail msg -> msg

let failf fmt = Format.kasprintf (fun s -> Fail s) fmt

(* ---- oracle 1: LP optimality certificates ---- *)

let status_tag = function
  | Lp.Solution.Optimal _ -> "optimal"
  | Lp.Solution.Infeasible -> "infeasible"
  | Lp.Solution.Unbounded -> "unbounded"
  | Lp.Solution.Iteration_limit -> "iteration-limit"

let certified label ?lo ?hi problem (r : Lp.Simplex.result) =
  match Certificate.check_result ?lo ?hi problem r with
  | Certificate.Valid -> Ok ()
  | Certificate.Invalid msgs ->
      Error
        (Printf.sprintf "%s solve fails certificate: %s" label
           (String.concat "; " msgs))

let lp_certificate rng problem =
  let r0 = Lp.Simplex.solve problem in
  match certified "cold" problem r0 with
  | Error msg -> Fail msg
  | Ok () -> (
      (* perturb one variable's bounds and re-solve three ways *)
      let n = Lp.Problem.n_vars problem in
      let vars = Lp.Problem.vars problem in
      let lo = Array.map (fun (v : Lp.Problem.var_info) -> v.lo) vars in
      let hi = Array.map (fun (v : Lp.Problem.var_info) -> v.hi) vars in
      let v = Prng.int rng n in
      let span =
        if Float.is_finite hi.(v) then hi.(v) -. lo.(v) else 4.
      in
      if Prng.bool rng 0.5 then
        lo.(v) <- lo.(v) +. Prng.uniform rng 0. (0.6 *. span)
      else
        hi.(v) <-
          (if Float.is_finite hi.(v) then
             hi.(v) -. Prng.uniform rng 0. (0.6 *. span)
           else lo.(v) +. Prng.uniform rng 0. 4.);
      let cold = Lp.Simplex.solve ~lo ~hi problem in
      (* the sparse revised simplex (devex pricing over the
         Forrest–Tomlin factor path) must agree with the dense cold
         reference, both cold and warm-started from the dense basis;
         its bases are certified by the same dense reconstruction *)
      let sdata = Lp.Sparse.of_problem problem in
      let sparse_cold = Lp.Sparse.solve_warm ~lo ~hi sdata in
      let sparse_warm = Lp.Sparse.solve_warm ?warm:r0.basis ~lo ~hi sdata in
      let runs =
        [
          ("cold", cold);
          ("sparse-cold", sparse_cold);
          ("sparse-warm", sparse_warm);
        ]
      in
      if
        List.exists
          (fun (_, (r : Lp.Simplex.result)) ->
            r.status = Lp.Solution.Iteration_limit)
          runs
      then Pass (* inconclusive: a pivot budget ran out *)
      else begin
        let mismatch =
          List.find_opt
            (fun (_, (r : Lp.Simplex.result)) ->
              status_tag r.status <> status_tag cold.status)
            runs
        in
        match mismatch with
        | Some (label, r) ->
            failf "after bound perturbation, %s solve says %s but cold says %s"
              label (status_tag r.status) (status_tag cold.status)
        | None -> (
            let objective (r : Lp.Simplex.result) =
              match r.status with
              | Lp.Solution.Optimal s -> Some s.objective
              | _ -> None
            in
            let bad_obj =
              match objective cold with
              | None -> None
              | Some reference ->
                  List.find_opt
                    (fun (_, r) ->
                      match objective r with
                      | Some o ->
                          Float.abs (o -. reference)
                          > 1e-5 *. (1. +. Float.abs reference)
                      | None -> false)
                    runs
            in
            match bad_obj with
            | Some (label, r) ->
                failf "%s objective %g disagrees with cold %g" label
                  (Option.get (objective r))
                  (Option.get (objective cold))
            | None -> (
                let rec certify_all = function
                  | [] -> Pass
                  | (label, r) :: rest -> (
                      match certified label ~lo ~hi problem r with
                      | Ok () -> certify_all rest
                      | Error msg -> Fail msg)
                in
                certify_all runs))
      end)

(* ---- oracle 2: branch & bound vs exhaustive enumeration ---- *)

let ilp_brute problem =
  let status, stats = Lp.Branch_bound.solve problem in
  if
    status = Lp.Solution.Iteration_limit
    || ((not stats.Lp.Branch_bound.proved_optimal)
       && Lp.Solution.is_optimal status)
  then Pass (* inconclusive: node budget exhausted *)
  else
    let brute = Lp.Brute.solve problem in
    if status_tag status <> status_tag brute then
      failf "branch & bound says %s but enumeration says %s"
        (status_tag status) (status_tag brute)
    else
      match status with
      | Lp.Solution.Optimal sol -> (
          let brute_sol = Lp.Solution.get brute in
          let tol = 1e-5 *. (1. +. Float.abs brute_sol.objective) in
          if Float.abs (sol.objective -. brute_sol.objective) > tol then
            failf "incumbent objective %g but enumeration found %g"
              sol.objective brute_sol.objective
          else
            let viol = Lp.Problem.constraint_violation problem sol.x in
            if viol > 1e-5 then
              failf "incumbent violates constraints by %g" viol
            else
              let ints = Lp.Problem.integer_vars problem in
              let frac =
                List.exists
                  (fun v ->
                    Float.abs (sol.x.(v) -. Float.round sol.x.(v)) > 1e-6)
                  ints
              in
              if frac then Fail "incumbent is not integral"
              else
                match Lp.Brute.optimal_points ~obj_tol:1e-4 problem with
                | None -> Fail "enumeration lost its optimum on re-run"
                | Some (_, points) ->
                    let proj =
                      Array.of_list
                        (List.map (fun v -> Float.round sol.x.(v)) ints)
                    in
                    let member =
                      List.exists
                        (fun p ->
                          Array.length p = Array.length proj
                          && Array.for_all2
                               (fun a b -> Float.abs (a -. b) < 0.5)
                               p proj)
                        points
                    in
                    if member then Pass
                    else
                      failf
                        "incumbent integer assignment is not among the %d \
                         optimal points"
                        (List.length points))
      | _ -> Pass

(* ---- oracle 3: partitioner vs exhaustive cut enumeration ---- *)

let resource_ok resources node_side =
  List.for_all
    (fun (r : Wishbone.Placement.resource) ->
      let used = ref 0. in
      Array.iteri
        (fun i on -> if on then used := !used +. r.per_op.(i))
        node_side;
      !used <= r.budget +. 1e-6)
    resources

let enumerate_cuts ?(resources = []) (spec : Wishbone.Spec.t)
    ~single_crossing =
  let n = Array.length spec.placement in
  let movable =
    List.filter
      (fun i -> spec.placement.(i) = Wishbone.Movable.Movable)
      (List.init n Fun.id)
  in
  let k = List.length movable in
  let node_side =
    Array.map (fun p -> p = Wishbone.Movable.Pin_node) spec.placement
  in
  let best = ref None in
  for mask = 0 to (1 lsl k) - 1 do
    List.iteri
      (fun bit i -> node_side.(i) <- mask land (1 lsl bit) <> 0)
      movable;
    if
      Wishbone.Spec.feasible ~require_single_crossing:single_crossing spec
        ~node_side
      && resource_ok resources node_side
    then begin
      let obj = Wishbone.Spec.objective_value spec ~node_side in
      match !best with
      | Some b when b <= obj -> ()
      | _ -> best := Some obj
    end
  done;
  !best

let check_config ?(resources = []) (spec : Wishbone.Spec.t) ~encoding
    ~preprocess ~best =
  let label =
    Printf.sprintf "%s/%s"
      (match encoding with
      | Wishbone.Placement.Restricted -> "restricted"
      | Wishbone.Placement.General -> "general")
      (if preprocess then "preprocessed" else "direct")
  in
  match
    Wishbone.Placement.solve ~encoding ~preprocess ~resources
      (Wishbone.Placement.of_spec spec)
  with
  | Wishbone.Placement.Solver_failure msg ->
      Error (Printf.sprintf "%s: solver failure: %s" label msg)
  | Wishbone.Placement.No_feasible_partition -> (
      match best with
      | None -> Ok ()
      | Some b ->
          Error
            (Printf.sprintf
               "%s: reported infeasible but a cut with objective %g exists"
               label b))
  | Wishbone.Placement.Partitioned rep -> (
      match best with
      | None ->
          Error
            (Printf.sprintf
               "%s: reported a partition but enumeration finds none feasible"
               label)
      | Some b ->
          let node_side = Array.map (fun tier -> tier = 0) rep.tier_of in
          let rep_cpu = rep.tier_cpu.(0) and rep_net = rep.link_net.(0) in
          let single = encoding = Wishbone.Placement.Restricted in
          if
            not
              (Wishbone.Spec.feasible ~require_single_crossing:single spec
                 ~node_side)
          then Error (Printf.sprintf "%s: returned assignment infeasible" label)
          else if not (resource_ok resources node_side) then
            Error
              (Printf.sprintf "%s: returned assignment breaks a resource row"
                 label)
          else begin
            let cpu, net = Wishbone.Spec.cut_stats spec ~node_side in
            let obj = Wishbone.Spec.objective_value spec ~node_side in
            let tol = 1e-5 *. (1. +. Float.abs b) in
            if Float.abs (cpu -. rep_cpu) > tol then
              Error
                (Printf.sprintf "%s: reported cpu %g but cut_stats says %g"
                   label rep_cpu cpu)
            else if Float.abs (net -. rep_net) > tol then
              Error
                (Printf.sprintf "%s: reported net %g but cut_stats says %g"
                   label rep_net net)
            else if Float.abs (obj -. rep.objective) > tol then
              Error
                (Printf.sprintf
                   "%s: reported objective %g but assignment evaluates to %g"
                   label rep.objective obj)
            else if Float.abs (rep.objective -. b) > tol then
              Error
                (Printf.sprintf
                   "%s: objective %g but enumeration's optimum is %g" label
                   rep.objective b)
            else Ok ()
          end)

let cut_enumeration ?(resources = []) (spec : Wishbone.Spec.t) =
  let n_movable =
    Array.fold_left
      (fun acc p -> if p = Wishbone.Movable.Movable then acc + 1 else acc)
      0 spec.placement
  in
  if n_movable > 16 then Pass
  else begin
    let best_r = enumerate_cuts ~resources spec ~single_crossing:true in
    let best_g = enumerate_cuts ~resources spec ~single_crossing:false in
    let configs =
      [
        (Wishbone.Placement.Restricted, true, best_r);
        (Wishbone.Placement.Restricted, false, best_r);
        (Wishbone.Placement.General, true, best_g);
        (Wishbone.Placement.General, false, best_g);
      ]
    in
    let rec run = function
      | [] -> (
          match (best_r, best_g) with
          | Some r, Some g when g > r +. (1e-5 *. (1. +. Float.abs r)) ->
              failf
                "general optimum %g is worse than restricted optimum %g" g r
          | Some _, None ->
              Fail "restricted cut exists but no general cut does"
          | _ -> Pass)
      | (encoding, preprocess, best) :: rest -> (
          match check_config ~resources spec ~encoding ~preprocess ~best with
          | Ok () -> run rest
          | Error msg -> Fail msg)
    in
    run configs
  end

(* ---- oracle 4: split execution preserves semantics ---- *)

let sort_values = List.sort Stdlib.compare

let equal_multisets a b =
  List.length a = List.length b
  && List.for_all2 Dataflow.Value.equal (sort_values a) (sort_values b)

let run_split_equiv (spec : Wishbone.Spec.t) cut ~label =
  let g = spec.graph in
  let sources =
    Array.to_list (Graph.ops g)
    |> List.filter (fun (o : Dataflow.Op.t) ->
           o.side_effect = Dataflow.Op.Sensor_input)
    |> List.map (fun (o : Dataflow.Op.t) -> o.id)
  in
  let full = Runtime.Exec.full g in
  let split = Runtime.Splitrun.create ~node_of:(fun i -> cut.(i)) g in
  let failure = ref None in
  let record fmt =
    Format.kasprintf
      (fun s -> if !failure = None then failure := Some s)
      fmt
  in
  for k = 0 to 11 do
    List.iter
      (fun src ->
        let v = Dataflow.Value.Int ((13 * k) + src) in
        let fired = Runtime.Exec.fire full ~op:src ~port:0 v in
        let split_out = Runtime.Splitrun.inject split ~source:src v in
        if
          not
            (equal_multisets fired.Runtime.Exec.sink_values split_out)
        then
          record
            "%s: injection %d into op %d: full run delivered %d sink values, \
             split run %d (or different values)"
            label k src
            (List.length fired.Runtime.Exec.sink_values)
            (List.length split_out))
      sources
  done;
  (match !failure with
  | Some _ -> ()
  | None ->
      let node = Runtime.Splitrun.node_exec split 0 in
      let server = Runtime.Splitrun.server_exec split in
      for o = 0 to Graph.n_ops g - 1 do
        let f = Runtime.Exec.op_fires full o in
        let s =
          Runtime.Exec.op_fires node o + Runtime.Exec.op_fires server o
        in
        if f <> s then
          record "%s: op %d fired %d times in full run but %d split" label o
            f s
      done;
      let elems = ref 0 and bytes = ref 0 in
      Array.iter
        (fun (e : Graph.edge) ->
          if cut.(e.src) && not cut.(e.dst) then begin
            elems := !elems + Runtime.Exec.edge_elements full e.eid;
            bytes := !bytes + Runtime.Exec.edge_bytes full e.eid
          end)
        (Graph.edges g);
      let selems, sbytes = Runtime.Splitrun.crossing_traffic split in
      if (selems, sbytes) <> (!elems, !bytes) then
        record
          "%s: split runtime crossed (%d elements, %d bytes) but the full \
           run's cut edges carried (%d, %d)"
          label selems sbytes !elems !bytes);
  match !failure with None -> Ok () | Some msg -> Error msg

(* ---- oracle 5: shedding degrades, never corrupts ---- *)

(* every element of [small] occurs in [big] with at least the same
   multiplicity; both lists are consumed sorted *)
let rec sub_sorted small big =
  match (small, big) with
  | [], _ -> true
  | _ :: _, [] -> false
  | s :: s', b :: b' ->
      let c = Stdlib.compare s b in
      if c = 0 then sub_sorted s' b'
      else if c > 0 then sub_sorted small b'
      else false

let sub_multiset small big = sub_sorted (sort_values small) (sort_values big)

let degradation rng (spec : Wishbone.Spec.t) =
  let g = spec.graph in
  let cut = Gen.random_cut rng spec in
  (* The subtractive-loss property needs every stateful operator
     upstream of the lossy inter-half queue — exactly what the paper's
     conservative placement guarantees.  The rare instance that puts a
     stateful operator server-side (permissive mode) is out of the
     property's scope and passes trivially. *)
  let unsafe =
    Array.exists
      (fun (o : Dataflow.Op.t) -> o.stateful && not cut.(o.id))
      (Graph.ops g)
  in
  if unsafe then Pass
  else begin
    let sources =
      Array.to_list (Graph.ops g)
      |> List.filter (fun (o : Dataflow.Op.t) ->
             o.side_effect = Dataflow.Op.Sensor_input)
      |> List.map (fun (o : Dataflow.Op.t) -> o.id)
    in
    let policy =
      match Prng.int rng 3 with
      | 0 -> Runtime.Shed.Drop_newest
      | 1 -> Runtime.Shed.Drop_oldest
      | _ -> Runtime.Shed.Sample_hold (Prng.uniform rng 0.2 0.9)
    in
    let shed =
      {
        Runtime.Splitrun.policy;
        capacity = 1 + Prng.int rng 4;
        service = Prng.int rng 2;
        seed = Int64.to_int (Prng.int64 rng);
      }
    in
    let full = Runtime.Exec.full g in
    let split = Runtime.Splitrun.create ~shed ~node_of:(fun i -> cut.(i)) g in
    let full_sinks = ref [] in
    let shed_sinks = ref [] in
    for k = 0 to 11 do
      List.iter
        (fun src ->
          let v = Dataflow.Value.Int ((13 * k) + src) in
          let fired = Runtime.Exec.fire full ~op:src ~port:0 v in
          full_sinks :=
            List.rev_append fired.Runtime.Exec.sink_values !full_sinks;
          shed_sinks :=
            List.rev_append
              (Runtime.Splitrun.inject split ~source:src v)
              !shed_sinks)
        sources
    done;
    (* late service: whatever survived the queue is processed now *)
    shed_sinks := List.rev_append (Runtime.Splitrun.drain split) !shed_sinks;
    let dropped = Runtime.Splitrun.dropped split in
    let per_op = Array.fold_left ( + ) 0 (Runtime.Splitrun.drop_counts split) in
    if Runtime.Splitrun.queued split <> 0 then
      failf "degradation: queue not empty after an unbounded drain"
    else if per_op <> dropped then
      failf
        "degradation: per-operator drop counters sum to %d but the queue shed \
         %d crossings"
        per_op dropped
    else if not (sub_multiset !shed_sinks !full_sinks) then
      failf
        "degradation: the shedding run emitted a sink value the lossless run \
         never produced (%d vs %d sink values; loss must be subtractive)"
        (List.length !shed_sinks) (List.length !full_sinks)
    else if dropped = 0 && not (equal_multisets !shed_sinks !full_sinks) then
      failf
        "degradation: nothing was shed yet sink multisets differ (%d vs %d)"
        (List.length !shed_sinks) (List.length !full_sinks)
    else Pass
  end

(* ---- oracle 6: generic placement vs the dedicated solvers ---- *)

(* "solver budget exhausted" is the one Solver_failure that is not a
   bug — the branch & bound hit its node/time budget, so the case is
   inconclusive, like the ilp-brute budget guard *)
let budget_failure msg = msg = "solver budget exhausted"

let two_tier_placement (spec : Wishbone.Spec.t) =
  let pl = Wishbone.Placement.of_spec spec in
  let brute = Reference.two_tier_brute_force spec in
  match (Wishbone.Placement.solve pl, brute) with
  | Wishbone.Placement.Solver_failure msg, _ ->
      if budget_failure msg then Ok ()
      else Error (Printf.sprintf "two-tier: solver failure: %s" msg)
  | Wishbone.Placement.No_feasible_partition, None -> Ok ()
  | Wishbone.Placement.No_feasible_partition, Some (_, b) ->
      Error
        (Printf.sprintf
           "two-tier: placement says infeasible but a cut with objective %g \
            exists"
           b)
  | Wishbone.Placement.Partitioned _, None ->
      Error "two-tier: placement found a cut but enumeration finds none"
  | Wishbone.Placement.Partitioned r, Some (_, b) ->
      let node_side =
        Array.map (fun tier -> tier = 0) r.Wishbone.Placement.tier_of
      in
      let tol = 1e-5 *. (1. +. Float.abs b) in
      if not (Wishbone.Spec.feasible spec ~node_side) then
        Error "two-tier: placement's assignment is infeasible"
      else if not (Wishbone.Placement.feasible pl ~tier_of:r.tier_of) then
        Error "two-tier: Placement.feasible rejects its own solution"
      else begin
        let obj = Wishbone.Spec.objective_value spec ~node_side in
        let cpu, net = Wishbone.Placement.stats pl ~tier_of:r.tier_of in
        let gobj = Wishbone.Placement.objective_value pl ~tier_of:r.tier_of in
        if Float.abs (obj -. b) > tol then
          Error
            (Printf.sprintf
               "two-tier: placement objective %g but enumeration's optimum \
                is %g"
               obj b)
        else if Float.abs (r.objective -. gobj) > tol then
          Error
            (Printf.sprintf
               "two-tier: report objective %g but the assignment evaluates \
                to %g"
               r.objective gobj)
        else if
          Float.abs (cpu.(0) -. r.tier_cpu.(0)) > tol
          || Float.abs (net.(0) -. r.link_net.(0)) > tol
        then
          Error
            (Printf.sprintf
               "two-tier: report says (cpu %g, net %g) but stats say (%g, %g)"
               r.tier_cpu.(0) r.link_net.(0) cpu.(0) net.(0))
        else Ok ()
      end

let three_tier_placement rng (spec : Wishbone.Spec.t) =
  (* synthesize a microserver tier: cheaper per-op CPU than the mote,
     randomly budgeted middle resources, a randomly weighted uplink *)
  let micro_cpu =
    Array.map (fun c -> c *. Prng.uniform rng 0.05 0.6) spec.cpu
  in
  let micro_total = Array.fold_left ( +. ) 0. micro_cpu in
  let micro_cpu_budget =
    if Prng.bool rng 0.5 then infinity
    else Prng.uniform rng 0.3 1.2 *. Float.max 1e-6 micro_total
  in
  let total_bw = Array.fold_left ( +. ) 0. spec.bandwidth in
  let micro_net_budget =
    if Prng.bool rng 0.5 then infinity
    else Prng.uniform rng 0.3 1.2 *. Float.max 1e-6 total_bw
  in
  let beta_micro = Prng.uniform rng 0.05 1.0 in
  let tt =
    Reference.three_tier ~micro_cpu_budget ~micro_net_budget ~beta_micro
      ~micro_cpu spec
  in
  match
    (Wishbone.Placement.solve tt, Reference.three_tier_brute_force tt)
  with
  | Wishbone.Placement.Solver_failure msg, _ ->
      if budget_failure msg then Ok ()
      else Error (Printf.sprintf "three-tier: solver failure: %s" msg)
  | Wishbone.Placement.No_feasible_partition, None -> Ok ()
  | Wishbone.Placement.No_feasible_partition, Some (_, b) ->
      Error
        (Printf.sprintf
           "three-tier: placement says infeasible but an assignment with \
            objective %g exists"
           b)
  | Wishbone.Placement.Partitioned _, None ->
      Error "three-tier: placement found an assignment, enumeration none"
  | Wishbone.Placement.Partitioned r, Some (_, b) ->
      let tol = 1e-5 *. (1. +. Float.abs b) in
      let non_monotone =
        Array.exists
          (fun (e : Graph.edge) -> r.tier_of.(e.src) > r.tier_of.(e.dst))
          (Graph.edges spec.graph)
      in
      if non_monotone then
        Error "three-tier: returned tiers ascend along an edge"
      else if Float.abs (r.objective -. b) > tol then
        Error
          (Printf.sprintf
             "three-tier: placement objective %g but enumeration's optimum \
              is %g"
             r.objective b)
      else Ok ()

let placement_equivalence rng (spec : Wishbone.Spec.t) =
  let n_movable =
    Array.fold_left
      (fun acc p -> if p = Wishbone.Movable.Movable then acc + 1 else acc)
      0 spec.placement
  in
  let c = Wishbone.Preprocess.contract spec in
  if n_movable > 16 || c.Wishbone.Preprocess.n_super > 12 then Pass
  else
    match two_tier_placement spec with
    | Error msg -> Fail msg
    | Ok () -> (
        match three_tier_placement rng spec with
        | Error msg -> Fail msg
        | Ok () -> Pass)

(* ---- oracle 9: tree-topology equivalence ---- *)

(* Independent evaluation of a tier assignment on a tree instance:
   monotonicity, per-tier CPU, per-tree-edge network and the
   objective, all recomputed from the parent array with root-path
   walks — no shared code with Placement.stats/feasible. *)
let tree_eval (pl : Wishbone.Placement.t) ~monotone tier_of =
  let topo = pl.Wishbone.Placement.topology in
  let n_tiers = Array.length pl.Wishbone.Placement.tiers in
  let root = n_tiers - 1 in
  let spec = pl.Wishbone.Placement.spec in
  (* root-path edge set of each tier: tier k's uplink is edge k *)
  let path tier =
    let rec up x acc =
      if x = root then acc
      else up (Wishbone.Placement.Topology.parent topo x) (x :: acc)
    in
    up tier []
  in
  let pin_ok =
    let ok = ref true in
    Array.iteri
      (fun i tier ->
        (match pl.Wishbone.Placement.tier_pins.(i) with
        | Some tp -> if tier <> tp then ok := false
        | None -> (
            match spec.Wishbone.Spec.placement.(i) with
            | Wishbone.Movable.Pin_node -> if tier <> 0 then ok := false
            | Wishbone.Movable.Pin_server -> if tier <> root then ok := false
            | Wishbone.Movable.Movable -> ())))
      tier_of;
    !ok
  in
  let monotone_ok =
    (not monotone)
    || Array.for_all
         (fun (e : Graph.edge) ->
           let rec up x =
             x = tier_of.(e.dst)
             ||
             let p = Wishbone.Placement.Topology.parent topo x in
             p >= 0 && up p
           in
           up tier_of.(e.src))
         (Graph.edges spec.Wishbone.Spec.graph)
  in
  let tier_cpu = Array.make n_tiers 0. in
  Array.iteri
    (fun i tp ->
      tier_cpu.(tp) <-
        tier_cpu.(tp) +. pl.Wishbone.Placement.tiers.(tp).Wishbone.Placement.cpu.(i))
    tier_of;
  let link_net = Array.make (n_tiers - 1) 0. in
  Array.iter
    (fun (e : Graph.edge) ->
      let ps = path tier_of.(e.src) and pd = path tier_of.(e.dst) in
      List.iter
        (fun k ->
          if not (List.mem k pd) then
            link_net.(k) <-
              link_net.(k) +. spec.Wishbone.Spec.bandwidth.(e.eid))
        ps;
      List.iter
        (fun k ->
          if not (List.mem k ps) then
            link_net.(k) <-
              link_net.(k) +. spec.Wishbone.Spec.bandwidth.(e.eid))
        pd)
    (Graph.edges spec.Wishbone.Spec.graph);
  let cpu_ok =
    Array.for_all2
      (fun (t : Wishbone.Placement.tier) c ->
        (not (Float.is_finite t.Wishbone.Placement.cpu_budget))
        || c <= t.Wishbone.Placement.cpu_budget +. 1e-9)
      pl.Wishbone.Placement.tiers tier_cpu
  in
  let net_ok =
    Array.for_all2
      (fun (l : Wishbone.Placement.link) n ->
        (not (Float.is_finite l.Wishbone.Placement.net_budget))
        || n <= l.Wishbone.Placement.net_budget +. 1e-6)
      pl.Wishbone.Placement.links link_net
  in
  let obj = ref 0. in
  Array.iteri
    (fun tp c ->
      obj := !obj +. (pl.Wishbone.Placement.tiers.(tp).Wishbone.Placement.alpha *. c))
    tier_cpu;
  Array.iteri
    (fun k n ->
      obj := !obj +. (pl.Wishbone.Placement.links.(k).Wishbone.Placement.beta *. n))
    link_net;
  (pin_ok && monotone_ok && cpu_ok && net_ok, !obj)

(* Brute-force optimum over per-supernode tiers, enumerating the same
   contraction [Placement.solve] uses (as
   [Reference.three_tier_brute_force] does), judged by [tree_eval]
   only.  [None] = no feasible assignment. *)
let tree_brute_force (pl : Wishbone.Placement.t) ~contracted ~monotone =
  let n_tiers = Array.length pl.Wishbone.Placement.tiers in
  let root = n_tiers - 1 in
  let c =
    if contracted then Wishbone.Preprocess.contract pl.Wishbone.Placement.spec
    else Wishbone.Preprocess.identity pl.Wishbone.Placement.spec
  in
  let n_super = c.Wishbone.Preprocess.n_super in
  let allowed =
    Array.init n_super (fun s ->
        let pin =
          List.fold_left
            (fun acc i ->
              match pl.Wishbone.Placement.tier_pins.(i) with
              | Some tp -> Some tp
              | None -> acc)
            None
            c.Wishbone.Preprocess.members.(s)
        in
        match pin with
        | Some tp -> [ tp ]
        | None -> (
            match c.Wishbone.Preprocess.placement.(s) with
            | Wishbone.Movable.Pin_node -> [ 0 ]
            | Wishbone.Movable.Pin_server -> [ root ]
            | Wishbone.Movable.Movable ->
                let rec tiers tp =
                  if tp >= n_tiers then [] else tp :: tiers (tp + 1)
                in
                tiers 0))
  in
  let best = ref None in
  let choice = Array.make n_super 0 in
  let rec enum s =
    if s = n_super then begin
      let tier_of =
        Array.map (fun sp -> choice.(sp)) c.Wishbone.Preprocess.super_of
      in
      let ok, obj = tree_eval pl ~monotone tier_of in
      if ok then
        match !best with
        | Some (_, b) when b <= obj -> ()
        | _ -> best := Some (Array.copy tier_of, obj)
    end
    else
      List.iter
        (fun tp ->
          choice.(s) <- tp;
          enum (s + 1))
        allowed.(s)
  in
  enum 0;
  !best

let tree_equivalence ?pruned rng (spec : Wishbone.Spec.t) =
  let n_movable =
    Array.fold_left
      (fun acc p -> if p = Wishbone.Movable.Movable then acc + 1 else acc)
      0 spec.placement
  in
  let c = Wishbone.Preprocess.contract spec in
  if n_movable > 7 || c.Wishbone.Preprocess.n_super > 10 then Pass
  else begin
    let module P = Wishbone.Placement in
    let n = Array.length spec.cpu in
    (* random rooted tree, 3..5 tiers, topological parent numbering *)
    let n_tiers = 3 + Prng.int rng 3 in
    let parents =
      Array.init n_tiers (fun k ->
          if k = n_tiers - 1 then -1 else 0)
    in
    for k = 0 to n_tiers - 2 do
      parents.(k) <- k + 1 + Prng.int rng (n_tiers - 1 - k)
    done;
    let topo = P.Topology.of_parents parents in
    let total_bw = Array.fold_left ( +. ) 0. spec.bandwidth in
    (* tier 0 is the spec's node; middles are cheaper, randomly
       budgeted platforms; the root an unbudgeted server *)
    let mk_tier tp =
      if tp = 0 then
        {
          P.tname = "t0";
          cpu = spec.cpu;
          cpu_budget = spec.cpu_budget;
          alpha = spec.alpha;
        }
      else if tp = n_tiers - 1 then
        {
          P.tname = "root";
          cpu = Array.make n 0.;
          cpu_budget = infinity;
          alpha = 0.;
        }
      else begin
        let cpu = Array.map (fun cc -> cc *. Prng.uniform rng 0.05 0.6) spec.cpu in
        let total = Array.fold_left ( +. ) 0. cpu in
        let cpu_budget =
          if Prng.bool rng 0.5 then infinity
          else Prng.uniform rng 0.3 1.2 *. Float.max 1e-6 total
        in
        { P.tname = Printf.sprintf "t%d" tp; cpu; cpu_budget; alpha = 0. }
      end
    in
    let mk_link k =
      let net_budget =
        if Prng.bool rng 0.5 then infinity
        else Prng.uniform rng 0.3 1.2 *. Float.max 1e-6 total_bw
      in
      { P.lname = Printf.sprintf "up%d" k; net_budget; beta = Prng.uniform rng 0.05 1.0 }
    in
    let rec build mk i stop = if i >= stop then [] else
      let x = mk i in
      x :: build mk (i + 1) stop
    in
    let tiers = build mk_tier 0 n_tiers in
    let links = build mk_link 0 (n_tiers - 1) in
    (* occasionally tier-pin one movable operator to a random tier *)
    let pins =
      if Prng.bool rng 0.3 then begin
        let movable =
          List.filter
            (fun i -> spec.placement.(i) = Wishbone.Movable.Movable)
            (List.init n Fun.id)
        in
        match movable with
        | [] -> []
        | l -> [ (List.nth l (Prng.int rng (List.length l)), Prng.int rng n_tiers) ]
      end
      else []
    in
    (* sometimes move the node-pinned sources onto random leaves, so
       live subtrees (holding a source) mix with pruned ones *)
    let pins =
      if Prng.bool rng 0.4 then begin
        let leaves =
          Array.of_list
            (List.filter
               (fun tp -> P.Topology.children topo tp = [])
               (List.init n_tiers Fun.id))
        in
        List.filter_map
          (fun i ->
            if
              spec.placement.(i) = Wishbone.Movable.Pin_node
              && Graph.in_degree spec.graph i = 0
            then Some (i, leaves.(Prng.int rng (Array.length leaves)))
            else None)
          (List.init n Fun.id)
        @ pins
      end
      else pins
    in
    let pl = P.v ~topology:topo ~pins ~spec ~tiers ~links () in
    (* did the restricted encoding drop a tier no operator can reach? *)
    (match pruned with
    | None -> ()
    | Some count ->
        let c =
          if pins = [] then Wishbone.Preprocess.contract spec
          else Wishbone.Preprocess.identity spec
        in
        let enc = P.encode P.Restricted pl c in
        if Array.exists (Array.exists (fun v -> v < 0)) enc.P.level_var then
          incr count);
    let check ~encoding ~monotone label =
      (* enumerate the same space the solve uses: contraction under
         Restricted with no tier pins, the full graph otherwise *)
      let contracted = encoding = P.Restricted && pins = [] in
      match P.solve ~encoding pl with
      | P.Solver_failure msg ->
          if budget_failure msg then Ok ()
          else Error (Printf.sprintf "%s: solver failure: %s" label msg)
      | outcome -> (
          match (outcome, tree_brute_force pl ~contracted ~monotone) with
          | P.No_feasible_partition, None -> Ok ()
          | P.No_feasible_partition, Some (_, b) ->
              Error
                (Printf.sprintf
                   "%s: placement says infeasible but an assignment with \
                    objective %g exists"
                   label b)
          | P.Partitioned _, None ->
              Error
                (Printf.sprintf
                   "%s: placement found an assignment, enumeration none" label)
          | P.Partitioned r, Some (_, b) ->
              let tol = 1e-5 *. (1. +. Float.abs b) in
              let ok, obj = tree_eval pl ~monotone r.P.tier_of in
              let cpu, net = P.stats pl ~tier_of:r.P.tier_of in
              if not ok then
                Error
                  (Printf.sprintf "%s: returned assignment is infeasible"
                     label)
              else if Float.abs (r.P.objective -. obj) > tol then
                Error
                  (Printf.sprintf
                     "%s: report objective %g but the assignment evaluates \
                      to %g"
                     label r.P.objective obj)
              else if Float.abs (obj -. b) > tol then
                Error
                  (Printf.sprintf
                     "%s: placement objective %g but enumeration's optimum \
                      is %g"
                     label obj b)
              else if
                Array.exists2
                  (fun a b -> Float.abs (a -. b) > tol)
                  cpu r.P.tier_cpu
                || Array.exists2
                     (fun a b -> Float.abs (a -. b) > tol)
                     net r.P.link_net
              then Error (Printf.sprintf "%s: report stats disagree" label)
              else Ok ()
          | P.Solver_failure _, _ -> assert false)
    in
    (* the qcheck byte-identity property: a chain expressed as an
       explicit degenerate tree encodes the very same ILP (variables,
       rows, names, objective) as the implicit-chain constructor *)
    let chain_identical =
      let chain_tiers = build mk_tier 0 3
      and chain_links = build mk_link 0 2 in
      let plc = P.v ~spec ~tiers:chain_tiers ~links:chain_links () in
      let plt =
        P.v
          ~topology:(P.Topology.of_parents [| 1; 2; -1 |])
          ~spec ~tiers:chain_tiers ~links:chain_links ()
      in
      let cc = Wishbone.Preprocess.contract spec in
      let show pl =
        Format.asprintf "%a" Lp.Problem.pp
          (P.encode P.Restricted pl cc).P.problem
      in
      show plc = show plt
    in
    if not chain_identical then
      Fail "tree: chain-as-degenerate-tree encodes a different ILP"
    else
      match check ~encoding:P.Restricted ~monotone:true "tree-restricted" with
      | Error msg -> Fail msg
      | Ok () -> (
          match
            check ~encoding:P.General ~monotone:false "tree-general"
          with
          | Error msg -> Fail msg
          | Ok () -> Pass)
  end

(* ---- oracle 7: service equivalence ---- *)

let pp_request = function
  | Wishbone.Service.Rate r -> Printf.sprintf "rate %.6g" r
  | Wishbone.Service.Search -> "search"

let answers_equal a b =
  match (a, b) with
  | Wishbone.Service.Infeasible, Wishbone.Service.Infeasible -> true
  | Wishbone.Service.Failed m, Wishbone.Service.Failed m' -> m = m'
  | Wishbone.Service.Placed p, Wishbone.Service.Placed p' ->
      (* bit-exact: rate and objective compared as IEEE-754 patterns *)
      Int64.bits_of_float p.rate = Int64.bits_of_float p'.rate
      && Int64.bits_of_float p.report.Wishbone.Placement.objective
         = Int64.bits_of_float p'.report.Wishbone.Placement.objective
      && p.report.Wishbone.Placement.tier_of
         = p'.report.Wishbone.Placement.tier_of
  | Wishbone.Service.Degraded p, Wishbone.Service.Degraded p' ->
      Int64.bits_of_float p.rate = Int64.bits_of_float p'.rate
      && Int64.bits_of_float p.report.Wishbone.Placement.objective
         = Int64.bits_of_float p'.report.Wishbone.Placement.objective
      && Int64.bits_of_float p.gap = Int64.bits_of_float p'.gap
      && p.report.Wishbone.Placement.tier_of
         = p'.report.Wishbone.Placement.tier_of
  | _ -> false

let service_equivalence rng (spec : Wishbone.Spec.t) =
  let n_movable =
    Array.fold_left
      (fun acc p -> if p = Wishbone.Movable.Movable then acc + 1 else acc)
      0 spec.placement
  in
  if n_movable > 16 then Pass
  else begin
    let pl = Wishbone.Placement.of_spec spec in
    (* a budget-perturbed sibling: same graph and costs, tighter node
       CPU — its cache entries must never be served for [pl] *)
    let sibling =
      Wishbone.Placement.of_spec
        { spec with Wishbone.Spec.cpu_budget = spec.Wishbone.Spec.cpu_budget *. 0.7 }
    in
    let options = Lp.Branch_bound.default_options in
    let tol = 0.01 and max_multiplier = 256. in
    (* a small candidate-rate pool so repeats and near-repeats arise *)
    let rates =
      [| Prng.uniform rng 0.2 0.8; Prng.uniform rng 0.8 1.6;
         Prng.uniform rng 1.6 4.0 |]
    in
    let n_q = 4 + Prng.int rng 4 in
    let queries =
      Array.init n_q (fun _ ->
          let placement = if Prng.bool rng 0.25 then sibling else pl in
          let request =
            if Prng.bool rng 0.25 then Wishbone.Service.Search
            else Wishbone.Service.Rate rates.(Prng.int rng 3)
          in
          { Wishbone.Service.placement; request })
    in
    let capacity = 1 + Prng.int rng 4 in
    let shards = 1 + Prng.int rng 2 in
    let svc = Wishbone.Service.create ~capacity ~options ~tol ~max_multiplier () in
    (* direct answers memoised per query key, computed with no cache
       and no hints — the reference the service must reproduce *)
    let memo = Hashtbl.create 8 in
    let direct i =
      let key = Wishbone.Service.query_key svc queries.(i) in
      match Hashtbl.find_opt memo key with
      | Some a -> a
      | None ->
          let a =
            Wishbone.Service.solve_direct ~options ~tol ~max_multiplier
              queries.(i)
          in
          Hashtbl.add memo key a;
          a
    in
    (* budget-dependent answers: warm starts legitimately change how
       far a finite budget reaches, so these are not held to
       byte-identity (the default full-proof options never produce
       them; the guard is for caller-supplied budgets) *)
    let budgeted = function
      | Wishbone.Service.Failed _ | Wishbone.Service.Degraded _ -> true
      | _ -> false
    in
    let check_pass pass (responses : Wishbone.Service.response array) =
      let bad = ref None in
      Array.iteri
        (fun i (r : Wishbone.Service.response) ->
          if !bad = None then begin
            let d = direct i in
            if budgeted d || budgeted r.Wishbone.Service.answer then ()
            else if not (answers_equal d r.Wishbone.Service.answer) then
              bad :=
                Some
                  (Printf.sprintf
                     "service: %s pass, query %d (%s): served answer differs \
                      from direct solve"
                     pass i
                     (pp_request queries.(i).Wishbone.Service.request))
            else if
              Wishbone.Service.answer_digest d <> r.Wishbone.Service.digest
            then
              bad :=
                Some
                  (Printf.sprintf
                     "service: %s pass, query %d (%s): digest disagrees with \
                      the canonical answer digest"
                     pass i
                     (pp_request queries.(i).Wishbone.Service.request))
          end)
        responses;
      !bad
    in
    let r1 = Wishbone.Service.run_batch ~shards svc queries in
    match check_pass "cold" r1 with
    | Some msg -> Fail msg
    | None -> (
        (* replay against the warm cache: hits must replay byte-identically *)
        let r2 = Wishbone.Service.run_batch ~shards svc queries in
        match check_pass "warm" r2 with
        | Some msg -> Fail msg
        | None ->
            let c = Wishbone.Service.counters svc in
            if c.Wishbone.Service.hits + c.Wishbone.Service.misses
               <> c.Wishbone.Service.queries
            then
              failf "service: counters leak: %d hits + %d misses <> %d queries"
                c.Wishbone.Service.hits c.Wishbone.Service.misses
                c.Wishbone.Service.queries
            else if
              c.Wishbone.Service.inserts - c.Wishbone.Service.evictions
              <> c.Wishbone.Service.resident
            then
              failf
                "service: cache leak: %d inserts - %d evictions <> %d resident"
                c.Wishbone.Service.inserts c.Wishbone.Service.evictions
                c.Wishbone.Service.resident
            else if c.Wishbone.Service.resident > capacity then
              failf "service: %d resident entries over capacity %d"
                c.Wishbone.Service.resident capacity
            else Pass)
  end

(* ---- oracle 8: degraded answers are sound ---- *)

let degraded_soundness rng (spec : Wishbone.Spec.t) =
  let n_movable =
    Array.fold_left
      (fun acc p -> if p = Wishbone.Movable.Movable then acc + 1 else acc)
      0 spec.placement
  in
  if n_movable > 16 then Pass
  else begin
    let pl = Wishbone.Placement.of_spec spec in
    let base = Lp.Branch_bound.default_options in
    (* a random work-unit budget tight enough to bite: node and/or
       tree-wide pivot budgets, never wall-clock (determinism) *)
    let budget_nodes = Prng.bool rng 0.7 in
    let options =
      let o =
        if budget_nodes then
          { base with Lp.Branch_bound.max_nodes = Prng.int rng 6 }
        else base
      in
      if (not budget_nodes) || Prng.bool rng 0.5 then
        { o with Lp.Branch_bound.pivot_budget = 1 + Prng.int rng 40 }
      else o
    in
    let tol = 0.01 and max_multiplier = 256. in
    let request =
      if Prng.bool rng 0.25 then Wishbone.Service.Search
      else Wishbone.Service.Rate (Prng.uniform rng 0.2 4.0)
    in
    let q = { Wishbone.Service.placement = pl; request } in
    let a = Wishbone.Service.solve_direct ~options ~tol ~max_multiplier q in
    (* budget = infinity plumbing: a huge-but-finite pivot budget must
       reproduce the unbudgeted default path byte for byte *)
    let huge = { base with Lp.Branch_bound.pivot_budget = 1_000_000_000 } in
    let a_huge =
      Wishbone.Service.solve_direct ~options:huge ~tol ~max_multiplier q
    in
    let a_exact =
      Wishbone.Service.solve_direct ~options:base ~tol ~max_multiplier q
    in
    if
      Wishbone.Service.answer_digest a_huge
      <> Wishbone.Service.answer_digest a_exact
    then
      failf
        "degraded-soundness: a huge finite pivot budget changed the answer \
         vs the unlimited path"
    else
      match a with
      | Wishbone.Service.Failed _ ->
          (* budget exhausted before any incumbent: inconclusive *)
          Pass
      | Wishbone.Service.Placed { report; _ } ->
          if not report.Wishbone.Placement.solver.Lp.Branch_bound.proved_optimal
          then
            failf
              "degraded-soundness: Placed answer without an optimality proof"
          else Pass
      | Wishbone.Service.Infeasible -> (
          match request with
          | Wishbone.Service.Search ->
              (* under a finite budget, Search's None is conservative
                 ("no rate could be certified"), not a proof *)
              Pass
          | Wishbone.Service.Rate r -> (
              match
                Reference.two_tier_brute_force
                  (Wishbone.Spec.scale_rate spec r)
              with
              | None -> Pass
              | Some (_, b) ->
                  failf
                    "degraded-soundness: infeasible claimed at rate %g but a \
                     cut with objective %g exists"
                    r b))
      | Wishbone.Service.Degraded { rate = r; report; gap } ->
          let s = report.Wishbone.Placement.solver in
          let expect_gap =
            Float.abs
              (report.Wishbone.Placement.objective
              -. s.Lp.Branch_bound.best_bound)
            /. Float.max 1.
                 (Float.abs report.Wishbone.Placement.objective)
          in
          if
            not
              (Wishbone.Placement.feasible
                 (Wishbone.Placement.scale_rate pl r)
                 ~tier_of:report.Wishbone.Placement.tier_of)
          then
            failf "degraded-soundness: degraded incumbent infeasible at \
                   rate %g" r
          else if Int64.bits_of_float gap <> Int64.bits_of_float expect_gap
          then
            failf
              "degraded-soundness: reported gap %g but bound arithmetic \
               gives %g"
              gap expect_gap
          else if (not (Float.is_nan gap)) && gap < 0. then
            failf "degraded-soundness: negative gap %g" gap
          else (
            match request with
            | Wishbone.Service.Search ->
                (* the rate is a certified-feasible lower bound (checked
                   above); the maximum itself is uncheckable cheaply *)
                Pass
            | Wishbone.Service.Rate _ -> (
                match
                  Reference.two_tier_brute_force
                    (Wishbone.Spec.scale_rate spec r)
                with
                | None ->
                    failf
                      "degraded-soundness: feasible degraded incumbent but \
                       enumeration finds none"
                | Some (_, b) ->
                    let eps = 1e-5 *. (1. +. Float.abs b) in
                    if b > report.Wishbone.Placement.objective +. eps then
                      failf
                        "degraded-soundness: enumeration optimum %g beats \
                         the degraded incumbent %g (not a minimum?)"
                        b report.Wishbone.Placement.objective
                    else if
                      (not (Float.is_nan s.Lp.Branch_bound.best_bound))
                      && b < s.Lp.Branch_bound.best_bound -. eps
                    then
                      failf
                        "degraded-soundness: enumeration optimum %g lies \
                         below the certified dual bound %g"
                        b s.Lp.Branch_bound.best_bound
                    else Pass))
  end

let split_equivalence rng (spec : Wishbone.Spec.t) =
  let cuts = [ ("random cut", Gen.random_cut rng spec) ] in
  let cuts =
    match Wishbone.Placement.solve (Wishbone.Placement.of_spec spec) with
    | Wishbone.Placement.Partitioned rep ->
        cuts @ [ ("solver cut", Array.map (fun tier -> tier = 0) rep.tier_of) ]
    | _ -> cuts
  in
  let rec run = function
    | [] -> Pass
    | (label, cut) :: rest -> (
        match run_split_equiv spec cut ~label with
        | Ok () -> run rest
        | Error msg -> Fail msg)
  in
  run cuts

(* ---- oracle 10: scheduler equivalence on the simulated testbed ---- *)

let testbed_result_mismatch (a : Netsim.Testbed.result)
    (b : Netsim.Testbed.result) =
  let ints =
    [
      ("inputs_offered", a.inputs_offered, b.inputs_offered);
      ("inputs_processed", a.inputs_processed, b.inputs_processed);
      ("msgs_sent", a.msgs_sent, b.msgs_sent);
      ("msgs_received", a.msgs_received, b.msgs_received);
      ("packets_sent", a.packets_sent, b.packets_sent);
      ("packets_lost_collision", a.packets_lost_collision,
       b.packets_lost_collision);
      ("packets_lost_channel", a.packets_lost_channel,
       b.packets_lost_channel);
      ("packets_lost_queue", a.packets_lost_queue, b.packets_lost_queue);
      ("sink_outputs", a.sink_outputs, b.sink_outputs);
      ("msgs_duplicate", a.msgs_duplicate, b.msgs_duplicate);
      ("msgs_expired", a.msgs_expired, b.msgs_expired);
      ("msgs_pending", a.msgs_pending, b.msgs_pending);
      ("retransmissions", a.retransmissions, b.retransmissions);
      ("acks_sent", a.acks_sent, b.acks_sent);
      ("acks_lost", a.acks_lost, b.acks_lost);
      ("crashes", a.crashes, b.crashes);
      ("inputs_lost_down", a.inputs_lost_down, b.inputs_lost_down);
      ("events_processed", a.events_processed, b.events_processed);
      ("edge_rows", Array.length a.edge_bytes_per_sec,
       Array.length b.edge_bytes_per_sec);
    ]
  in
  let floats =
    [
      ("input_fraction", a.input_fraction, b.input_fraction);
      ("msg_fraction", a.msg_fraction, b.msg_fraction);
      ("goodput_fraction", a.goodput_fraction, b.goodput_fraction);
      ("node_busy_fraction", a.node_busy_fraction, b.node_busy_fraction);
      ("offered_bytes_per_sec", a.offered_bytes_per_sec,
       b.offered_bytes_per_sec);
    ]
  in
  let bad_int =
    List.find_opt (fun (_, x, y) -> x <> y) ints
  in
  match bad_int with
  | Some (name, x, y) -> Some (Printf.sprintf "%s: %d vs %d" name x y)
  | None -> (
      let differs x y =
        not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
      in
      match List.find_opt (fun (_, x, y) -> differs x y) floats with
      | Some (name, x, y) ->
          Some (Printf.sprintf "%s: %.17g vs %.17g" name x y)
      | None ->
          let n = Array.length a.edge_bytes_per_sec in
          let rec scan i =
            if i >= n then None
            else if differs a.edge_bytes_per_sec.(i) b.edge_bytes_per_sec.(i)
            then
              Some
                (Printf.sprintf "edge_bytes_per_sec.(%d): %.17g vs %.17g" i
                   a.edge_bytes_per_sec.(i) b.edge_bytes_per_sec.(i))
            else scan (i + 1)
          in
          scan 0)

(* One random interleaved push/pop trace, replayed on the timing wheel
   and on [Reference.sched]: every pop must return the same (time,
   event).  Times hit exact ties with earlier pushes, the last popped
   time and earlier, exact tick boundaries, and both wheel levels and
   the overflow bucket beyond them; one [clear] may fall mid-trace. *)
let sched_trace rng =
  let tick = [| 1e-4; 1e-3; 7e-3 |].(Prng.int rng 3) in
  let wheel = Netsim.Sched.create ~capacity:16 ~tick () in
  let reference = Reference.sched () in
  let n_ops = 20 + Prng.int rng 400 in
  let clear_at = if Prng.bool rng 0.5 then Prng.int rng n_ops else -1 in
  let recent = Array.make 8 0. and last = ref 0. in
  let time () =
    match Prng.int rng 6 with
    | 0 -> recent.(Prng.int rng 8)
    | 1 -> !last
    | 2 -> Prng.float rng *. !last
    | 3 -> Float.of_int (int_of_float (!last /. tick) + Prng.int rng 4) *. tick
    | 4 -> !last +. Prng.uniform rng 0. (16. *. tick)
    | _ -> !last +. Prng.uniform rng 0. (3. *. 65536. *. tick)
  in
  let show = function
    | None -> "nothing"
    | Some (t, ev) -> Printf.sprintf "event %d at %h" ev t
  in
  (* steps below [n_ops] clear, push or pop; the rest drain *)
  let rec step i =
    if i = clear_at then begin
      Netsim.Sched.clear wheel;
      Reference.sched_clear reference;
      last := 0.;
      step (i + 1)
    end
    else if i < n_ops && Prng.bool rng 0.55 then begin
      let t = time () in
      recent.(i land 7) <- t;
      Netsim.Sched.push wheel t i;
      Reference.sched_push reference t i;
      step (i + 1)
    end
    else
      let got =
        if Netsim.Sched.pop wheel then
          Some (Netsim.Sched.time wheel, Netsim.Sched.event wheel)
        else None
      in
      let want = Reference.sched_pop reference in
      Option.iter (fun (t, _) -> last := t) got;
      if got <> want then
        failf "sched-equivalence: tick %g, step %d: wheel pops %s, reference %s"
          tick i (show got) (show want)
      else if i >= n_ops && got = None then Pass
      else step (i + 1)
  in
  step 0

(* A random small fleet: the run must handle events, reliable
   transport must account for every message, and the cell
   decomposition must be invariant under the domain count. *)
let sched_testbed rng =
  let n_nodes = 2 + Prng.int rng 11 in
  let rate = Prng.uniform rng 0.5 8. in
  let payload = 8 + (2 * Prng.int rng 56) in
  let duration = Prng.uniform rng 2. 8. in
  let seed = Prng.int rng 1_000_000 in
  let faults =
    if Prng.bool rng 0.5 then
      {
        Netsim.Faults.crash_rate =
          (if Prng.bool rng 0.5 then Prng.uniform rng 0.005 0.05 else 0.);
        reboot_s = Prng.uniform rng 0.5 3.;
        burst =
          (if Prng.bool rng 0.7 then
             Some (Netsim.Faults.burst_of_loss (Prng.uniform rng 0.05 0.3))
           else None);
        clock_drift =
          (if Prng.bool rng 0.5 then Prng.uniform rng 0. 100e-6 else 0.);
      }
    else Netsim.Faults.none
  in
  let reliable = Prng.bool rng 0.5 in
  let transport =
    if reliable then Netsim.Transport.default_reliable ()
    else Netsim.Transport.Unreliable
  in
  let b = Builder.create () in
  let src = Builder.in_node b (fun () -> Builder.source b ~name:"probe" ()) in
  Builder.sink b ~name:"collect" src;
  let graph = Builder.build b and src = Builder.op_id src in
  let payload_arr = Array.make (Int.max 1 ((payload - 2) / 2)) 0 in
  let sources =
    [
      {
        Netsim.Testbed.source = src;
        rate;
        gen = (fun ~node:_ ~seq:_ -> Value.Int16_arr payload_arr);
      };
    ]
  in
  let go ?cells ?(domains = 1) () =
    let config =
      Netsim.Testbed.default_config ~n_nodes ~duration ~seed ~faults
        ~transport ?cells ~domains ~platform:Profiler.Platform.tmote_sky
        ~link:Netsim.Link.cc2420 ()
    in
    Netsim.Testbed.run config ~graph ~node_of:(fun i -> i = src) ~sources
  in
  let r = go () in
  if r.Netsim.Testbed.events_processed <= 0 then
    failf "sched-equivalence: vacuous case, no events processed"
  else if
    reliable
    && r.Netsim.Testbed.msgs_sent
       <> r.Netsim.Testbed.msgs_received + r.Netsim.Testbed.msgs_expired
          + r.Netsim.Testbed.msgs_pending
  then
    failf
      "sched-equivalence: reliable conservation broken: %d sent <> %d \
       received + %d expired + %d pending"
      r.Netsim.Testbed.msgs_sent r.Netsim.Testbed.msgs_received
      r.Netsim.Testbed.msgs_expired r.Netsim.Testbed.msgs_pending
  else
    let cell_size = 1 + Prng.int rng 4 in
    let cells = Array.init n_nodes (fun i -> i / cell_size) in
    match testbed_result_mismatch (go ~cells ()) (go ~cells ~domains:2 ()) with
    | Some msg -> failf "sched-equivalence: wheel domains 1 vs 2: %s" msg
    | None -> Pass

let sched_equivalence rng =
  match sched_trace rng with Pass -> sched_testbed rng | fail -> fail
