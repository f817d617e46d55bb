type placement_result = {
  placement_multiplier : float;
  placement_report : Placement.report;
  placement_exact : bool;
  placement_probes : int;
}

(* Near the feasibility boundary the CPU constraint becomes a tight
   knapsack and exact branch & bound can take minutes (the paper saw
   12-minute proof tails, §7.1, and suggests terminating on an
   approximate bound).  The search therefore defaults to a small
   optimality gap and a per-solve budget: the returned partition may
   be marginally suboptimal at the boundary but the found rate is
   always feasible. *)
let default_search_options =
  {
    Lp.Branch_bound.default_options with
    Lp.Branch_bound.gap_tol = 0.005;
    max_nodes = 5_000;
    time_limit = 10.;
  }

let default_tol = 0.01
let default_max_multiplier = 65536.

(* A probe's verdict at one rate multiple.  [Feasible (r, proved)]
   carries a verified-feasible report ([proved] = its optimality was
   certified within the solver budget); [Infeasible_at] is a proven
   infeasibility; [Unknown_at] is a budget exhaustion with no
   incumbent — the solver cannot say either way. *)
type 'a verdict = Feasible of 'a * bool | Infeasible_at | Unknown_at

(* The monotone bracket-and-bisect skeleton.  [attempt factor] solves
   at one rate multiple; feasibility must be monotone in [factor] for
   the bisection to be exact (up to [tol]).  Bisection also stops
   when the geometric midpoint is not strictly inside (lo, hi): once
   the two are adjacent floats it rounds onto one of them, so a [tol]
   below the float spacing would otherwise repeat one probe forever.

   Degradation is conservative: an [Unknown_at] verdict is treated
   exactly like a proven infeasibility, so the bisection only ever
   keeps rates whose feasibility was positively demonstrated — the
   returned rate is always safe to deploy, merely possibly lower than
   the true maximum when budgets bite.  The returned [exact] flag is
   true iff no step's verdict was degraded: every kept report was
   proved optimal and every rejection was a proven infeasibility; the
   returned count is the number of probes. *)
let bracket ~tol ~max_multiplier attempt =
  let exact = ref true and probes = ref 0 in
  let note = function
    | Feasible (_, proved) -> if not proved then exact := false
    | Infeasible_at -> ()
    | Unknown_at -> exact := false
  in
  let attempt factor =
    let v = attempt factor in
    incr probes;
    note v;
    v
  in
  (* establish a feasible lower bracket *)
  let rec find_lo factor =
    if factor < 1e-9 then None
    else
      match attempt factor with
      | Feasible (r, _) -> Some (factor, r)
      | Infeasible_at | Unknown_at -> find_lo (factor /. 4.)
  in
  match find_lo 1.0 with
  | None -> None
  | Some (lo0, r0) ->
      (* grow the upper bracket while feasible *)
      let rec find_hi lo best =
        let hi = lo *. 2. in
        if hi > max_multiplier then (lo, best, lo *. 2.)
        else
          match attempt hi with
          | Feasible (r, _) -> find_hi hi r
          | Infeasible_at | Unknown_at -> (lo, best, hi)
      in
      let rec bisect lo best hi =
        let mid = Float.sqrt (lo *. hi) in
        if (hi -. lo) /. lo > tol && mid > lo && mid < hi then
          match attempt mid with
          | Feasible (r, _) -> bisect mid r hi
          | Infeasible_at | Unknown_at -> bisect lo best mid
        else Some (lo, best, !exact, !probes)
      in
      let lo, best, hi = find_hi lo0 r0 in
      bisect lo best hi

let search_placement ?(options = default_search_options) ?(tol = default_tol)
    ?(max_multiplier = default_max_multiplier) ?(incremental = true)
    ?initial_tiers ?root_basis:basis0 pl =
  (* Incremental state threaded across bracket/bisection steps.  Every
     step solves the same ILP with uniformly rescaled coefficients, so
     (a) the last feasible tier assignment, re-evaluated under the new
     scale, seeds the incumbent — a valid primal bound that prunes
     most of the tree near the feasibility boundary — and (b) the
     previous root basis warm-starts the root relaxation.
     [initial_tiers]/[root_basis] pre-seed that state with a solve of
     the same structure at another rate (the placement service's
     near-repeat warm start).  Like every warm hint in this repo they
     change work, not answers. *)
  let prev_tiers = ref initial_tiers in
  let root_basis = ref basis0 in
  let attempt factor =
    let initial = if incremental then !prev_tiers else None in
    let basis = if incremental then !root_basis else None in
    match
      Placement.solve ~options ?initial ?root_basis:basis
        (Placement.scale_rate pl factor)
    with
    | Placement.Partitioned r ->
        prev_tiers := Some r.Placement.tier_of;
        (match r.Placement.solver.Lp.Branch_bound.root_basis with
        | Some b -> root_basis := Some b
        | None -> ());
        Feasible (r, r.Placement.solver.Lp.Branch_bound.proved_optimal)
    | Placement.No_feasible_partition -> Infeasible_at
    | Placement.Solver_failure _ -> Unknown_at
  in
  Option.map
    (fun (m, r, exact, probes) ->
      { placement_multiplier = m; placement_report = r;
        placement_exact = exact; placement_probes = probes })
    (bracket ~tol ~max_multiplier attempt)
