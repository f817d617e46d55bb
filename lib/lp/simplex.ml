type options = {
  max_pivots : int;
  feas_tol : float;
  cost_tol : float;
  degen_window : int;
}

let default_options =
  {
    max_pivots = 200_000;
    feas_tol = 1e-7;
    cost_tol = 1e-9;
    degen_window = 40;
  }

(* Column status in the bounded-variable simplex; shared with basis
   snapshots so warm starts can replay a previous solve's state. *)
type cstat = Basis.cstat = At_lower | At_upper | Basic

type tableau = {
  m : int;  (* rows *)
  ncols : int;  (* structural + slack + artificial columns *)
  n : int;  (* structural columns *)
  t : float array array;  (* m x ncols, kept reduced w.r.t. the basis *)
  beta : float array;  (* current value of the basic variable per row *)
  basis : int array;  (* column basic in each row *)
  in_row : int array;  (* column -> row index, or -1 when nonbasic *)
  stat : cstat array;  (* per column *)
  up : float array;  (* per-column upper bound in shifted space *)
  d : float array;  (* reduced costs for the current phase *)
  opts : options;
}

(* ---- process-wide pivot accounting: benchmarks read the deltas to
   aggregate across whole branch & bound trees and rate searches.
   Atomic so the placement service's shard domains account
   correctly. ---- *)
let cumulative = Atomic.make 0
let cumulative_pivots () = Atomic.get cumulative
let reset_cumulative_pivots () = Atomic.set cumulative 0

let add_pivots k = if k <> 0 then ignore (Atomic.fetch_and_add cumulative k)

(* Value of column [j] in shifted space. *)
let col_value tab j =
  match tab.stat.(j) with
  | Basic -> tab.beta.(tab.in_row.(j))
  | At_lower -> 0.
  | At_upper -> tab.up.(j)

(* Reduced costs d_j = c_j - sum_i c_basis(i) * T[i][j]. *)
let compute_duals tab (c : float array) =
  Array.blit c 0 tab.d 0 tab.ncols;
  for i = 0 to tab.m - 1 do
    let cb = c.(tab.basis.(i)) in
    if cb <> 0. then begin
      let row = tab.t.(i) in
      let d = tab.d in
      for j = 0 to tab.ncols - 1 do
        d.(j) <- d.(j) -. (cb *. row.(j))
      done
    end
  done

let phase_objective tab (c : float array) =
  let v = ref 0. in
  for j = 0 to tab.ncols - 1 do
    if c.(j) <> 0. then v := !v +. (c.(j) *. col_value tab j)
  done;
  !v

(* Gauss-reduce all rows (and the dual row) against pivot row [r],
   column [j].  [beta] is updated separately by the caller via the
   step formula, so only the matrix and duals change here. *)
let row_reduce tab r j =
  let piv_row = tab.t.(r) in
  let inv = 1. /. piv_row.(j) in
  for k = 0 to tab.ncols - 1 do
    piv_row.(k) <- piv_row.(k) *. inv
  done;
  piv_row.(j) <- 1.;
  for i = 0 to tab.m - 1 do
    if i <> r then begin
      let f = tab.t.(i).(j) in
      if f <> 0. then begin
        let row = tab.t.(i) in
        for k = 0 to tab.ncols - 1 do
          row.(k) <- row.(k) -. (f *. piv_row.(k))
        done;
        row.(j) <- 0.
      end
    end
  done;
  let f = tab.d.(j) in
  if f <> 0. then begin
    for k = 0 to tab.ncols - 1 do
      tab.d.(k) <- tab.d.(k) -. (f *. piv_row.(k))
    done;
    tab.d.(j) <- 0.
  end

type step = Optimal_reached | Unbounded_ray | Budget_exhausted

(* Core bounded-variable primal simplex loop for the current [tab.d].
   [allowed j] filters entering candidates (used to freeze artificial
   columns in phase 2). *)
let iterate tab ~allowed ~pivots_left =
  let opts = tab.opts in
  let degen_run = ref 0 in
  let result = ref None in
  while !result = None do
    if !pivots_left <= 0 then result := Some Budget_exhausted
    else begin
      decr pivots_left;
      let use_bland = !degen_run > opts.degen_window in
      (* --- pricing: pick the entering column --- *)
      let enter = ref (-1) in
      let best = ref 0. in
      (let j = ref 0 in
       while !j < tab.ncols && not (use_bland && !enter >= 0) do
         let jj = !j in
         (if tab.stat.(jj) <> Basic && tab.up.(jj) > opts.feas_tol
             && allowed jj
          then
            let dj = tab.d.(jj) in
            let eligible =
              match tab.stat.(jj) with
              | At_lower -> dj < -.opts.cost_tol
              | At_upper -> dj > opts.cost_tol
              | Basic -> false
            in
            if eligible then
              let score = Float.abs dj in
              if use_bland || score > !best then begin
                best := score;
                enter := jj
              end);
         incr j
       done);
      if !enter < 0 then result := Some Optimal_reached
      else begin
        let j = !enter in
        let sigma = if tab.stat.(j) = At_lower then 1. else -1. in
        (* --- ratio test --- *)
        let tmax = ref tab.up.(j) in
        (* row index achieving the minimum, -1 = bound flip *)
        let leave = ref (-1) in
        let leave_to_upper = ref false in
        let best_alpha = ref 0. in
        for i = 0 to tab.m - 1 do
          let alpha = tab.t.(i).(j) in
          let rate = sigma *. alpha in
          if rate > opts.feas_tol then begin
            (* basic variable decreases towards 0 *)
            let limit = Float.max 0. (tab.beta.(i) /. rate) in
            if
              limit < !tmax -. opts.feas_tol
              || (limit <= !tmax +. opts.feas_tol
                  && !leave >= 0
                  && Float.abs alpha > !best_alpha)
            then begin
              tmax := Float.min limit !tmax;
              leave := i;
              leave_to_upper := false;
              best_alpha := Float.abs alpha
            end
          end
          else if rate < -.opts.feas_tol then begin
            let ub = tab.up.(tab.basis.(i)) in
            if Float.is_finite ub then begin
              (* basic variable increases towards its upper bound *)
              let limit = Float.max 0. ((ub -. tab.beta.(i)) /. -.rate) in
              if
                limit < !tmax -. opts.feas_tol
                || (limit <= !tmax +. opts.feas_tol
                    && !leave >= 0
                    && Float.abs alpha > !best_alpha)
              then begin
                tmax := Float.min limit !tmax;
                leave := i;
                leave_to_upper := true;
                best_alpha := Float.abs alpha
              end
            end
          end
        done;
        if Float.is_finite !tmax then begin
          let t = !tmax in
          let improvement = t *. Float.abs tab.d.(j) in
          if improvement <= opts.cost_tol then incr degen_run
          else degen_run := 0;
          (* apply the step to the basic values *)
          for i = 0 to tab.m - 1 do
            tab.beta.(i) <- tab.beta.(i) -. (sigma *. t *. tab.t.(i).(j))
          done;
          if !leave < 0 then begin
            (* pure bound flip of the entering column *)
            tab.stat.(j) <-
              (if tab.stat.(j) = At_lower then At_upper else At_lower)
          end
          else begin
            let r = !leave in
            let old = tab.basis.(r) in
            tab.stat.(old) <- (if !leave_to_upper then At_upper else At_lower);
            tab.in_row.(old) <- -1;
            let enter_val =
              (if tab.stat.(j) = At_lower then 0. else tab.up.(j))
              +. (sigma *. t)
            in
            tab.basis.(r) <- j;
            tab.in_row.(j) <- r;
            tab.stat.(j) <- Basic;
            row_reduce tab r j;
            tab.beta.(r) <- enter_val
          end
        end
        else result := Some Unbounded_ray
      end
    end
  done;
  match !result with Some s -> s | None -> assert false

(* ---- bounded-variable dual simplex -------------------------------

   Starting from a basis whose reduced costs are (near) dual feasible,
   repair primal infeasibility — basic values outside their bounds —
   one leaving row at a time.  This is what makes warm starts cheap: a
   branch & bound child differs from its parent by a single bound
   change, so the parent's optimal basis stays dual feasible for the
   child and a handful of dual pivots restore primal feasibility,
   replacing a full phase-1/phase-2 cold solve. *)

type dual_step =
  | Dual_feasible_point  (* all basic values inside their bounds *)
  | Primal_infeasible  (* a row certifies the LP infeasible *)
  | Dual_budget
  | Dual_stalled  (* only numerically marginal pivots available *)

let dual_iterate tab ~pivots_left =
  let opts = tab.opts in
  let result = ref None in
  while !result = None do
    if !pivots_left <= 0 then result := Some Dual_budget
    else begin
      (* --- leaving row: the largest bound violation --- *)
      let r = ref (-1) in
      let worst = ref opts.feas_tol in
      let above = ref false in
      for i = 0 to tab.m - 1 do
        let bi = tab.beta.(i) in
        if -.bi > !worst then begin
          worst := -.bi;
          r := i;
          above := false
        end;
        let ub = tab.up.(tab.basis.(i)) in
        if Float.is_finite ub && bi -. ub > !worst then begin
          worst := bi -. ub;
          r := i;
          above := true
        end
      done;
      if !r < 0 then result := Some Dual_feasible_point
      else begin
        decr pivots_left;
        let r = !r and above = !above in
        let row = tab.t.(r) in
        (* --- dual ratio test: entering column minimising |d_j /
           alpha_rj| among sign-compatible movable nonbasic columns,
           so the reduced costs stay dual feasible --- *)
        let enter = ref (-1) in
        let best_ratio = ref infinity in
        let best_mag = ref 0. in
        let marginal = ref false in
        for j = 0 to tab.ncols - 1 do
          if tab.stat.(j) <> Basic && tab.up.(j) > opts.feas_tol then begin
            let a = row.(j) in
            let good_sign =
              match (tab.stat.(j), above) with
              | At_lower, false -> a < 0.
              | At_upper, false -> a > 0.
              | At_lower, true -> a > 0.
              | At_upper, true -> a < 0.
              | Basic, _ -> false
            in
            let mag = Float.abs a in
            if good_sign && mag > 1e-9 then begin
              if mag <= opts.feas_tol then marginal := true
              else begin
                let d = tab.d.(j) in
                let dj =
                  match tab.stat.(j) with
                  | At_lower -> Float.max d 0.
                  | _ -> Float.max (-.d) 0.
                in
                let ratio = dj /. mag in
                if
                  ratio < !best_ratio -. 1e-12
                  || (ratio <= !best_ratio +. 1e-12 && mag > !best_mag)
                then begin
                  best_ratio := ratio;
                  best_mag := mag;
                  enter := j
                end
              end
            end
          end
        done;
        if !enter < 0 then
          (* no column can move the violated basic variable towards its
             bound.  With all candidate entries at machine zero the row
             is a sound infeasibility certificate — unless a marginal
             entry exists, or the violation is within the [feas_tol *
             100] a cold solve accepts (see [violated]): then let the
             caller fall back to a cold solve rather than decide
             feasibility on noise, so a warm start never flips a cold
             verdict. *)
          result :=
            Some
              (if !marginal || !worst <= opts.feas_tol *. 100. then
                 Dual_stalled
               else Primal_infeasible)
        else begin
          let j = !enter in
          let target = if above then tab.up.(tab.basis.(r)) else 0. in
          let delta = (tab.beta.(r) -. target) /. row.(j) in
          for i = 0 to tab.m - 1 do
            tab.beta.(i) <- tab.beta.(i) -. (delta *. tab.t.(i).(j))
          done;
          let old = tab.basis.(r) in
          tab.stat.(old) <- (if above then At_upper else At_lower);
          tab.in_row.(old) <- -1;
          let xj =
            (match tab.stat.(j) with At_upper -> tab.up.(j) | _ -> 0.)
            +. delta
          in
          tab.basis.(r) <- j;
          tab.in_row.(j) <- r;
          tab.stat.(j) <- Basic;
          row_reduce tab r j;
          tab.beta.(r) <- xj
        end
      end
    end
  done;
  match !result with Some s -> s | None -> assert false

(* Degenerate pivot to remove a basic artificial variable sitting at
   zero after phase 1; returns false when the row is redundant. *)
let pivot_out_artificial tab r ~n_real =
  let best = ref (-1) in
  let best_mag = ref 1e-7 in
  for j = 0 to n_real - 1 do
    if tab.stat.(j) <> Basic then begin
      let mag = Float.abs tab.t.(r).(j) in
      if mag > !best_mag then begin
        best_mag := mag;
        best := j
      end
    end
  done;
  if !best < 0 then false
  else begin
    let j = !best in
    let old = tab.basis.(r) in
    tab.stat.(old) <- At_lower;
    tab.in_row.(old) <- -1;
    let v = col_value tab j in
    tab.basis.(r) <- j;
    tab.in_row.(j) <- r;
    tab.stat.(j) <- Basic;
    row_reduce tab r j;
    tab.beta.(r) <- v;
    true
  end

(* Fresh tableau over the all-artificial basis with beta = rhs; the
   shared starting point of both cold solves and warm refactorisation. *)
let build problem ~options ~lo ~hi ~n ~n_slack =
  let constrs = Problem.constrs problem in
  let m = Array.length constrs in
  let ncols = n + n_slack + m in
  let t = Array.init m (fun _ -> Array.make ncols 0.) in
  let beta = Array.make m 0. in
  let up = Array.make ncols infinity in
  for j = 0 to n - 1 do
    up.(j) <- Float.max 0. (hi.(j) -. lo.(j))
  done;
  (* fill rows; shift structural variables by their lower bound *)
  let slack_idx = ref n in
  Array.iteri
    (fun i (c : Problem.constr) ->
      let row = t.(i) in
      List.iter (fun (v, coef) -> row.(v) <- row.(v) +. coef) c.terms;
      let rhs = ref c.rhs in
      for j = 0 to n - 1 do
        if row.(j) <> 0. then rhs := !rhs -. (row.(j) *. lo.(j))
      done;
      (match c.sense with
      | Le ->
          row.(!slack_idx) <- 1.;
          incr slack_idx
      | Ge ->
          row.(!slack_idx) <- -1.;
          incr slack_idx
      | Eq -> ());
      (* row equilibration: normalise by the largest coefficient so
         mixed-magnitude models stay well conditioned *)
      let norm = ref 0. in
      for k = 0 to ncols - 1 do
        norm := Float.max !norm (Float.abs row.(k))
      done;
      if !norm > 0. && (!norm > 16. || !norm < 1. /. 16.) then begin
        let inv = 1. /. !norm in
        for k = 0 to ncols - 1 do
          row.(k) <- row.(k) *. inv
        done;
        rhs := !rhs *. inv
      end;
      if !rhs < 0. then begin
        for k = 0 to ncols - 1 do
          row.(k) <- -.row.(k)
        done;
        rhs := -. !rhs
      end;
      (* artificial column for this row *)
      row.(n + n_slack + i) <- 1.;
      beta.(i) <- !rhs)
    constrs;
  let basis = Array.init m (fun i -> n + n_slack + i) in
  let in_row = Array.make ncols (-1) in
  Array.iteri (fun i b -> in_row.(b) <- i) basis;
  let stat = Array.make ncols At_lower in
  Array.iter (fun b -> stat.(b) <- Basic) basis;
  { m; ncols; n; t; beta; basis; in_row; stat; up; d = Array.make ncols 0.;
    opts = options }

let snapshot tab =
  { Basis.rows = Array.copy tab.basis; stat = Array.copy tab.stat }

(* Restore a recorded basis into a freshly built tableau: Gauss-Jordan
   eliminate each recorded basic column (carrying the rhs in [beta]),
   then shift the rhs by the nonbasic-at-upper-bound columns.  Returns
   false when the recorded basis is singular for the current
   coefficients (caller falls back to a cold solve). *)
let install_basis tab (b : Basis.t) =
  for j = 0 to tab.ncols - 1 do
    tab.in_row.(j) <- -1;
    tab.stat.(j) <-
      (match b.Basis.stat.(j) with
      | Basis.At_upper when Float.is_finite tab.up.(j) -> At_upper
      | _ -> At_lower)
  done;
  let assigned = Array.make tab.m false in
  let ok = ref true in
  Array.iter
    (fun j ->
      if !ok then begin
        (* the unassigned row with the largest pivot in column j *)
        let r = ref (-1) in
        let mag = ref 1e-8 in
        for i = 0 to tab.m - 1 do
          if not assigned.(i) then begin
            let a = Float.abs tab.t.(i).(j) in
            if a > !mag then begin
              mag := a;
              r := i
            end
          end
        done;
        if !r < 0 then ok := false
        else begin
          let r = !r in
          let piv = tab.t.(r) in
          let inv = 1. /. piv.(j) in
          for k = 0 to tab.ncols - 1 do
            piv.(k) <- piv.(k) *. inv
          done;
          piv.(j) <- 1.;
          tab.beta.(r) <- tab.beta.(r) *. inv;
          for i = 0 to tab.m - 1 do
            if i <> r then begin
              let f = tab.t.(i).(j) in
              if f <> 0. then begin
                let row = tab.t.(i) in
                for k = 0 to tab.ncols - 1 do
                  row.(k) <- row.(k) -. (f *. piv.(k))
                done;
                row.(j) <- 0.;
                tab.beta.(i) <- tab.beta.(i) -. (f *. tab.beta.(r))
              end
            end
          done;
          assigned.(r) <- true;
          tab.basis.(r) <- j;
          tab.in_row.(j) <- r;
          tab.stat.(j) <- Basic
        end
      end)
    b.Basis.rows;
  if !ok then begin
    (* beta is now B^-1 rhs; account for nonbasic columns resting at
       their upper bound *)
    for j = 0 to tab.ncols - 1 do
      if tab.stat.(j) = At_upper then begin
        let u = tab.up.(j) in
        if u <> 0. then
          for i = 0 to tab.m - 1 do
            tab.beta.(i) <- tab.beta.(i) -. (tab.t.(i).(j) *. u)
          done
      end
    done;
    true
  end
  else false

type result = {
  status : Solution.status;
  basis : Basis.t option;
  pivots : int;
  warm_used : bool;
}

let solve_warm ?(options = default_options) ?warm ?lo ?hi problem =
  let n = Problem.n_vars problem in
  let vars = Problem.vars problem in
  let constrs = Problem.constrs problem in
  let m = Array.length constrs in
  let lo =
    match lo with
    | Some a ->
        if Array.length a <> n then
          invalid_arg "Simplex.solve: lo override has wrong length";
        a
    | None -> Array.map (fun (v : Problem.var_info) -> v.lo) vars
  in
  let hi =
    match hi with
    | Some a ->
        if Array.length a <> n then
          invalid_arg "Simplex.solve: hi override has wrong length";
        a
    | None -> Array.map (fun (v : Problem.var_info) -> v.hi) vars
  in
  let bound_conflict = ref false in
  for j = 0 to n - 1 do
    if lo.(j) > hi.(j) +. options.feas_tol then bound_conflict := true
  done;
  if !bound_conflict then
    { status = Solution.Infeasible; basis = None; pivots = 0;
      warm_used = false }
  else begin
    let n_slack =
      Array.fold_left
        (fun acc (c : Problem.constr) ->
          match c.sense with Le | Ge -> acc + 1 | Eq -> acc)
        0 constrs
    in
    let ncols = n + n_slack + m in
    let n_real = n + n_slack in
    let minimize = Problem.direction problem = Problem.Minimize in
    (* phase-2 cost vector, shared by the cold and warm paths *)
    let c2 = Array.make ncols 0. in
    let offset = ref 0. in
    List.iter
      (fun (v, coef) ->
        let coef = if minimize then coef else -.coef in
        c2.(v) <- c2.(v) +. coef;
        offset := !offset +. (coef *. lo.(v)))
      (Problem.objective problem);
    let pivots_left = ref options.max_pivots in
    let spent () = options.max_pivots - !pivots_left in
    (* feasibility judged by the actual violation of each original
       constraint, with a tolerance that grows mildly with the
       right-hand-side magnitude (rounding accumulates in absolute
       terms). *)
    let violated tab =
      let x_now = Array.init n (fun j -> lo.(j) +. col_value tab j) in
      Array.exists
        (fun (c : Problem.constr) ->
          let lhs =
            List.fold_left
              (fun acc (v, coef) -> acc +. (coef *. x_now.(v)))
              0. c.terms
          in
          let viol =
            match c.sense with
            | Problem.Le -> lhs -. c.rhs
            | Problem.Ge -> c.rhs -. lhs
            | Problem.Eq -> Float.abs (lhs -. c.rhs)
          in
          let tol =
            options.feas_tol *. 100. *. (1. +. (1e-6 *. Float.abs c.rhs))
          in
          viol > tol)
        constrs
    in
    let extract tab =
      let x = Array.make n 0. in
      for j = 0 to n - 1 do
        x.(j) <- lo.(j) +. col_value tab j
      done;
      let obj = phase_objective tab c2 +. !offset in
      let obj = if minimize then obj else -.obj in
      Solution.Optimal { Solution.x; objective = obj }
    in
    let fresh () = build problem ~options ~lo ~hi ~n ~n_slack in
    (* ---- warm path: refactorise a basis snapshot, repair primal
       infeasibility with the dual simplex, mop up with a primal pass,
       then accept only if the point truly satisfies the original
       constraints; [None] falls back to the cold solve ---- *)
    let try_warm b =
      if not (Basis.compatible b ~rows:m ~cols:ncols) then None
      else begin
        let tab = fresh () in
        for j = n_real to ncols - 1 do
          tab.up.(j) <- 0.
        done;
        if not (install_basis tab b) then None
        else begin
          compute_duals tab c2;
          match dual_iterate tab ~pivots_left with
          | Dual_budget -> Some (Solution.Iteration_limit, None)
          | Primal_infeasible -> Some (Solution.Infeasible, None)
          | Dual_stalled -> None
          | Dual_feasible_point -> (
              match
                iterate tab ~allowed:(fun j -> j < n_real) ~pivots_left
              with
              | Budget_exhausted -> Some (Solution.Iteration_limit, None)
              | Unbounded_ray -> Some (Solution.Unbounded, None)
              | Optimal_reached ->
                  (* numerical drift through the warm path; retry cold *)
                  if violated tab then None
                  else Some (extract tab, Some (snapshot tab)))
        end
      end
    in
    (* ---- cold path: two-phase primal from the artificial basis ---- *)
    let cold () =
      let tab = fresh () in
      let c1 = Array.make ncols 0. in
      for j = n_real to ncols - 1 do
        c1.(j) <- 1.
      done;
      compute_duals tab c1;
      match iterate tab ~allowed:(fun _ -> true) ~pivots_left with
      | Budget_exhausted -> (Solution.Iteration_limit, None)
      | Unbounded_ray ->
          (* cannot happen: the phase-1 objective is bounded below *)
          (Solution.Infeasible, None)
      | Optimal_reached ->
          if violated tab then (Solution.Infeasible, None)
          else begin
            (* remove artificials from the basis where possible *)
            for i = 0 to m - 1 do
              if tab.basis.(i) >= n_real then
                ignore (pivot_out_artificial tab i ~n_real)
            done;
            for j = n_real to ncols - 1 do
              tab.up.(j) <- 0.
            done;
            compute_duals tab c2;
            match iterate tab ~allowed:(fun j -> j < n_real) ~pivots_left with
            | Budget_exhausted -> (Solution.Iteration_limit, None)
            | Unbounded_ray -> (Solution.Unbounded, None)
            | Optimal_reached -> (extract tab, Some (snapshot tab))
          end
    in
    (* fallback ladder: basis snapshot -> cold *)
    let (status, basis), warm_used =
      match Option.bind warm try_warm with
      | Some r -> (r, true)
      | None -> (cold (), false)
    in
    add_pivots (spent ());
    { status; basis; pivots = spent (); warm_used }
  end

let solve ?options ?lo ?hi problem =
  (solve_warm ?options ?lo ?hi problem).status
