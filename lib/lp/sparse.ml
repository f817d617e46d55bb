(* Sparse revised simplex.  See sparse.mli for the contract; the
   solve semantics deliberately mirror simplex.ml line for line where
   they overlap (column layout, equilibration, tolerances, pricing
   eligibility, ratio-test tie-breaking) so that the two solvers agree
   on which bases are optimal and a dense basis warm-starts this
   engine. *)

type cstat = Basis.cstat = At_lower | At_upper | Basic

(* ---- compiled problem: CSC over the dense solver's column layout --- *)

type data = {
  problem : Problem.t;
  n : int;  (* structural columns *)
  n_slack : int;
  m : int;  (* rows *)
  n_real : int;  (* n + n_slack *)
  ncols : int;  (* n + n_slack + m: artificials are real CSC columns *)
  ptr : int array;  (* ncols + 1 *)
  idx : int array;
  vs : float array;  (* row-equilibrated values, same scales as dense *)
  rhs0 : float array;  (* equilibrated rhs, before the lower-bound shift *)
  cobj : float array;  (* structural costs in minimize space, length n *)
  minimize : bool;
  constrs : Problem.constr array;  (* original rows: sense and rhs *)
  c_vars : int array array;  (* per-row term variables, list order *)
  c_coefs : float array array;  (* per-row term coefficients, list order *)
}

let of_problem problem =
  let vars = Problem.vars problem in
  let n = Array.length vars in
  let constrs = Problem.constrs problem in
  let m = Array.length constrs in
  let n_slack = ref 0 and n_terms = ref 0 in
  Array.iter
    (fun (c : Problem.constr) ->
      if c.sense <> Eq then incr n_slack;
      n_terms := !n_terms + List.length c.terms)
    constrs;
  let n_slack = !n_slack in
  let n_real = n + n_slack in
  let ncols = n_real + m in
  (* Pass 1 over the rows: sum duplicate terms and equilibrate, exactly
     as the dense row fill does, keep each row's nonzero structural
     entries (row-major: row i's at [rptr.(i)] up to [rptr.(i + 1)],
     at most one per column) and count every column's entries in
     [ptr.(j + 1)]. *)
  let rptr = Array.make (m + 1) 0 in
  let rcol = Array.make (Int.max 1 !n_terms) 0 in
  let rval = Array.make (Int.max 1 !n_terms) 0. in
  let slack_val = Array.make m 0. in
  let ptr = Array.make (ncols + 1) 0 in
  let rhs0 = Array.make m 0. in
  let acc = Array.make (Int.max 1 n) 0. in
  let stamp = Array.make (Int.max 1 n) (-1) in
  let touched = Array.make (Int.max 1 n) 0 in
  let nz = ref 0 and slack_idx = ref n in
  Array.iteri
    (fun i (c : Problem.constr) ->
      let n_touched = ref 0 in
      List.iter
        (fun (v, coef) ->
          if stamp.(v) <> i then begin
            stamp.(v) <- i;
            acc.(v) <- 0.;
            touched.(!n_touched) <- v;
            incr n_touched
          end;
          acc.(v) <- acc.(v) +. coef)
        c.terms;
      (* row equilibration: same norm and threshold as the dense
         build (slack included, artificial not) *)
      let norm = ref 0. in
      for t = 0 to !n_touched - 1 do
        norm := Float.max !norm (Float.abs acc.(touched.(t)))
      done;
      if c.sense <> Eq then norm := Float.max !norm 1.;
      let scale =
        if !norm > 0. && (!norm > 16. || !norm < 1. /. 16.) then 1. /. !norm
        else 1.
      in
      for t = 0 to !n_touched - 1 do
        let v = touched.(t) in
        let a = acc.(v) *. scale in
        if a <> 0. then begin
          rcol.(!nz) <- v;
          rval.(!nz) <- a;
          incr nz;
          ptr.(v + 1) <- ptr.(v + 1) + 1
        end
      done;
      rptr.(i + 1) <- !nz;
      if c.sense <> Eq then begin
        slack_val.(i) <- (if c.sense = Le then scale else -.scale);
        ptr.(!slack_idx + 1) <- 1;
        incr slack_idx
      end;
      ptr.(n_real + i + 1) <- 1;
      rhs0.(i) <- c.rhs *. scale)
    constrs;
  for j = 0 to ncols - 1 do
    ptr.(j + 1) <- ptr.(j) + ptr.(j + 1)
  done;
  (* Pass 2 over the rows, in order: each column receives its entries
     in increasing row order *)
  let nnz = ptr.(ncols) in
  let idx = Array.make (Int.max 1 nnz) 0 in
  let vs = Array.make (Int.max 1 nnz) 0. in
  let next = Array.sub ptr 0 ncols in
  let put j i a =
    let p = next.(j) in
    next.(j) <- p + 1;
    idx.(p) <- i;
    vs.(p) <- a
  in
  let slack_idx = ref n in
  for i = 0 to m - 1 do
    for t = rptr.(i) to rptr.(i + 1) - 1 do
      put rcol.(t) i rval.(t)
    done;
    if constrs.(i).sense <> Eq then begin
      put !slack_idx i slack_val.(i);
      incr slack_idx
    end;
    put (n_real + i) i 1.
  done;
  let minimize = Problem.direction problem = Problem.Minimize in
  let cobj = Array.make (Int.max 1 n) 0. in
  List.iter
    (fun (v, coef) ->
      cobj.(v) <- cobj.(v) +. (if minimize then coef else -.coef))
    (Problem.objective problem);
  (* de-boxed copies of the constraint terms, in list order, for the
     post-solve feasibility verification: same arithmetic as folding
     the boxed lists, without chasing cons cells on every solve *)
  let c_vars =
    Array.map
      (fun (c : Problem.constr) ->
        let a = Array.make (List.length c.terms) 0 in
        List.iteri (fun t (v, _) -> a.(t) <- v) c.terms;
        a)
      constrs
  in
  let c_coefs =
    Array.map
      (fun (c : Problem.constr) ->
        let a = Array.make (List.length c.terms) 0. in
        List.iteri (fun t (_, coef) -> a.(t) <- coef) c.terms;
        a)
      constrs
  in
  { problem; n; n_slack; m; n_real; ncols; ptr; idx; vs; rhs0; cobj; minimize;
    constrs; c_vars; c_coefs }

(* ---- per-solve state ---------------------------------------------- *)

(* Raised whenever the sparse path cannot be trusted (singular
   refactorisation mid-solve, pivot value disagreeing with its BTRAN
   image, post-solve feasibility breach): the caller retries a colder
   path, ultimately the dense solver. *)
exception Decline

type state = {
  d : data;
  mutable opts : Simplex.options;
  wlo : float array;  (* working bounds per column, shifted space *)
  wup : float array;
  stat : cstat array;
  basis : int array;  (* slot -> column *)
  in_row : int array;  (* column -> slot, -1 when nonbasic *)
  beta : float array;  (* basic values per slot *)
  y : float array;  (* duals for the current [cost] and basis *)
  cost : float array;  (* current phase cost per column *)
  rhs : float array;  (* equilibrated rhs after the lower-bound shift *)
  f : Factor.t;
  w : float array;  (* FTRAN scratch *)
  rho : float array;  (* BTRAN scratch (dual row) *)
  dw : float array;  (* devex reference-framework weights per column *)
  x : float array;  (* structural point lo + value, filled by [violated] *)
  mutable pivots_left : int ref;
}

(* A session keeps one solve state (shifted rhs included) and a factor
   snapshot alive across warm solves of the same compiled problem, so
   a sequence of warm-started solves (the branch & bound hot loop)
   allocates only the point and basis it returns — and pays no
   refactorisation at all when the requested warm basis is the one
   already snapshotted, as happens for the second child of every
   branch node.  Single-domain use only. *)
type session = {
  sd : data;
  sstate : state;
  snap : Factor.snapshot;
  snap_basis : int array;  (* slot order fixed by the snapshot *)
  snap_mark : bool array;  (* column membership of snap_basis *)
  mutable snap_valid : bool;
}

(* ---- process-wide solver counters (benchmarks / verbose CLI) ---- *)

type counters = {
  pivots : int;
  refactorisations : int;
  ft_updates : int;
  ft_entries : int;
}

let pivot_count = Atomic.make 0
let refactor_count = Atomic.make 0
let ft_update_count = Atomic.make 0
let ft_entry_count = Atomic.make 0

let counters () =
  {
    pivots = Atomic.get pivot_count;
    refactorisations = Atomic.get refactor_count;
    ft_updates = Atomic.get ft_update_count;
    ft_entries = Atomic.get ft_entry_count;
  }

(* inlined so the point pass in [solve_warm] boxes no float per column *)
let[@inline] col_value st j =
  match st.stat.(j) with
  | Basic -> st.beta.(st.in_row.(j))
  | At_lower -> st.wlo.(j)
  | At_upper -> st.wup.(j)

let movable st j =
  st.stat.(j) <> Basic && st.wup.(j) -. st.wlo.(j) > st.opts.feas_tol

(* beta = B^-1 (rhs - sum_{nonbasic j} A_j * rest_j) *)
let compute_beta st =
  let d = st.d in
  Array.blit st.rhs 0 st.beta 0 d.m;
  for j = 0 to d.ncols - 1 do
    if st.stat.(j) <> Basic then begin
      let v = match st.stat.(j) with At_upper -> st.wup.(j) | _ -> st.wlo.(j) in
      if v <> 0. then
        for p = d.ptr.(j) to d.ptr.(j + 1) - 1 do
          st.beta.(d.idx.(p)) <- st.beta.(d.idx.(p)) -. (d.vs.(p) *. v)
        done
    end
  done;
  Factor.ftran st.f st.beta

(* y = B^-T c_B *)
let compute_y st =
  for r = 0 to st.d.m - 1 do
    st.y.(r) <- st.cost.(st.basis.(r))
  done;
  Factor.btran st.f st.y

(* Reduced cost of column [j] under the maintained duals. *)
let price st j =
  let d = st.d in
  let s = ref st.cost.(j) in
  for p = d.ptr.(j) to d.ptr.(j + 1) - 1 do
    s := !s -. (st.y.(d.idx.(p)) *. d.vs.(p))
  done;
  !s

let rebuild_in_row st =
  Array.fill st.in_row 0 st.d.ncols (-1);
  for r = 0 to st.d.m - 1 do
    st.in_row.(st.basis.(r)) <- r
  done

(* Full refresh: refactorise the current basis and recompute the
   derived state.  Raises [Decline] when the basis has gone singular. *)
let refresh st =
  Atomic.incr refactor_count;
  if not (Factor.factorize st.f ~basis:st.basis ~ptr:st.d.ptr ~idx:st.d.idx ~vs:st.d.vs)
  then raise Decline;
  rebuild_in_row st;
  compute_beta st;
  compute_y st

(* FTRAN of column [j] into the scratch [st.w]. *)
let ftran_col st j =
  let d = st.d in
  Array.fill st.w 0 d.m 0.;
  for p = d.ptr.(j) to d.ptr.(j + 1) - 1 do
    st.w.(d.idx.(p)) <- d.vs.(p)
  done;
  Factor.ftran st.f st.w

(* Replace the basic variable of slot [r] by column [j] whose FTRAN
   image is in [st.w]; [leaving_stat] is where the old variable rests.
   [enter_val] is the new basic value of [j].  Shared by the primal
   and dual pivots.  [y_done] means the caller already updated the
   duals incrementally (devex pivots); otherwise they are recomputed
   exactly.  Returns [true] when a stability-triggered refresh ran —
   after which every derived quantity is exact again. *)
let pivot st ~r ~j ~leaving_stat ~enter_val ~y_done =
  let old = st.basis.(r) in
  st.stat.(old) <- leaving_stat;
  st.in_row.(old) <- -1;
  st.basis.(r) <- j;
  st.in_row.(j) <- r;
  st.stat.(j) <- Basic;
  let e0 = Factor.ft_entries st.f in
  Factor.update st.f ~w:st.w ~r;
  Atomic.incr ft_update_count;
  let e1 = Factor.ft_entries st.f in
  if e1 > e0 then ignore (Atomic.fetch_and_add ft_entry_count (e1 - e0));
  st.beta.(r) <- enter_val;
  if Factor.needs_refresh st.f then begin
    refresh st;
    true
  end
  else begin
    if not y_done then compute_y st;
    false
  end

(* ---- primal simplex with devex pricing ---------------------------- *)

type step = Optimal_reached | Unbounded_ray | Budget_exhausted

(* Only columns below [limit] may enter: [d.ncols] in phase 1,
   [d.n_real] (no artificials) otherwise. *)
let primal st ~limit =
  let opts = st.opts in
  let d = st.d in
  let ncols = st.d.ncols in
  (* fresh reference framework per primal phase *)
  Array.fill st.dw 0 ncols 1.;
  (* exact duals invariant: true whenever [st.y] was last set by
     [compute_y] / [refresh]; devex lets it drift between pivots and
     restores it before trusting an "optimal" verdict.  A preceding
     dual phase may already have left drift, so start dirty. *)
  let y_exact = ref false in
  let degen_run = ref 0 in
  let result = ref None in
  let eligible j dj =
    match st.stat.(j) with
    | At_lower -> dj < -.opts.cost_tol
    | At_upper -> dj > opts.cost_tol
    | Basic -> false
  in
  (* Devex: steepest scaled reduced cost d_j^2 / w_j over the
     reference-framework weights; one full pricing pass per pivot
     (the matrix averages a couple of nonzeros per column). *)
  let devex_scan () =
    let enter = ref (-1) in
    let best = ref 0. in
    for j = 0 to limit - 1 do
      if movable st j then begin
        let dj = price st j in
        if eligible j dj then begin
          let score = dj *. dj /. st.dw.(j) in
          if score > !best then begin
            best := score;
            enter := j
          end
        end
      end
    done;
    !enter
  in
  (* Bland's rule: lowest-index eligible column, exactly as the dense
     loop degrades after [degen_window] non-improving pivots *)
  let bland_scan () =
    let enter = ref (-1) in
    let j = ref 0 in
    while !j < limit && !enter < 0 do
      let jj = !j in
      if movable st jj && eligible jj (price st jj) then
        enter := jj;
      incr j
    done;
    !enter
  in
  while !result = None do
    if !(st.pivots_left) <= 0 then result := Some Budget_exhausted
    else begin
      decr st.pivots_left;
      let use_bland = !degen_run > opts.degen_window in
      let enter =
        if use_bland then begin
          (* Bland's rule takes the first eligible sign: it needs
             exact reduced costs, not drifted ones *)
          if not !y_exact then begin
            compute_y st;
            y_exact := true
          end;
          bland_scan ()
        end
        else begin
          let e = devex_scan () in
          if e >= 0 || !y_exact then e
          else begin
            (* no eligible column under drifted duals: recompute
               exactly and rescan before declaring optimality *)
            compute_y st;
            y_exact := true;
            devex_scan ()
          end
        end
      in
      if enter < 0 then result := Some Optimal_reached
      else begin
        let j = enter in
        let dj = price st j in
        let sigma = if st.stat.(j) = At_lower then 1. else -1. in
        ftran_col st j;
        let w = st.w in
        (* --- ratio test: identical limits and tie-breaks to dense --- *)
        let tmax = ref (st.wup.(j) -. st.wlo.(j)) in
        let leave = ref (-1) in
        let leave_to_upper = ref false in
        let best_alpha = ref 0. in
        for i = 0 to st.d.m - 1 do
          let alpha = w.(i) in
          let rate = sigma *. alpha in
          if rate > opts.feas_tol then begin
            (* basic variable decreases towards its lower bound *)
            let bi = st.basis.(i) in
            let limit = Float.max 0. ((st.beta.(i) -. st.wlo.(bi)) /. rate) in
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
            let bi = st.basis.(i) in
            let ub = st.wup.(bi) in
            if Float.is_finite ub then begin
              (* basic variable increases towards its upper bound *)
              let limit = Float.max 0. ((ub -. st.beta.(i)) /. -.rate) in
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
          let improvement = t *. Float.abs dj in
          if improvement <= opts.cost_tol then incr degen_run
          else degen_run := 0;
          for i = 0 to st.d.m - 1 do
            st.beta.(i) <- st.beta.(i) -. (sigma *. t *. w.(i))
          done;
          if !leave < 0 then
            st.stat.(j) <-
              (if st.stat.(j) = At_lower then At_upper else At_lower)
          else begin
            let r = !leave in
            let enter_val =
              (if st.stat.(j) = At_lower then st.wlo.(j) else st.wup.(j))
              +. (sigma *. t)
            in
            let leaving_stat = if !leave_to_upper then At_upper else At_lower in
            if not use_bland then begin
              (* one BTRAN of e_r yields the pivot row, which feeds
                 both the reference-framework weight update and the
                 incremental dual update, so devex costs no BTRAN of
                 c_B per pivot *)
              Array.fill st.rho 0 d.m 0.;
              st.rho.(r) <- 1.;
              Factor.btran st.f st.rho;
              let arq = ref 0. in
              for p = d.ptr.(j) to d.ptr.(j + 1) - 1 do
                arq := !arq +. (st.rho.(d.idx.(p)) *. d.vs.(p))
              done;
              (* the row image of the entering column must agree with
                 its FTRAN image: a Forrest-Tomlin file gone stale
                 declines to a colder path rather than pivot on noise *)
              if
                Float.abs (st.w.(r) -. !arq)
                > 1e-6 *. (1. +. Float.abs !arq)
              then raise Decline;
              let arq = st.w.(r) in
              let wq = Float.max st.dw.(j) 1. in
              let old_basic = st.basis.(r) in
              for j' = 0 to ncols - 1 do
                if st.stat.(j') <> Basic && j' <> j then begin
                  let a = ref 0. in
                  for p = d.ptr.(j') to d.ptr.(j' + 1) - 1 do
                    a := !a +. (st.rho.(d.idx.(p)) *. d.vs.(p))
                  done;
                  if !a <> 0. then begin
                    let ratio = !a /. arq in
                    let cand_w = ratio *. ratio *. wq in
                    if cand_w > st.dw.(j') then st.dw.(j') <- cand_w
                  end
                end
              done;
              st.dw.(old_basic) <- Float.max (wq /. (arq *. arq)) 1.;
              let ty = dj /. arq in
              for i = 0 to d.m - 1 do
                st.y.(i) <- st.y.(i) +. (ty *. st.rho.(i))
              done;
              let refreshed =
                pivot st ~r ~j ~leaving_stat ~enter_val ~y_done:true
              in
              y_exact := refreshed
            end
            else begin
              ignore (pivot st ~r ~j ~leaving_stat ~enter_val ~y_done:false);
              y_exact := true
            end
          end
        end
        else result := Some Unbounded_ray
      end
    end
  done;
  match !result with Some s -> s | None -> assert false

(* ---- bounded-variable dual simplex -------------------------------- *)

type dual_step =
  | Dual_feasible_point
  | Primal_infeasible
  | Dual_budget
  | Dual_stalled

let dual st =
  let opts = st.opts in
  let d = st.d in
  let result = ref None in
  while !result = None do
    if !(st.pivots_left) <= 0 then result := Some Dual_budget
    else begin
      (* --- leaving row: the largest bound violation --- *)
      let r = ref (-1) in
      let worst = ref opts.feas_tol in
      let above = ref false in
      for i = 0 to d.m - 1 do
        let bi = st.basis.(i) in
        let below_by = st.wlo.(bi) -. st.beta.(i) in
        if below_by > !worst then begin
          worst := below_by;
          r := i;
          above := false
        end;
        let ub = st.wup.(bi) in
        if Float.is_finite ub && st.beta.(i) -. ub > !worst then begin
          worst := st.beta.(i) -. ub;
          r := i;
          above := true
        end
      done;
      if !r < 0 then result := Some Dual_feasible_point
      else begin
        decr st.pivots_left;
        let r = !r and above = !above in
        (* dual row: rho = B^-T e_r, alpha_rj = rho . A_j on demand *)
        Array.fill st.rho 0 d.m 0.;
        st.rho.(r) <- 1.;
        Factor.btran st.f st.rho;
        let enter = ref (-1) in
        let enter_alpha = ref 0. in
        let enter_dc = ref 0. in
        let best_ratio = ref infinity in
        let best_mag = ref 0. in
        let marginal = ref false in
        for j = 0 to d.ncols - 1 do
          if movable st j then begin
            let a = ref 0. in
            for p = d.ptr.(j) to d.ptr.(j + 1) - 1 do
              a := !a +. (st.rho.(d.idx.(p)) *. d.vs.(p))
            done;
            let a = !a in
            let good_sign =
              match (st.stat.(j), above) with
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
                let dc = price st j in
                let dj =
                  match st.stat.(j) with
                  | At_lower -> Float.max dc 0.
                  | _ -> Float.max (-.dc) 0.
                in
                let ratio = dj /. mag in
                if
                  ratio < !best_ratio -. 1e-12
                  || (ratio <= !best_ratio +. 1e-12 && mag > !best_mag)
                then begin
                  best_ratio := ratio;
                  best_mag := mag;
                  enter := j;
                  enter_alpha := a;
                  enter_dc := dc
                end
              end
            end
          end
        done;
        if !enter < 0 then
          (* no column can move the violated basic variable towards its
             bound.  With all candidate entries at machine zero the row
             is a sound infeasibility certificate, unless a marginal
             entry exists or the violation is within the [feas_tol *
             100] a cold solve accepts (see [violated]): then stall to
             a cold solve rather than decide feasibility on noise, so a
             warm start never flips a cold verdict *)
          result :=
            Some
              (if !marginal || !worst <= opts.feas_tol *. 100. then
                 Dual_stalled
               else Primal_infeasible)
        else begin
          let j = !enter in
          ftran_col st j;
          (* the FTRAN image must agree with the BTRAN row value; a
             disagreement means the eta file has drifted — decline
             rather than pivot on noise *)
          if
            Float.abs st.w.(r) <= 0.5 *. opts.feas_tol
            || Float.abs (st.w.(r) -. !enter_alpha)
               > 1e-6 *. (1. +. Float.abs !enter_alpha)
          then raise Decline;
          let bi = st.basis.(r) in
          let target = if above then st.wup.(bi) else st.wlo.(bi) in
          let delta = (st.beta.(r) -. target) /. st.w.(r) in
          for i = 0 to d.m - 1 do
            st.beta.(i) <- st.beta.(i) -. (delta *. st.w.(i))
          done;
          let enter_val =
            (match st.stat.(j) with At_upper -> st.wup.(j) | _ -> st.wlo.(j))
            +. delta
          in
          let leaving_stat = if above then At_upper else At_lower in
          (* [st.rho] still holds B^-T e_r: update the duals
             incrementally instead of paying a BTRAN of c_B.  Any drift
             only shifts which dual pivot is preferred; the endpoint is
             re-verified by the primal cleanup pass. *)
          let ty = !enter_dc /. st.w.(r) in
          for i = 0 to d.m - 1 do
            st.y.(i) <- st.y.(i) +. (ty *. st.rho.(i))
          done;
          ignore (pivot st ~r ~j ~leaving_stat ~enter_val ~y_done:true)
        end
      end
    end
  done;
  match !result with Some s -> s | None -> assert false

(* ---- solve driver -------------------------------------------------- *)

let fallbacks = Atomic.make 0
let dense_fallbacks () = Atomic.get fallbacks

let make_state d ~rhs =
  {
    d;
    opts = Simplex.default_options;
    wlo = Array.make d.ncols 0.;
    wup = Array.make d.ncols infinity;
    stat = Array.make d.ncols At_lower;
    basis = Array.init d.m (fun i -> d.n_real + i);
    in_row = Array.make d.ncols (-1);
    beta = Array.make d.m 0.;
    y = Array.make d.m 0.;
    cost = Array.make d.ncols 0.;
    rhs;
    f = Factor.create ~m:d.m;
    w = Array.make d.m 0.;
    rho = Array.make d.m 0.;
    dw = Array.make d.ncols 1.;
    x = Array.make d.n 0.;
    pivots_left = ref 0;
  }

let session d =
  {
    sd = d;
    sstate = make_state d ~rhs:(Array.make d.m 0.);
    snap = Factor.snapshot_create ~m:d.m;
    snap_basis = Array.make (Int.max 1 d.m) 0;
    snap_mark = Array.make d.ncols false;
    snap_valid = false;
  }

let solve_warm ?(options = Simplex.default_options) ?warm ?lo ?hi ?session data
    =
  let d = data in
  let ses =
    match session with
    | Some s ->
        if s.sd != d then
          invalid_arg "Sparse.solve_warm: session built for another problem";
        Some s
    | None -> None
  in
  let n = d.n in
  let vars = Problem.vars d.problem in
  let lo =
    match lo with
    | Some a ->
        if Array.length a <> n then
          invalid_arg "Sparse.solve_warm: lo override has wrong length";
        a
    | None -> Array.map (fun (v : Problem.var_info) -> v.lo) vars
  in
  let hi =
    match hi with
    | Some a ->
        if Array.length a <> n then
          invalid_arg "Sparse.solve_warm: hi override has wrong length";
        a
    | None -> Array.map (fun (v : Problem.var_info) -> v.hi) vars
  in
  let bound_conflict = ref false in
  for j = 0 to n - 1 do
    if lo.(j) > hi.(j) +. options.feas_tol then bound_conflict := true
  done;
  if !bound_conflict then
    { Simplex.status = Solution.Infeasible; basis = None; pivots = 0;
      warm_used = false }
  else begin
    let pivots_left = ref options.max_pivots in
    let spent () = options.max_pivots - !pivots_left in
    (* shifted rhs for the current lower bounds, in the session's
       buffer when there is one *)
    let rhs =
      match ses with Some s -> s.sstate.rhs | None -> Array.make d.m 0.
    in
    Array.blit d.rhs0 0 rhs 0 d.m;
    for j = 0 to n - 1 do
      if lo.(j) <> 0. then
        for p = d.ptr.(j) to d.ptr.(j + 1) - 1 do
          rhs.(d.idx.(p)) <- rhs.(d.idx.(p)) -. (d.vs.(p) *. lo.(j))
        done
    done;
    (* set a fresh or pooled state up for this solve's bounds and
       budget; artificials default to fixed-at-zero, and the cold path
       widens them for phase 1 *)
    let prepare st =
      st.opts <- options;
      st.pivots_left <- pivots_left;
      for j = 0 to n - 1 do
        st.wlo.(j) <- 0.;
        st.wup.(j) <- Float.max 0. (hi.(j) -. lo.(j))
      done;
      for j = n to d.ncols - 1 do
        st.wlo.(j) <- 0.;
        st.wup.(j) <- (if j >= d.n_real then 0. else infinity)
      done;
      st
    in
    let set_phase2_cost st =
      Array.fill st.cost 0 d.ncols 0.;
      Array.blit d.cobj 0 st.cost 0 n
    in
    (* same check as folding [Problem.constrs] term lists — identical
       operations in identical order, so the verdict is bit-identical
       — but over the de-boxed term arrays and the point [st.x],
       computed once per column, so it allocates nothing *)
    let violated st =
      let x = st.x in
      for j = 0 to n - 1 do
        x.(j) <- lo.(j) +. col_value st j
      done;
      let bad = ref false in
      let i = ref 0 in
      while (not !bad) && !i < d.m do
        let c = d.constrs.(!i) in
        let cv = d.c_vars.(!i) and cc = d.c_coefs.(!i) in
        let lhs = ref 0. in
        for t = 0 to Array.length cv - 1 do
          lhs := !lhs +. (cc.(t) *. x.(cv.(t)))
        done;
        let viol =
          match c.sense with
          | Problem.Le -> !lhs -. c.rhs
          | Problem.Ge -> c.rhs -. !lhs
          | Problem.Eq -> Float.abs (!lhs -. c.rhs)
        in
        let tol =
          options.feas_tol *. 100. *. (1. +. (1e-6 *. Float.abs c.rhs))
        in
        if viol > tol then bad := true;
        incr i
      done;
      !bad
    in
    (* the point [violated] just checked, and its objective *)
    let extract st =
      let x = Array.copy st.x in
      let obj = ref 0. in
      for j = 0 to n - 1 do
        obj := !obj +. (d.cobj.(j) *. x.(j))
      done;
      let obj = if d.minimize then !obj else -. !obj in
      Solution.Optimal { Solution.x; objective = obj }
    in
    (* plain loops into fresh arrays, which for large bases start in
       the major heap: [Array.copy] would initialise element by
       element through the runtime *)
    let snapshot st =
      let rows = Array.make d.m 0 and stat = Array.make d.ncols At_lower in
      for r = 0 to d.m - 1 do
        rows.(r) <- st.basis.(r)
      done;
      for j = 0 to d.ncols - 1 do
        stat.(j) <- st.stat.(j)
      done;
      { Basis.rows; stat }
    in
    (* tail of the warm start, which leaves the phase-2 duals of its
       basis in [st.y]: dual repair, primal cleanup, then accept only a
       verified-feasible point; [None] falls back to a cold solve *)
    let reoptimise st =
      match dual st with
      | Dual_budget -> Some (Solution.Iteration_limit, None)
      | Primal_infeasible -> Some (Solution.Infeasible, None)
      | Dual_stalled -> None
      | Dual_feasible_point -> (
          match primal st ~limit:d.n_real with
          | Budget_exhausted -> Some (Solution.Iteration_limit, None)
          | Unbounded_ray -> Some (Solution.Unbounded, None)
          | Optimal_reached ->
              if violated st then None
              else Some (extract st, Some (snapshot st)))
    in
    (* ---- warm path: refactorise a basis snapshot, then repair ---- *)
    let try_warm b =
      if not (Basis.compatible b ~rows:d.m ~cols:d.ncols) then None
      else begin
        (* the pooled state is reinitialised in place (its [rhs] is
           already this solve's) *)
        let st =
          prepare
            (match ses with Some s -> s.sstate | None -> make_state d ~rhs)
        in
        for j = 0 to d.ncols - 1 do
          st.stat.(j) <-
            (match b.Basis.stat.(j) with
            | Basis.At_upper when Float.is_finite st.wup.(j) -> At_upper
            | _ -> At_lower)
        done;
        (* plain loops, not [Array.blit]: these int arrays are old *)
        for r = 0 to d.m - 1 do
          let j = b.Basis.rows.(r) in
          st.basis.(r) <- j;
          st.stat.(j) <- Basic
        done;
        set_phase2_cost st;
        (* With a session, an identical warm basis (as a set) can skip
           the refactorisation entirely: restoring the snapshot replays
           the byte-identical factorisation the refresh would rebuild.
           Bounds may differ — the factor depends only on the matrix
           columns in the basis. *)
        let hit =
          match ses with
          | Some s when s.snap_valid ->
              let ok = ref true in
              for r = 0 to d.m - 1 do
                if not s.snap_mark.(st.basis.(r)) then ok := false
              done;
              !ok
          | _ -> false
        in
        match
          if hit then begin
            let s = Option.get ses in
            Factor.restore s.snap st.f;
            for r = 0 to d.m - 1 do
              st.basis.(r) <- s.snap_basis.(r)
            done;
            rebuild_in_row st;
            compute_beta st;
            compute_y st
          end
          else begin
            refresh st;
            match ses with
            | Some s ->
                Factor.save st.f s.snap;
                for r = 0 to d.m - 1 do
                  s.snap_basis.(r) <- st.basis.(r)
                done;
                Array.fill s.snap_mark 0 d.ncols false;
                for r = 0 to d.m - 1 do
                  s.snap_mark.(st.basis.(r)) <- true
                done;
                s.snap_valid <- true
            | None -> ()
          end
        with
        | () -> reoptimise st
        | exception Decline -> None
      end
    in
    (* ---- cold path: two-phase primal from the artificial basis ---- *)
    let cold () =
      let st = prepare (make_state d ~rhs) in
      (* phase 1: artificial i spans [min(0, rhs_i), max(0, rhs_i)]
         with cost sign(rhs_i) — the sparse build keeps row signs
         as-is (no dense-style rhs flip), so infeasibility is driven
         out symmetrically from either side *)
      for i = 0 to d.m - 1 do
        let j = d.n_real + i in
        let b = st.rhs.(i) in
        st.wlo.(j) <- Float.min 0. b;
        st.wup.(j) <- Float.max 0. b;
        st.cost.(j) <- (if b >= 0. then 1. else -1.);
        st.stat.(j) <- Basic;
        st.in_row.(j) <- i;
        st.beta.(i) <- b
      done;
      Factor.set_identity st.f;
      compute_y st;
      (match primal st ~limit:d.ncols with
      | Budget_exhausted -> (Solution.Iteration_limit, None)
      | Unbounded_ray ->
          (* cannot happen: the phase-1 objective is bounded below *)
          (Solution.Infeasible, None)
      | Optimal_reached ->
          if violated st then (Solution.Infeasible, None)
          else begin
            (* pivot artificials out of the basis where possible, then
               fix every artificial at zero *)
            for r = 0 to d.m - 1 do
              if st.basis.(r) >= d.n_real then begin
                Array.fill st.rho 0 d.m 0.;
                st.rho.(r) <- 1.;
                Factor.btran st.f st.rho;
                let best = ref (-1) in
                let best_mag = ref 1e-7 in
                for j = 0 to d.n_real - 1 do
                  if st.stat.(j) <> Basic then begin
                    let a = ref 0. in
                    for p = d.ptr.(j) to d.ptr.(j + 1) - 1 do
                      a := !a +. (st.rho.(d.idx.(p)) *. d.vs.(p))
                    done;
                    let mag = Float.abs !a in
                    if mag > !best_mag then begin
                      best_mag := mag;
                      best := j
                    end
                  end
                done;
                if !best >= 0 then begin
                  let j = !best in
                  ftran_col st j;
                  if Float.abs st.w.(r) > 1e-9 then
                    (* degenerate pivot: the artificial sits at zero,
                       the entering column stays at its resting value *)
                    ignore
                      (pivot st ~r ~j ~leaving_stat:At_lower
                         ~enter_val:(col_value st j) ~y_done:false)
                end
              end
            done;
            for jj = d.n_real to d.ncols - 1 do
              st.wlo.(jj) <- 0.;
              st.wup.(jj) <- 0.;
              if st.stat.(jj) <> Basic then st.stat.(jj) <- At_lower
            done;
            set_phase2_cost st;
            (* clamping the artificial bounds moved their resting
               values; refresh recomputes beta and y exactly *)
            refresh st;
            match primal st ~limit:d.n_real with
            | Budget_exhausted -> (Solution.Iteration_limit, None)
            | Unbounded_ray -> (Solution.Unbounded, None)
            | Optimal_reached ->
                (* the dense cold solve trusts its endpoint; the sparse
                   one re-verifies and declines to the dense solver on
                   any breach, so results never change *)
                if violated st then raise Decline
                else (extract st, Some (snapshot st))
          end)
    in
    (* fallback ladder: sparse warm -> sparse cold -> dense cold, the
       last with the remaining pivot budget *)
    let attempt =
      match warm with
      | Some b -> ( try try_warm b with Decline -> None)
      | None -> None
    in
    let r =
      match attempt with
      | Some (status, basis) ->
          { Simplex.status; basis; pivots = spent (); warm_used = true }
      | None -> (
          match cold () with
          | status, basis ->
              { Simplex.status; basis; pivots = spent (); warm_used = false }
          | exception Decline ->
              Atomic.incr fallbacks;
              let options =
                { options with Simplex.max_pivots = Int.max 1 !pivots_left }
              in
              let r = Simplex.solve ~options ~lo ~hi d.problem in
              { r with Simplex.pivots = r.Simplex.pivots + spent () })
    in
    ignore (Atomic.fetch_and_add pivot_count r.Simplex.pivots);
    r
  end
