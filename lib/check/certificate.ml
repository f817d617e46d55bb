type verdict = Valid | Invalid of string list

(* Dense Gaussian elimination with partial pivoting.  [a] is m x m and
   is consumed; returns None when the matrix is numerically singular. *)
let solve_linear a b =
  let m = Array.length b in
  let x = Array.copy b in
  let ok = ref true in
  (try
     for k = 0 to m - 1 do
       let piv = ref k in
       for i = k + 1 to m - 1 do
         if Float.abs a.(i).(k) > Float.abs a.(!piv).(k) then piv := i
       done;
       if Float.abs a.(!piv).(k) < 1e-11 then begin
         ok := false;
         raise Exit
       end;
       if !piv <> k then begin
         let tmp = a.(k) in
         a.(k) <- a.(!piv);
         a.(!piv) <- tmp;
         let t = x.(k) in
         x.(k) <- x.(!piv);
         x.(!piv) <- t
       end;
       for i = k + 1 to m - 1 do
         let f = a.(i).(k) /. a.(k).(k) in
         if f <> 0. then begin
           for j = k to m - 1 do
             a.(i).(j) <- a.(i).(j) -. (f *. a.(k).(j))
           done;
           x.(i) <- x.(i) -. (f *. x.(k))
         end
       done
     done
   with Exit -> ());
  if not !ok then None
  else begin
    for k = m - 1 downto 0 do
      let s = ref x.(k) in
      for j = k + 1 to m - 1 do
        s := !s -. (a.(k).(j) *. x.(j))
      done;
      x.(k) <- !s /. a.(k).(k)
    done;
    Some x
  end

let check ?(tol = 1e-6) ?lo ?hi problem (sol : Lp.Solution.t)
    (basis : Lp.Basis.t) =
  let n = Lp.Problem.n_vars problem in
  let constrs = Lp.Problem.constrs problem in
  let m = Array.length constrs in
  let vars = Lp.Problem.vars problem in
  let lo =
    match lo with
    | Some a -> a
    | None -> Array.map (fun (v : Lp.Problem.var_info) -> v.lo) vars
  in
  let hi =
    match hi with
    | Some a -> a
    | None -> Array.map (fun (v : Lp.Problem.var_info) -> v.hi) vars
  in
  let errs = ref [] in
  let fail fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  if Array.length sol.x <> n then
    fail "solution has %d entries for %d variables" (Array.length sol.x) n;
  if Array.length lo <> n || Array.length hi <> n then
    fail "bound overrides have the wrong length";
  if !errs <> [] then Invalid (List.rev !errs)
  else begin
    (* column layout mirroring the solver's tableau, unscaled *)
    let n_slack =
      Array.fold_left
        (fun acc (c : Lp.Problem.constr) ->
          match c.sense with Le | Ge -> acc + 1 | Eq -> acc)
        0 constrs
    in
    let ncols = n + n_slack + m in
    let slack_row = Array.make n_slack 0 in
    let slack_sign = Array.make n_slack 0. in
    let k = ref 0 in
    Array.iteri
      (fun i (c : Lp.Problem.constr) ->
        match c.sense with
        | Le ->
            slack_row.(!k) <- i;
            slack_sign.(!k) <- 1.;
            incr k
        | Ge ->
            slack_row.(!k) <- i;
            slack_sign.(!k) <- -1.;
            incr k
        | Eq -> ())
      constrs;
    (* column j of the augmented system as a dense length-m vector *)
    let column j =
      let col = Array.make m 0. in
      if j < n then
        Array.iteri
          (fun i (c : Lp.Problem.constr) ->
            Array.iteri
              (fun t v -> if v = j then col.(i) <- col.(i) +. c.coefs.(t))
              c.vars)
          constrs
      else if j < n + n_slack then col.(slack_row.(j - n)) <- slack_sign.(j - n)
      else col.(j - n - n_slack) <- 1.;
      col
    in
    let col_lo j = if j < n then lo.(j) else 0. in
    let col_hi j =
      if j < n then hi.(j) else if j < n + n_slack then infinity else 0.
    in
    (* minimisation-space costs *)
    let minimize = Lp.Problem.direction problem = Lp.Problem.Minimize in
    let cost = Array.make ncols 0. in
    let obj_vars, obj_coefs = Lp.Problem.objective problem in
    Array.iteri
      (fun t v ->
        let coef = obj_coefs.(t) in
        cost.(v) <- cost.(v) +. (if minimize then coef else -.coef))
      obj_vars;
    (* a row's left-hand side at the reported point *)
    let lhs (c : Lp.Problem.constr) =
      let acc = ref 0. in
      Array.iteri (fun t v -> acc := !acc +. (c.coefs.(t) *. sol.x.(v))) c.vars;
      !acc
    in
    (* ---- primal feasibility and the full augmented point ---- *)
    let z = Array.make ncols 0. in
    Array.blit sol.x 0 z 0 n;
    for j = 0 to n - 1 do
      let scale = 1. +. Float.max (Float.abs lo.(j)) (Float.abs sol.x.(j)) in
      if sol.x.(j) < lo.(j) -. (tol *. scale) then
        fail "x%d = %g below lower bound %g" j sol.x.(j) lo.(j);
      if sol.x.(j) > hi.(j) +. (tol *. scale) then
        fail "x%d = %g above upper bound %g" j sol.x.(j) hi.(j)
    done;
    Array.iteri
      (fun i (c : Lp.Problem.constr) ->
        let lhs = lhs c in
        let scale = 1. +. Float.max (Float.abs lhs) (Float.abs c.rhs) in
        let violated rel =
          fail "row %d (%s): %g %s rhs %g" i
            (Lp.Problem.constr_name problem i) lhs rel c.rhs
        in
        match c.sense with
        | Le -> if lhs > c.rhs +. (tol *. scale) then violated ">"
        | Ge -> if lhs < c.rhs -. (tol *. scale) then violated "<"
        | Eq -> if Float.abs (lhs -. c.rhs) > tol *. scale then violated "<>")
      constrs;
    (* slack values close the equality system exactly *)
    for s = 0 to n_slack - 1 do
      let c = constrs.(slack_row.(s)) in
      z.(n + s) <- slack_sign.(s) *. (c.rhs -. lhs c)
    done;
    let obj_at_x = Lp.Problem.objective_value problem sol.x in
    let obj_scale =
      1. +. Float.max (Float.abs obj_at_x) (Float.abs sol.objective)
    in
    if Float.abs (obj_at_x -. sol.objective) > tol *. obj_scale then
      fail "reported objective %g but c.x = %g" sol.objective obj_at_x;
    (* ---- basis shape ---- *)
    if not (Lp.Basis.compatible basis ~rows:m ~cols:ncols) then begin
      fail "basis incompatible with a %d x %d tableau" m ncols;
      Invalid (List.rev !errs)
    end
    else begin
      let is_basic = Array.make ncols false in
      Array.iter (fun j -> is_basic.(j) <- true) basis.rows;
      Array.iteri
        (fun j st ->
          let basic_flag = st = Lp.Basis.Basic in
          if basic_flag <> is_basic.(j) then
            fail "column %d: status %s disagrees with basis rows" j
              (if basic_flag then "Basic" else "nonbasic"))
        basis.stat;
      (* nonbasic columns must rest at their recorded bound *)
      for j = 0 to ncols - 1 do
        let scale = 1. +. Float.abs z.(j) in
        match basis.stat.(j) with
        | Lp.Basis.Basic -> ()
        | Lp.Basis.At_lower ->
            if Float.abs (z.(j) -. col_lo j) > tol *. scale then
              fail "nonbasic column %d at_lower but value %g <> %g" j z.(j)
                (col_lo j)
        | Lp.Basis.At_upper ->
            let up = col_hi j in
            if up = infinity then
              fail "nonbasic column %d at_upper with infinite bound" j
            else if Float.abs (z.(j) -. up) > tol *. scale then
              fail "nonbasic column %d at_upper but value %g <> %g" j z.(j)
                up
      done;
      (* ---- duals: B^T y = c_B ---- *)
      let bt =
        Array.init m (fun i ->
            let col = column basis.rows.(i) in
            Array.init m (fun j -> col.(j)))
      in
      (* bt currently holds B's columns as rows, i.e. B^T already *)
      let c_b = Array.map (fun j -> cost.(j)) basis.rows in
      match solve_linear bt c_b with
      | None -> Invalid (List.rev ("singular basis matrix" :: !errs))
      | Some y ->
          (* reduced costs and their sign conditions *)
          let d = Array.make ncols 0. in
          for j = 0 to ncols - 1 do
            let col = column j in
            let yaj = ref 0. in
            for i = 0 to m - 1 do
              yaj := !yaj +. (y.(i) *. col.(i))
            done;
            d.(j) <- cost.(j) -. !yaj
          done;
          let dtol = tol *. 100. in
          for j = 0 to ncols - 1 do
            let fixed = col_hi j -. col_lo j <= tol in
            match basis.stat.(j) with
            | Lp.Basis.Basic ->
                if Float.abs d.(j) > dtol *. (1. +. Float.abs cost.(j)) then
                  fail "basic column %d has reduced cost %g" j d.(j)
            | Lp.Basis.At_lower ->
                if (not fixed) && d.(j) < -.dtol then
                  fail "column %d at lower bound has reduced cost %g < 0" j
                    d.(j)
            | Lp.Basis.At_upper ->
                if (not fixed) && d.(j) > dtol then
                  fail "column %d at upper bound has reduced cost %g > 0" j
                    d.(j)
          done;
          (* ---- duality gap: c.z = y.b + sum_j d_j z_j ---- *)
          let primal = ref 0. in
          for j = 0 to ncols - 1 do
            primal := !primal +. (cost.(j) *. z.(j))
          done;
          let dual = ref 0. in
          Array.iteri
            (fun i (c : Lp.Problem.constr) ->
              dual := !dual +. (y.(i) *. c.rhs))
            constrs;
          for j = 0 to ncols - 1 do
            if basis.stat.(j) <> Lp.Basis.Basic then
              dual := !dual +. (d.(j) *. z.(j))
          done;
          let scale =
            1. +. Float.max (Float.abs !primal) (Float.abs !dual)
          in
          if Float.abs (!primal -. !dual) > dtol *. scale then
            fail "duality gap: primal %g vs dual %g" !primal !dual;
          if !errs = [] then Valid else Invalid (List.rev !errs)
    end
  end

let check_result ?tol ?lo ?hi problem (r : Lp.Simplex.result) =
  match r.status with
  | Lp.Solution.Optimal sol -> (
      match r.basis with
      | Some b -> check ?tol ?lo ?hi problem sol b
      | None -> Invalid [ "optimal result carries no basis" ])
  | Lp.Solution.Infeasible | Lp.Solution.Unbounded
  | Lp.Solution.Iteration_limit ->
      Valid
