(* Shared exhaustive enumeration over all integer assignments within
   the declared bounds.  [visit] is called once per assignment with the
   integer vector and the status of the continuous remainder. *)
let enumerate ?(max_combinations = 2_000_000) problem visit =
  let int_vars = Array.of_list (Problem.integer_vars problem) in
  let vars = Problem.vars problem in
  let ranges =
    Array.map
      (fun v ->
        let info = vars.(v) in
        if not (Float.is_finite info.lo && Float.is_finite info.hi) then
          invalid_arg "Brute.solve: integer variable with infinite bound";
        let lo = int_of_float (Float.ceil (info.lo -. 1e-9)) in
        let hi = int_of_float (Float.floor (info.hi +. 1e-9)) in
        (lo, hi))
      int_vars
  in
  let count =
    Array.fold_left
      (fun acc (lo, hi) ->
        if hi < lo then 0 else acc * (hi - lo + 1))
      1 ranges
  in
  if count > max_combinations then
    invalid_arg "Brute.solve: too many integer combinations";
  if count > 0 then begin
    let n = Problem.n_vars problem in
    let lo0 = Array.map (fun (v : Problem.var_info) -> v.lo) vars in
    let hi0 = Array.map (fun (v : Problem.var_info) -> v.hi) vars in
    let assignment = Array.map fst ranges in
    let rec go i =
      if i = Array.length int_vars then begin
        let lo = Array.make n 0. and hi = Array.make n 0. in
        Array.blit lo0 0 lo 0 n;
        Array.blit hi0 0 hi 0 n;
        Array.iteri
          (fun k v ->
            let x = Float.of_int assignment.(k) in
            lo.(v) <- x;
            hi.(v) <- x)
          int_vars;
        visit assignment (Simplex.solve ~lo ~hi problem).status
      end
      else begin
        let lo, hi = ranges.(i) in
        for v = lo to hi do
          assignment.(i) <- v;
          go (i + 1)
        done
      end
    in
    go 0
  end

let solve ?max_combinations problem =
  let minimize = Problem.direction problem = Problem.Minimize in
  let best = ref None in
  let best_key = ref infinity in
  let saw_unbounded = ref false in
  let seen_any = ref false in
  enumerate ?max_combinations problem (fun _ status ->
      seen_any := true;
      match status with
      | Solution.Optimal sol ->
          let key = if minimize then sol.objective else -.sol.objective in
          if key < !best_key then begin
            best_key := key;
            best := Some sol
          end
      | Solution.Unbounded -> saw_unbounded := true
      | Solution.Infeasible | Solution.Iteration_limit -> ());
  if not !seen_any then Solution.Infeasible
  else if !saw_unbounded then Solution.Unbounded
  else
    match !best with
    | Some s -> Solution.Optimal s
    | None -> Solution.Infeasible

let optimal_points ?max_combinations ?(obj_tol = 1e-6) problem =
  let minimize = Problem.direction problem = Problem.Minimize in
  let best_key = ref infinity in
  let acc = ref [] in  (* (key, integer assignment), best-so-far window *)
  enumerate ?max_combinations problem (fun assignment status ->
      match status with
      | Solution.Optimal sol ->
          let key = if minimize then sol.objective else -.sol.objective in
          if key < !best_key -. obj_tol then begin
            best_key := key;
            (* drop entries that the new best pushes out of the window *)
            acc :=
              (key, Array.map Float.of_int assignment)
              :: List.filter (fun (k, _) -> k <= key +. obj_tol) !acc
          end
          else if key <= !best_key +. obj_tol then
            acc := (key, Array.map Float.of_int assignment) :: !acc
      | Solution.Infeasible | Solution.Unbounded | Solution.Iteration_limit ->
          ());
  match !acc with
  | [] -> None
  | entries ->
      let best = !best_key in
      let points =
        List.rev_map snd
          (List.filter (fun (k, _) -> k <= best +. obj_tol) entries)
      in
      let obj = if minimize then best else -.best in
      Some (obj, points)
