(* LP / ILP solver tests: hand-checked instances plus randomized
   comparison against exhaustive oracles. *)

open Lp

let check_close ?(tol = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.9g, got %.9g" msg expected actual

let solve_lp p =
  match (Simplex.solve p).status with
  | Solution.Optimal s -> s
  | st -> Alcotest.failf "expected optimal, got %a" Solution.pp_status st

(* ---- basic LPs ---- *)

let test_lp_basic () =
  (* max 3x + 2y st x+y<=4, x+3y<=6 -> (4,0), obj 12 *)
  let p = Problem.create () in
  let x = Problem.add_var p and y = Problem.add_var p in
  Problem.add_constr p [ (x, 1.); (y, 1.) ] Problem.Le 4.;
  Problem.add_constr p [ (x, 1.); (y, 3.) ] Problem.Le 6.;
  Problem.set_objective p Problem.Maximize [ (x, 3.); (y, 2.) ];
  let s = solve_lp p in
  check_close "objective" 12. s.objective;
  check_close "x" 4. s.x.(x);
  check_close "y" 0. s.x.(y)

let test_lp_degenerate () =
  (* multiple optimal bases; classic degeneracy *)
  let p = Problem.create () in
  let x = Problem.add_var p and y = Problem.add_var p in
  Problem.add_constr p [ (x, 1.); (y, 1.) ] Problem.Le 1.;
  Problem.add_constr p [ (x, 1.) ] Problem.Le 1.;
  Problem.add_constr p [ (x, 2.); (y, 2.) ] Problem.Le 2.;
  Problem.set_objective p Problem.Maximize [ (x, 1.); (y, 1.) ];
  let s = solve_lp p in
  check_close "objective" 1. s.objective

let test_lp_equality () =
  (* min x + y st x + 2y = 3, x,y >= 0 -> y=1.5, obj 1.5 *)
  let p = Problem.create () in
  let x = Problem.add_var p and y = Problem.add_var p in
  Problem.add_constr p [ (x, 1.); (y, 2.) ] Problem.Eq 3.;
  Problem.set_objective p Problem.Minimize [ (x, 1.); (y, 1.) ];
  let s = solve_lp p in
  check_close "objective" 1.5 s.objective

let test_lp_negative_rhs () =
  (* constraints with negative rhs exercise the row-flip path *)
  let p = Problem.create () in
  let x = Problem.add_var ~lo:(-10.) ~hi:10. p in
  Problem.add_constr p [ (x, -1.) ] Problem.Le 5.;  (* x >= -5 *)
  Problem.set_objective p Problem.Minimize [ (x, 1.) ];
  let s = solve_lp p in
  check_close "x" (-5.) s.x.(x)

let test_lp_upper_bounds () =
  (* optimum at a variable's upper bound (bound-flip machinery) *)
  let p = Problem.create () in
  let x = Problem.add_var ~hi:3. p and y = Problem.add_var ~hi:2. p in
  Problem.add_constr p [ (x, 1.); (y, 1.) ] Problem.Le 10.;
  Problem.set_objective p Problem.Maximize [ (x, 1.); (y, 5.) ];
  let s = solve_lp p in
  check_close "objective" 13. s.objective;
  check_close "x" 3. s.x.(x);
  check_close "y" 2. s.x.(y)

let test_lp_free_negative_lo () =
  let p = Problem.create () in
  let x = Problem.add_var ~lo:(-4.) ~hi:(-1.) p in
  Problem.set_objective p Problem.Maximize [ (x, 1.) ];
  let s = solve_lp p in
  check_close "x" (-1.) s.x.(x)

let test_lp_infeasible () =
  let p = Problem.create () in
  let x = Problem.add_var ~hi:1. p in
  Problem.add_constr p [ (x, 1.) ] Problem.Ge 2.;
  match (Simplex.solve p).status with
  | Solution.Infeasible -> ()
  | st -> Alcotest.failf "expected infeasible, got %a" Solution.pp_status st

let test_lp_unbounded () =
  let p = Problem.create () in
  let x = Problem.add_var p in
  Problem.set_objective p Problem.Maximize [ (x, 1.) ];
  match (Simplex.solve p).status with
  | Solution.Unbounded -> ()
  | st -> Alcotest.failf "expected unbounded, got %a" Solution.pp_status st

let test_lp_no_constraints () =
  (* optimum determined purely by bounds *)
  let p = Problem.create () in
  let x = Problem.add_var ~lo:2. ~hi:7. p in
  Problem.set_objective p Problem.Minimize [ (x, 3.) ];
  let s = solve_lp p in
  check_close "objective" 6. s.objective

let test_lp_fixed_var () =
  let p = Problem.create () in
  let x = Problem.add_var ~lo:2. ~hi:2. p in
  let y = Problem.add_var ~hi:5. p in
  Problem.add_constr p [ (x, 1.); (y, 1.) ] Problem.Le 6.;
  Problem.set_objective p Problem.Maximize [ (y, 1.) ];
  let s = solve_lp p in
  check_close "y" 4. s.x.(y)

let test_lp_duplicate_terms () =
  (* duplicate variable indices in a constraint must be summed *)
  let p = Problem.create () in
  let x = Problem.add_var p in
  Problem.add_constr p [ (x, 1.); (x, 1.) ] Problem.Le 4.;  (* 2x <= 4 *)
  Problem.set_objective p Problem.Maximize [ (x, 1.) ];
  let s = solve_lp p in
  check_close "x" 2. s.x.(x)

let test_lp_bound_override () =
  let p = Problem.create () in
  let x = Problem.add_var ~hi:10. p in
  Problem.set_objective p Problem.Maximize [ (x, 1.) ];
  let s =
    match (Simplex.solve ~lo:[| 0. |] ~hi:[| 3. |] p).status with
    | Solution.Optimal s -> s
    | st -> Alcotest.failf "expected optimal, got %a" Solution.pp_status st
  in
  check_close "x" 3. s.x.(0);
  (* the original problem is untouched *)
  let s2 = solve_lp p in
  check_close "x orig" 10. s2.x.(0)

let test_lp_conflicting_override () =
  let p = Problem.create () in
  let _ = Problem.add_var ~hi:10. p in
  match (Simplex.solve ~lo:[| 5. |] ~hi:[| 3. |] p).status with
  | Solution.Infeasible -> ()
  | st -> Alcotest.failf "expected infeasible, got %a" Solution.pp_status st

let test_lp_mixed_scale () =
  (* a vacuous huge budget next to a tight small one: the regression
     that once let infeasible branch-and-bound children pass *)
  let p = Problem.create () in
  let x = Problem.add_var ~hi:1. p and y = Problem.add_var ~hi:1. p in
  Problem.add_constr p [ (x, 2.); (y, 2.) ] Problem.Le 2.;
  Problem.add_constr p [ (x, 8.); (y, 4.) ] Problem.Le 1e9;
  Problem.set_objective p Problem.Maximize [ (x, 1.); (y, 1.) ];
  let s = solve_lp p in
  check_close "objective" 1. s.objective;
  match (Simplex.solve ~lo:[| 1.; 1. |] ~hi:[| 1.; 1. |] p).status with
  | Solution.Infeasible -> ()
  | st -> Alcotest.failf "expected infeasible, got %a" Solution.pp_status st

(* ---- names ---- *)

(* a problem mixing named and unnamed variables and rows *)
let named_and_unnamed () =
  let p = Problem.create () in
  let x = Problem.add_var ~name:"speed" p in
  let y = Problem.add_var ~hi:4. ~integer:true p in
  let z = Problem.add_var ~lo:(-1.) p in
  Problem.add_constr ~name:"cap" p [ (x, 1.); (y, 2.) ] Problem.Le 10.;
  Problem.add_constr p [ (y, 1.); (z, -1.) ] Problem.Ge 0.;
  Problem.add_constr p [ (x, 1.); (z, 1.) ] Problem.Eq 3.;
  Problem.set_objective p Problem.Maximize [ (x, 1.); (y, -0.5) ];
  p

(* unnamed entries carry no name and render as x<i> / c<i>: the bytes
   below are what the renderer printed while every entry was named
   eagerly at [add_var] / [add_constr] *)
let test_lazy_names_render () =
  let p = named_and_unnamed () in
  Alcotest.(check string) "rendering"
    "max: 1 speed - 0.5 x1\nsubject to:\n  cap: 1 speed + 2 x1 <= 10\n  \
     c1: 1 x1 - 1 x2 >= 0\n  c2: 1 speed + 1 x2 = 3\nbounds:\n  \
     0 <= speed <= inf\n  0 <= x1 <= 4 (int)\n  -1 <= x2 <= inf\n"
    (Format.asprintf "%a" Problem.pp p);
  Alcotest.(check (option string)) "unnamed variable" None
    (Problem.vars p).(1).vname;
  Alcotest.(check (option string)) "unnamed row" None
    (Problem.constrs p).(2).cname;
  Alcotest.(check (list string)) "names on demand"
    [ "speed"; "x1"; "x2"; "cap"; "c1"; "c2" ]
    (List.map (Problem.var_name p) [ 0; 1; 2 ]
    @ List.map (Problem.constr_name p) [ 0; 1; 2 ])

(* ---- ILP ---- *)

let solve_ilp p =
  match Branch_bound.solve p with
  | Solution.Optimal s, stats -> (s, stats)
  | st, _ -> Alcotest.failf "expected optimal, got %a" Solution.pp_status st

let test_ilp_knapsack () =
  let p = Problem.create () in
  let a = Problem.add_var ~hi:1. ~integer:true p in
  let b = Problem.add_var ~hi:1. ~integer:true p in
  let c = Problem.add_var ~hi:1. ~integer:true p in
  Problem.add_constr p [ (a, 5.); (b, 4.); (c, 3.) ] Problem.Le 8.;
  Problem.set_objective p Problem.Maximize [ (a, 10.); (b, 6.); (c, 4.) ];
  let s, stats = solve_ilp p in
  check_close "objective" 14. s.objective;
  Alcotest.(check bool) "proved" true stats.proved_optimal

let test_ilp_integrality_matters () =
  (* LP relaxation is 2.5; integer optimum is 2 *)
  let p = Problem.create () in
  let x = Problem.add_var ~hi:10. ~integer:true p in
  Problem.add_constr p [ (x, 2.) ] Problem.Le 5.;
  Problem.set_objective p Problem.Maximize [ (x, 1.) ];
  let s, _ = solve_ilp p in
  check_close "x" 2. s.x.(x)

let test_ilp_infeasible () =
  let p = Problem.create () in
  let x = Problem.add_var ~hi:1. ~integer:true p in
  let y = Problem.add_var ~hi:1. ~integer:true p in
  Problem.add_constr p [ (x, 1.); (y, 1.) ] Problem.Ge 3.;
  match Branch_bound.solve p with
  | Solution.Infeasible, _ -> ()
  | st, _ -> Alcotest.failf "expected infeasible, got %a" Solution.pp_status st

let test_ilp_gap_between_lp_and_ip () =
  (* equality forcing x + 2y = 3 with binaries: only (1,1) works *)
  let p = Problem.create () in
  let x = Problem.add_var ~hi:1. ~integer:true p in
  let y = Problem.add_var ~hi:1. ~integer:true p in
  Problem.add_constr p [ (x, 1.); (y, 2.) ] Problem.Eq 3.;
  Problem.set_objective p Problem.Minimize [ (x, 1.); (y, 1.) ];
  let s, _ = solve_ilp p in
  check_close "x" 1. s.x.(x);
  check_close "y" 1. s.x.(y)

let test_ilp_mixed_integer () =
  (* one integer, one continuous *)
  let p = Problem.create () in
  let x = Problem.add_var ~hi:10. ~integer:true p in
  let y = Problem.add_var ~hi:10. p in
  Problem.add_constr p [ (x, 1.); (y, 1.) ] Problem.Le 4.5;
  Problem.set_objective p Problem.Maximize [ (x, 2.); (y, 1.) ];
  let s, _ = solve_ilp p in
  check_close "objective" 8.5 s.objective;
  check_close "x" 4. s.x.(x)

let test_ilp_incumbent_trace () =
  let p = Problem.create () in
  let vars = Array.init 8 (fun _ -> Problem.add_var ~hi:1. ~integer:true p) in
  Problem.add_constr p
    (Array.to_list (Array.map (fun v -> (v, 1.)) vars))
    Problem.Le 4.;
  Problem.set_objective p Problem.Maximize
    (Array.to_list (Array.mapi (fun i v -> (v, Float.of_int (i + 1))) vars));
  let s, stats = solve_ilp p in
  check_close "objective" 26. s.objective;
  Alcotest.(check bool) "trace nonempty" true (stats.incumbent_trace <> []);
  Alcotest.(check bool)
    "incumbent time <= total" true
    (stats.time_to_incumbent <= stats.time_total +. 1e-9)

(* ---- warm starts ----

   Every warm start runs on the sparse engine, from a basis the dense
   cold reference records, and is held to a dense cold solve of the
   same bounds. *)

let test_warm_bound_change () =
  (* max 2x + 3y st x + 2y <= 6, x <= 4, y <= 3 -> (4, 1), obj 11;
     then tighten x <= 2 and re-solve from the optimal basis *)
  let p = Problem.create () in
  let x = Problem.add_var ~hi:4. p and y = Problem.add_var ~hi:3. p in
  Problem.add_constr p [ (x, 1.); (y, 2.) ] Problem.Le 6.;
  Problem.set_objective p Problem.Maximize [ (x, 2.); (y, 3.) ];
  let r = Simplex.solve p in
  check_close "cold objective" 11. (Solution.get r.Simplex.status).objective;
  let basis =
    match r.Simplex.basis with
    | Some b -> b
    | None -> Alcotest.fail "optimal solve returned no basis"
  in
  let lo = [| 0.; 0. |] and hi = [| 2.; 3. |] in
  let w = Sparse.solve_warm ~warm:basis ~lo ~hi (Sparse.of_problem p) in
  Alcotest.(check bool) "warm basis accepted" true w.Simplex.warm_used;
  (* x <= 2 -> (2, 2), obj 10 *)
  check_close "warm objective" 10. (Solution.get w.Simplex.status).objective;
  let c = Simplex.solve ~lo ~hi p in
  check_close "warm = cold"
    (Solution.get c.Simplex.status).objective
    (Solution.get w.Simplex.status).objective

let test_warm_detects_infeasible () =
  let p = Problem.create () in
  let x = Problem.add_var ~hi:1. p and y = Problem.add_var ~hi:1. p in
  Problem.add_constr p [ (x, 1.); (y, 1.) ] Problem.Ge 1.5;
  Problem.set_objective p Problem.Minimize [ (x, 1.); (y, 1.) ];
  let r = Simplex.solve p in
  let basis = Option.get r.Simplex.basis in
  (* x, y <= 0.5 makes the covering constraint unsatisfiable *)
  let lo = [| 0.; 0. |] and hi = [| 0.5; 0.5 |] in
  let w = Sparse.solve_warm ~warm:basis ~lo ~hi (Sparse.of_problem p) in
  match (w.Simplex.status, (Simplex.solve ~lo ~hi p).status) with
  | Solution.Infeasible, Solution.Infeasible -> ()
  | st, cold ->
      Alcotest.failf "expected infeasible, got %a (cold %a)"
        Solution.pp_status st Solution.pp_status cold

(* A cold solve accepts a point whose rows are violated by up to
   [feas_tol * 100]; re-solving warm from that optimum's own basis must
   not then certify the LP infeasible.  Generator case 787219: the dense
   cold optimum 6.22373 violates row c2 by ~8e-6.  The sparse cold
   solve declines and falls back to the dense cold solve; warm from
   that basis, the dual repair finds no entering column for c2, so the
   warm start is declined and the same ladder ends on the dense cold
   solve.  Both answers are the dense one, bit for bit. *)
let test_warm_keeps_cold_verdict () =
  let seed = 787219 in
  let p = Check.Gen.lp (Prng.create seed) ~size:(3 + (seed mod 26)) in
  let reference =
    match (Simplex.solve p).Simplex.status with
    | Solution.Optimal s -> s.objective
    | st -> Alcotest.failf "dense cold: %a" Solution.pp_status st
  in
  let data = Sparse.of_problem p in
  let one_fallback tag solve =
    let fb0 = Sparse.dense_fallbacks () in
    let r : Simplex.result = solve () in
    Alcotest.(check int) (tag ^ " dense fallbacks") 1
      (Sparse.dense_fallbacks () - fb0);
    (match r.status with
    | Solution.Optimal s ->
        Alcotest.(check int64) (tag ^ " objective bits")
          (Int64.bits_of_float reference)
          (Int64.bits_of_float s.objective)
    | st ->
        Alcotest.failf "%s: dense cold optimal, got %a" tag Solution.pp_status
          st);
    r
  in
  let cold = one_fallback "cold" (fun () -> Sparse.solve_warm data) in
  let warm =
    one_fallback "warm" (fun () ->
        Sparse.solve_warm ?warm:cold.Simplex.basis data)
  in
  Alcotest.(check bool) "warm basis declined" false warm.Simplex.warm_used

let test_warm_rescaled_coefficients () =
  (* rate-search shape: same structure, uniformly scaled data *)
  let build scale =
    let p = Problem.create () in
    let x = Problem.add_var ~hi:1. ~integer:true p in
    let y = Problem.add_var ~hi:1. ~integer:true p in
    let z = Problem.add_var ~hi:1. ~integer:true p in
    Problem.add_constr p
      [ (x, 5. *. scale); (y, 4. *. scale); (z, 3. *. scale) ]
      Problem.Le 8.;
    Problem.set_objective p Problem.Maximize [ (x, 10.); (y, 6.); (z, 4.) ];
    p
  in
  let r = Simplex.solve (build 1.) in
  let basis = Option.get r.Simplex.basis in
  let p2 = build 1.7 in
  let w = Sparse.solve_warm ~warm:basis (Sparse.of_problem p2) in
  let c = Simplex.solve p2 in
  check_close "rescaled warm = cold"
    (Solution.get c.Simplex.status).objective
    (Solution.get w.Simplex.status).objective

let test_fractional_var_most_fractional () =
  let fv = Branch_bound.fractional_var ~int_tol:1e-6 in
  (* 2.45 is closest to .5 away from an integer: distances .1, .45, .1 *)
  (match fv [ 0; 1; 2 ] [| 0.1; 2.45; 3.9 |] with
  | Some 1 -> ()
  | Some v -> Alcotest.failf "expected var 1 (most fractional), got %d" v
  | None -> Alcotest.fail "expected a fractional var");
  (* ties break towards the lowest index: .3 vs .3 *)
  (match fv [ 0; 1 ] [| 1.3; 2.7 |] with
  | Some 0 -> ()
  | Some v -> Alcotest.failf "tie should pick var 0, got %d" v
  | None -> Alcotest.fail "expected a fractional var");
  (* integral vectors have no branching candidate *)
  match fv [ 0; 1 ] [| 1.0; 2.0 |] with
  | None -> ()
  | Some v -> Alcotest.failf "integral point, but picked %d" v

let test_bb_warm_matches_cold_knapsack () =
  let p = Problem.create () in
  let vars = Array.init 10 (fun _ -> Problem.add_var ~hi:1. ~integer:true p) in
  Problem.add_constr p
    (Array.to_list (Array.mapi (fun i v -> (v, Float.of_int (i + 3))) vars))
    Problem.Le 20.;
  Problem.set_objective p Problem.Maximize
    (Array.to_list
       (Array.mapi (fun i v -> (v, Float.of_int ((i * 7 mod 11) + 1))) vars));
  let warm, warm_stats = solve_ilp p in
  let cold_opts =
    { Branch_bound.default_options with Branch_bound.warm_start = false }
  in
  let cold, cold_stats =
    match Branch_bound.solve ~options:cold_opts p with
    | Solution.Optimal s, stats -> (s, stats)
    | st, _ -> Alcotest.failf "expected optimal, got %a" Solution.pp_status st
  in
  check_close "warm = cold objective" cold.objective warm.objective;
  Alcotest.(check bool)
    "warm spends no more pivots" true
    (warm_stats.total_pivots <= cold_stats.total_pivots)

(* ---- randomized: B&B vs brute force ---- *)

let random_problem seed =
  let rng = Prng.create seed in
  let p = Problem.create () in
  let n = 3 + Prng.int rng 6 in
  let vars =
    Array.init n (fun _ ->
        Problem.add_var ~hi:(Float.of_int (1 + Prng.int rng 3)) ~integer:true p)
  in
  let m = 1 + Prng.int rng 4 in
  for _ = 1 to m do
    let terms =
      Array.to_list
        (Array.map (fun v -> (v, Float.of_int (Prng.int rng 7 - 3))) vars)
    in
    let sense = if Prng.bool rng 0.8 then Problem.Le else Problem.Ge in
    let rhs = Float.of_int (Prng.int rng 10 - 2) in
    Problem.add_constr p terms sense rhs
  done;
  let dir = if Prng.bool rng 0.5 then Problem.Maximize else Problem.Minimize in
  Problem.set_objective p dir
    (Array.to_list
       (Array.map (fun v -> (v, Float.of_int (Prng.int rng 11 - 5))) vars));
  p

let prop_bb_matches_brute =
  QCheck.Test.make ~count:300 ~name:"branch&bound matches brute force"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let p = random_problem seed in
      let bb, _ = Branch_bound.solve p in
      let brute = Brute.solve p in
      match (bb, brute) with
      | Solution.Optimal a, Solution.Optimal b ->
          if Float.abs (a.objective -. b.objective) > 1e-5 then
            QCheck.Test.fail_reportf "seed %d: bb=%.9g brute=%.9g" seed
              a.objective b.objective
          else if Problem.constraint_violation p a.x > 1e-5 then
            QCheck.Test.fail_reportf "seed %d: bb solution infeasible" seed
          else true
      | Solution.Infeasible, Solution.Infeasible -> true
      | Solution.Unbounded, Solution.Unbounded -> true
      | a, b ->
          QCheck.Test.fail_reportf "seed %d: bb=%a brute=%a" seed
            Solution.pp_status a Solution.pp_status b)

let random_lp seed =
  let rng = Prng.create seed in
  let p = Problem.create () in
  let n = 2 + Prng.int rng 5 in
  let vars =
    Array.init n (fun _ -> Problem.add_var ~hi:(Prng.uniform rng 1. 10.) p)
  in
  for _ = 1 to 1 + Prng.int rng 4 do
    let terms =
      Array.to_list (Array.map (fun v -> (v, Prng.uniform rng (-3.) 3.)) vars)
    in
    Problem.add_constr p terms Problem.Le (Prng.uniform rng 0. 10.)
  done;
  Problem.set_objective p Problem.Maximize
    (Array.to_list (Array.map (fun v -> (v, Prng.uniform rng (-2.) 5.)) vars));
  p

let prop_lp_feasible_optimal =
  QCheck.Test.make ~count:300 ~name:"simplex returns feasible points"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let p = random_lp seed in
      match (Simplex.solve p).status with
      | Solution.Optimal s ->
          if Problem.constraint_violation p s.x > 1e-5 then
            QCheck.Test.fail_reportf "seed %d: violation %g" seed
              (Problem.constraint_violation p s.x)
          else Float.abs (Problem.objective_value p s.x -. s.objective) < 1e-5
      | Solution.Infeasible -> true
      | Solution.Unbounded | Solution.Iteration_limit -> true)

let prop_lp_relaxation_bounds_ilp =
  QCheck.Test.make ~count:200 ~name:"LP relaxation bounds the ILP optimum"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let p = random_problem seed in
      match ((Simplex.solve p).status, Branch_bound.solve p) with
      | Solution.Optimal lp, (Solution.Optimal ip, _) -> (
          match Problem.direction p with
          | Problem.Maximize -> lp.objective >= ip.objective -. 1e-5
          | Problem.Minimize -> lp.objective <= ip.objective +. 1e-5)
      | _ -> true)

(* ---- randomized: warm-started vs cold solves ---- *)

let prop_warm_lp_matches_cold =
  QCheck.Test.make ~count:300 ~name:"warm-started LP matches cold solve"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let p = random_lp seed in
      match Simplex.solve p with
      | { Simplex.status = Solution.Optimal _; basis = Some b; _ } -> (
          (* tighten a few bounds, as branch & bound would *)
          let rng = Prng.create (seed + 77) in
          let vars = Problem.vars p in
          let n = Array.length vars in
          let lo = Array.map (fun (v : Problem.var_info) -> v.lo) vars in
          let hi = Array.map (fun (v : Problem.var_info) -> v.hi) vars in
          for _ = 1 to 1 + Prng.int rng 2 do
            let v = Prng.int rng n in
            if Prng.bool rng 0.5 then
              hi.(v) <- Float.max lo.(v) (hi.(v) /. 2.)
            else lo.(v) <- lo.(v) +. ((hi.(v) -. lo.(v)) /. 2.)
          done;
          let w = Sparse.solve_warm ~warm:b ~lo ~hi (Sparse.of_problem p) in
          let c = Simplex.solve ~lo ~hi p in
          match (w.Simplex.status, c.Simplex.status) with
          | Solution.Optimal a, Solution.Optimal b2 ->
              if Float.abs (a.objective -. b2.objective) > 1e-5 then
                QCheck.Test.fail_reportf "seed %d: warm=%.9g cold=%.9g" seed
                  a.objective b2.objective
              else true
          | Solution.Infeasible, Solution.Infeasible -> true
          | a, b2 ->
              QCheck.Test.fail_reportf "seed %d: warm=%a cold=%a" seed
                Solution.pp_status a Solution.pp_status b2)
      | _ -> true)

(* The satellite property from ISSUE 1: across random Wishbone ILP
   instances, warm-started branch & bound and cold branch & bound
   agree on feasibility and on the objective (within 1e-6 relative). *)
let prop_warm_bb_matches_cold_wishbone =
  QCheck.Test.make ~count:75
    ~name:"warm B&B matches cold B&B on Wishbone ILPs"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let spec =
        Apps.Synthetic.random_spec ~seed ~n_ops:(6 + (seed mod 8)) ()
      in
      let contracted = Wishbone.Preprocess.contract spec in
      let encoding =
        if seed mod 2 = 0 then Wishbone.Placement.Restricted
        else Wishbone.Placement.General
      in
      let enc =
        Wishbone.Placement.encode encoding (Wishbone.Placement.of_spec spec)
          contracted
      in
      let cold_opts =
        { Branch_bound.default_options with Branch_bound.warm_start = false }
      in
      let cold, _ = Branch_bound.solve ~options:cold_opts enc.problem in
      let warm, _ = Branch_bound.solve enc.problem in
      match (cold, warm) with
      | Solution.Optimal a, Solution.Optimal b ->
          let tol = 1e-6 *. Float.max 1. (Float.abs a.objective) in
          if Float.abs (a.objective -. b.objective) > tol then
            QCheck.Test.fail_reportf "seed %d: cold=%.9g warm=%.9g" seed
              a.objective b.objective
          else if Problem.constraint_violation enc.problem b.x > 1e-5 then
            QCheck.Test.fail_reportf "seed %d: warm solution infeasible" seed
          else true
      | Solution.Infeasible, Solution.Infeasible -> true
      | a, b ->
          QCheck.Test.fail_reportf "seed %d: cold=%a warm=%a" seed
            Solution.pp_status a Solution.pp_status b)

(* ---- sparse revised simplex ---- *)

let status_agrees ?(tol = 1e-5) seed tag (a : Solution.status)
    (b : Solution.status) =
  match (a, b) with
  | Solution.Optimal x, Solution.Optimal y ->
      let t = tol *. (1. +. Float.max (Float.abs x.objective) (Float.abs y.objective)) in
      if Float.abs (x.objective -. y.objective) > t then
        QCheck.Test.fail_reportf "seed %d: %s sparse=%.9g dense=%.9g" seed tag
          x.objective y.objective
      else true
  | Solution.Infeasible, Solution.Infeasible -> true
  | Solution.Unbounded, Solution.Unbounded -> true
  (* a pivot budget exhausting on either side is inconclusive *)
  | Solution.Iteration_limit, _ | _, Solution.Iteration_limit -> true
  | a, b ->
      QCheck.Test.fail_reportf "seed %d: %s sparse=%a dense=%a" seed tag
        Solution.pp_status a Solution.pp_status b

(* On random LPs the sparse revised simplex and the dense tableau
   agree on status and (within tolerance) on the objective: cold, and
   the sparse engine warm-started from the dense basis against a dense
   cold solve of the same bounds. *)
let prop_sparse_matches_dense =
  QCheck.Test.make ~count:1000 ~name:"sparse simplex matches dense (cold+warm)"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let p = Check.Gen.lp rng ~size:(3 + (seed mod 26)) in
      let data = Sparse.of_problem p in
      let dense = Simplex.solve p in
      let sparse = Sparse.solve_warm data in
      let cold_ok =
        status_agrees seed "cold" sparse.Simplex.status dense.Simplex.status
      in
      cold_ok
      &&
      (* tighten a bound branch&bound-style and warm the sparse solver
         from the *dense* basis: snapshots must be interchangeable *)
      match dense.Simplex.basis with
      | Some b when Solution.is_optimal dense.Simplex.status ->
          let vars = Problem.vars p in
          let n = Array.length vars in
          let lo = Array.map (fun (v : Problem.var_info) -> v.lo) vars in
          let hi = Array.map (fun (v : Problem.var_info) -> v.hi) vars in
          let v = Prng.int rng n in
          if Prng.bool rng 0.5 then
            hi.(v) <- Float.max lo.(v) (lo.(v) +. ((hi.(v) -. lo.(v)) /. 2.))
          else lo.(v) <- lo.(v) +. Float.min 2. ((hi.(v) -. lo.(v)) /. 2.);
          let dc = Simplex.solve ~lo ~hi p in
          let sw = Sparse.solve_warm ~warm:b ~lo ~hi data in
          status_agrees seed "warm" sw.Simplex.status dc.Simplex.status
      | _ -> true)

(* Forrest–Tomlin updates against a fresh refactorisation of the same
   basis: random sparse CSC with an identity head (so a nonsingular
   start exists), a run of random column replacements through
   {!Factor.update}, then FTRAN/BTRAN compared against a from-scratch
   {!Factor.factorize} of the final basis.  The two factors may pivot
   the same columns at different rows, so FTRAN coefficients are
   compared per column and BTRAN inputs are built through each
   factor's own slot convention. *)
let test_ft_update_vs_refresh () =
  let rng = Prng.create 42 in
  for _trial = 1 to 400 do
    let m = 3 + Prng.int rng 20 in
    let extra = 2 + Prng.int rng 20 in
    let ncols = m + extra in
    let cols =
      Array.init ncols (fun j ->
          if j < m then [ (j, 1.) ]
          else begin
            let nnz = 1 + Prng.int rng 4 in
            let seen = Hashtbl.create 4 in
            let l = ref [] in
            for _ = 1 to nnz do
              let i = Prng.int rng m in
              if not (Hashtbl.mem seen i) then begin
                Hashtbl.add seen i ();
                l := (i, Prng.uniform rng (-2.) 2.) :: !l
              end
            done;
            List.sort compare !l
          end)
    in
    let nnz = Array.fold_left (fun a l -> a + List.length l) 0 cols in
    let ptr = Array.make (ncols + 1) 0 in
    for j = 0 to ncols - 1 do
      ptr.(j + 1) <- ptr.(j) + List.length cols.(j)
    done;
    let idx = Array.make (Int.max 1 nnz) 0 in
    let vs = Array.make (Int.max 1 nnz) 0. in
    Array.iteri
      (fun j l ->
        List.iteri
          (fun k (i, v) ->
            idx.(ptr.(j) + k) <- i;
            vs.(ptr.(j) + k) <- v)
          l)
      cols;
    let basis = Array.init m (fun i -> i) in
    let f = Factor.create ~m in
    Alcotest.(check bool)
      "identity head factorises" true
      (Factor.factorize f ~basis ~ptr ~idx ~vs);
    let in_basis = Array.make ncols false in
    Array.iter (fun j -> in_basis.(j) <- true) basis;
    let n_updates = 1 + Prng.int rng 30 in
    let w = Array.make m 0. in
    (try
       for _ = 1 to n_updates do
         let q = ref (Prng.int rng ncols) in
         let guard = ref 0 in
         while in_basis.(!q) && !guard < 100 do
           q := Prng.int rng ncols;
           incr guard
         done;
         if not in_basis.(!q) then begin
           let q = !q in
           Array.fill w 0 m 0.;
           for p = ptr.(q) to ptr.(q + 1) - 1 do
             w.(idx.(p)) <- vs.(p)
           done;
           Factor.ftran f w;
           (* largest |w| row as pivot: always numerically acceptable *)
           let r = ref (-1) in
           let mag = ref 1e-6 in
           for i = 0 to m - 1 do
             if Float.abs w.(i) > !mag then begin
               mag := Float.abs w.(i);
               r := i
             end
           done;
           if !r >= 0 then begin
             Factor.update f ~w ~r:!r;
             in_basis.(basis.(!r)) <- false;
             basis.(!r) <- q;
             in_basis.(q) <- true;
             if Factor.needs_refresh f then raise Exit
           end
         end
       done
     with Exit -> ());
    let basis2 = Array.copy basis in
    let g = Factor.create ~m in
    if Factor.factorize g ~basis:basis2 ~ptr ~idx ~vs then begin
      let b = Array.init m (fun _ -> Prng.uniform rng (-1.) 1.) in
      let x1 = Array.copy b in
      let x2 = Array.copy b in
      Factor.ftran f x1;
      Factor.ftran g x2;
      let coef1 = Hashtbl.create m and coef2 = Hashtbl.create m in
      for r = 0 to m - 1 do
        Hashtbl.replace coef1 basis.(r) x1.(r);
        Hashtbl.replace coef2 basis2.(r) x2.(r)
      done;
      Hashtbl.iter
        (fun c v ->
          let v2 = try Hashtbl.find coef2 c with Not_found -> nan in
          if Float.abs (v -. v2) > 1e-6 || Float.is_nan v2 then
            Alcotest.failf
              "m=%d: FTRAN coefficient of column %d drifted: %.9g vs fresh \
               %.9g"
              m c v v2)
        coef1;
      let cost = Array.init ncols (fun _ -> Prng.uniform rng (-1.) 1.) in
      let y1 = Array.init m (fun r -> cost.(basis.(r))) in
      let y2 = Array.init m (fun r -> cost.(basis2.(r))) in
      Factor.btran f y1;
      Factor.btran g y2;
      for i = 0 to m - 1 do
        if Float.abs (y1.(i) -. y2.(i)) > 1e-6 then
          Alcotest.failf "m=%d: BTRAN row %d drifted: %.9g vs fresh %.9g" m i
            y1.(i) y2.(i)
      done
    end
  done

(* A factor snapshot must replay the identical factorisation: restore
   into a workspace whose state was clobbered by other work, and both
   FTRAN and BTRAN must agree exactly with the factor that was saved —
   saved right after a refactorisation, and again after Forrest–Tomlin
   updates have filed row etas. *)
let test_factor_snapshot_roundtrip () =
  let m = 12 in
  let ncols = 2 * m in
  (* identity head, then diagonally dominant columns: any mix of the
     two factorises.  Their values differ column to column, so a row
     eta restored from stale entries cannot pass for the saved one. *)
  let cols =
    Array.init ncols (fun j ->
        if j < m then [ (j, 1.) ]
        else
          let k = Float.of_int (j - m) in
          List.sort compare
            [ (j - m, 2. +. (0.1 *. k));
              ((j - m + 1) mod m, 0.5 +. (0.03 *. k)) ])
  in
  let nnz = Array.fold_left (fun a l -> a + List.length l) 0 cols in
  let ptr = Array.make (ncols + 1) 0 in
  for j = 0 to ncols - 1 do
    ptr.(j + 1) <- ptr.(j) + List.length cols.(j)
  done;
  let idx = Array.make nnz 0 and vs = Array.make nnz 0. in
  Array.iteri
    (fun j l ->
      List.iteri
        (fun k (i, v) ->
          idx.(ptr.(j) + k) <- i;
          vs.(ptr.(j) + k) <- v)
        l)
    cols;
  let f = Factor.create ~m in
  (* factorise [basis], then let each entering column replace the slot
     of its largest FTRAN entry, as a simplex pivot would *)
  let factor_and_update tag basis entering =
    Alcotest.(check bool) (tag ^ ": factorises") true
      (Factor.factorize f ~basis ~ptr ~idx ~vs);
    let w = Array.make m 0. in
    List.iter
      (fun q ->
        Array.fill w 0 m 0.;
        for p = ptr.(q) to ptr.(q + 1) - 1 do
          w.(idx.(p)) <- vs.(p)
        done;
        Factor.ftran f w;
        let r = ref 0 in
        Array.iteri
          (fun i v -> if Float.abs v > Float.abs w.(!r) then r := i)
          w;
        Factor.update f ~w ~r:!r;
        basis.(!r) <- q)
      entering
  in
  let roundtrip ~entering =
    let tag = Printf.sprintf "%d updates" (List.length entering) in
    factor_and_update tag
      (Array.init m (fun i -> if i mod 2 = 0 then i else m + i))
      entering;
    if entering <> [] then
      Alcotest.(check bool) (tag ^ ": row etas filed") true
        (Factor.ft_entries f > 0);
    let snap = Factor.snapshot_create ~m in
    Factor.save f snap;
    let probe = Array.init m (fun i -> Float.of_int (i + 1) /. 7.) in
    let want_f = Array.copy probe in
    Factor.ftran f want_f;
    let want_b = Array.copy probe in
    Factor.btran f want_b;
    (* clobber the workspace with a different basis and row etas, then
       restore *)
    factor_and_update (tag ^ ": clobber")
      (Array.init m (fun i -> if i mod 2 = 1 then i else m + i))
      [ 0; m + 3; 6; m + 7; m + 11; 2; m + 5; 8; m + 9; 4; 10 ];
    Factor.restore snap f;
    let got_f = Array.copy probe in
    Factor.ftran f got_f;
    let got_b = Array.copy probe in
    Factor.btran f got_b;
    for i = 0 to m - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "%s: ftran slot %d identical" tag i)
        true
        (Float.equal want_f.(i) got_f.(i));
      Alcotest.(check bool)
        (Printf.sprintf "%s: btran slot %d identical" tag i)
        true
        (Float.equal want_b.(i) got_b.(i))
    done
  in
  roundtrip ~entering:[];
  roundtrip ~entering:[ 1; m; m + 4; 7; m + 10 ]

(* Sessions are a pure performance vehicle: a sequence of warm
   bound-tightened solves through one session must return bit-identical
   results to fresh per-solve state. *)
let test_sparse_session_identical () =
  let rng = Prng.create 11 in
  for case = 1 to 40 do
    let p = Check.Gen.lp rng ~size:(4 + (case mod 20)) in
    let data = Sparse.of_problem p in
    let ses = Sparse.session data in
    let r0 = Sparse.solve_warm data in
    match (r0.Simplex.status, r0.Simplex.basis) with
    | Solution.Optimal _, Some warm ->
        let vars = Problem.vars p in
        let n = Array.length vars in
        let lo = Array.map (fun (v : Problem.var_info) -> v.lo) vars in
        let hi = Array.map (fun (v : Problem.var_info) -> v.hi) vars in
        for _round = 1 to 6 do
          let v = Prng.int rng n in
          if Prng.bool rng 0.5 then
            hi.(v) <- Float.max lo.(v) (lo.(v) +. ((hi.(v) -. lo.(v)) /. 2.))
          else lo.(v) <- lo.(v) +. Float.min 2. ((hi.(v) -. lo.(v)) /. 2.);
          let plain = Sparse.solve_warm ~warm ~lo ~hi data in
          let pooled = Sparse.solve_warm ~warm ~lo ~hi ~session:ses data in
          (match (plain.Simplex.status, pooled.Simplex.status) with
          | Solution.Optimal a, Solution.Optimal b ->
              if not (Float.equal a.objective b.objective && a.x = b.x) then
                Alcotest.failf
                  "case %d: session solve diverged: %.17g vs %.17g" case
                  a.objective b.objective
          | a, b ->
              if a <> b then
                Alcotest.failf "case %d: session status diverged" case);
          Alcotest.(check bool)
            "same warm acceptance" plain.Simplex.warm_used
            pooled.Simplex.warm_used;
          Alcotest.(check bool) "same basis" true
            (Option.equal Basis.equal plain.Simplex.basis pooled.Simplex.basis);
          Alcotest.(check int) "same pivots" plain.Simplex.pivots
            pooled.Simplex.pivots
        done
    | _ -> ()
  done

let test_sparse_edge_cases () =
  (* equality rows, negative bounds, duplicate terms, an infeasible
     system, and an unbounded ray — the dense suite's corner cases
     replayed through the sparse solver *)
  let check_pair name build =
    let p = build () in
    let d = (Simplex.solve p).status in
    let s = (Sparse.solve_warm (Sparse.of_problem p)).status in
    match (d, s) with
    | Solution.Optimal a, Solution.Optimal b ->
        check_close (name ^ ": objective") a.objective b.objective
    | a, b ->
        if a <> b then
          Alcotest.failf "%s: dense=%a sparse=%a" name Solution.pp_status a
            Solution.pp_status b
  in
  check_pair "equality" (fun () ->
      let p = Problem.create () in
      let x = Problem.add_var p and y = Problem.add_var p in
      Problem.add_constr p [ (x, 1.); (y, 1.) ] Problem.Eq 4.;
      Problem.add_constr p [ (x, 1.); (y, -1.) ] Problem.Le 1.;
      Problem.set_objective p Problem.Maximize [ (x, 3.); (y, 1.) ];
      p);
  check_pair "negative domain" (fun () ->
      let p = Problem.create () in
      let x = Problem.add_var ~lo:(-5.) ~hi:5. p in
      let y = Problem.add_var ~lo:(-3.) ~hi:0. p in
      Problem.add_constr p [ (x, 1.); (y, 2.) ] Problem.Ge (-4.);
      Problem.set_objective p Problem.Minimize [ (x, 1.); (y, 1.) ];
      p);
  check_pair "duplicate terms" (fun () ->
      let p = Problem.create () in
      let x = Problem.add_var ~hi:10. p in
      Problem.add_constr p [ (x, 1.); (x, 1.) ] Problem.Le 6.;
      Problem.set_objective p Problem.Maximize [ (x, 1.) ];
      p);
  check_pair "infeasible" (fun () ->
      let p = Problem.create () in
      let x = Problem.add_var ~hi:1. p in
      Problem.add_constr p [ (x, 1.) ] Problem.Ge 2.;
      p);
  check_pair "unbounded" (fun () ->
      let p = Problem.create () in
      let x = Problem.add_var p in
      Problem.set_objective p Problem.Maximize [ (x, 1.) ];
      p);
  check_pair "no constraints" (fun () ->
      let p = Problem.create () in
      let x = Problem.add_var ~hi:7. p in
      Problem.set_objective p Problem.Maximize [ (x, 2.) ];
      p);
  check_pair "mixed row scales" (fun () ->
      let p = Problem.create () in
      let x = Problem.add_var ~hi:100. p and y = Problem.add_var ~hi:100. p in
      Problem.add_constr p [ (x, 4000.); (y, 1200.) ] Problem.Le 120_000.;
      Problem.add_constr p [ (x, 0.002); (y, 0.009) ] Problem.Le 0.4;
      Problem.set_objective p Problem.Maximize [ (x, 5.); (y, 4.) ];
      p)

let test_sparse_basis_roundtrip () =
  (* a basis the dense cold reference records must warm-start the
     sparse solver *)
  let p = Problem.create () in
  let vars = Array.init 8 (fun _ -> Problem.add_var ~hi:4. p) in
  Array.iteri
    (fun i v ->
      Problem.add_constr p
        [ (v, 1.); (vars.((i + 1) mod 8), 1.) ]
        Problem.Le 5.)
    vars;
  Problem.set_objective p Problem.Maximize
    (Array.to_list (Array.mapi (fun i v -> (v, Float.of_int (1 + (i mod 3)))) vars));
  let data = Sparse.of_problem p in
  let s = Sparse.solve_warm data in
  let db =
    match (Simplex.solve p).Simplex.basis with
    | Some b -> b
    | None -> Alcotest.fail "dense solve returned no basis"
  in
  let s2 = Sparse.solve_warm ~warm:db data in
  Alcotest.(check bool) "sparse accepts dense basis" true s2.Simplex.warm_used;
  check_close "objectives agree"
    (Solution.get s.Simplex.status).objective
    (Solution.get s2.Simplex.status).objective

(* ---- branch & bound against exhaustive enumeration ---- *)

(* Branch & bound on the fuzz generator's ILPs against [Brute], which
   enumerates the integer points and shares only the dense LP with the
   search.  Every instance has at most four rows, so this holds the
   sparse engine to exhaustive enumeration on the smallest models it
   solves. *)
let prop_bb_matches_brute_gen =
  QCheck.Test.make ~count:120 ~name:"B&B matches brute force (Gen.ilp)"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let p = Check.Gen.ilp rng ~size:(3 + (seed mod 10)) in
      match (fst (Branch_bound.solve p), Brute.solve p) with
      | Solution.Optimal a, Solution.Optimal b ->
          let tol = 1e-6 *. Float.max 1. (Float.abs b.objective) in
          if Float.abs (a.objective -. b.objective) > tol then
            QCheck.Test.fail_reportf "seed %d: bb=%.9g brute=%.9g" seed
              a.objective b.objective
          else if Problem.constraint_violation p a.x > 1e-5 then
            QCheck.Test.fail_reportf "seed %d: bb solution infeasible" seed
          else true
      | Solution.Infeasible, Solution.Infeasible -> true
      | Solution.Iteration_limit, _ -> true
      | a, b ->
          QCheck.Test.fail_reportf "seed %d: bb=%a brute=%a" seed
            Solution.pp_status a Solution.pp_status b)

let test_bb_deterministic () =
  (* same problem, solved twice: bit-identical solution vectors *)
  let p = random_problem 4242 in
  match (Branch_bound.solve p, Branch_bound.solve p) with
  | (Solution.Optimal a, _), (Solution.Optimal b, _) ->
      Alcotest.(check bool) "reproducible" true
        (a.x = b.x && a.objective = b.objective)
  | (a, _), (b, _) ->
      Alcotest.(check string) "same status"
        (Format.asprintf "%a" Solution.pp_status a)
        (Format.asprintf "%a" Solution.pp_status b)

let knapsack12 () =
  let p = Problem.create () in
  let vars = Array.init 12 (fun _ -> Problem.add_var ~hi:1. ~integer:true p) in
  Problem.add_constr p
    (Array.to_list (Array.mapi (fun i v -> (v, Float.of_int (i + 2))) vars))
    Problem.Le 31.;
  Problem.set_objective p Problem.Maximize
    (Array.to_list
       (Array.mapi (fun i v -> (v, Float.of_int ((i * 5 mod 13) + 1))) vars));
  p

(* A 0-1 knapsack over [n] items with 48 capacity rows, each at half
   its row's total weight. *)
let multi_knapsack seed ~n () =
  let rng = Prng.create seed in
  let p = Problem.create () in
  let vars = Array.init n (fun _ -> Problem.add_var ~hi:1. ~integer:true p) in
  for _ = 1 to 48 do
    let w = Array.map (fun _ -> Float.of_int (1 + Prng.int rng 9)) vars in
    Problem.add_constr p
      (Array.to_list (Array.mapi (fun i v -> (v, w.(i))) vars))
      Problem.Le
      (Float.round (Array.fold_left ( +. ) 0. w /. 2.))
  done;
  Problem.set_objective p Problem.Maximize
    (Array.to_list
       (Array.map (fun v -> (v, Float.of_int (1 + Prng.int rng 20))) vars));
  p

let test_knapsack_matches_brute () =
  let p = knapsack12 () in
  let st, stats = Branch_bound.solve p in
  check_close "optimum" (Solution.get (Brute.solve p)).objective
    (Solution.get st).objective;
  Alcotest.(check bool) "proved" true stats.Branch_bound.proved_optimal

(* Work counters and objective bits of the sequential search: nodes,
   LP solves and pivots, the factor work (refactorisations,
   Forrest–Tomlin updates and their row-eta entries), under the
   default options and one pivot-budgeted run.  [None] is a budgeted
   run that ends without an incumbent.  The 48-row knapsack pins a
   search of 78 nodes of mostly one-refactorisation warm re-solves. *)
let test_bb_stats_pinned () =
  let ilp seed size () = Check.Gen.ilp (Prng.create seed) ~size in
  List.iter
    (fun (tag, build, pivot_budget, (nodes, lps, pivots, proved),
          (refac, ft_updates, ft_entries), obj) ->
      let options = { Branch_bound.default_options with pivot_budget } in
      let c0 = Sparse.counters () and fb0 = Sparse.dense_fallbacks () in
      let st, s = Branch_bound.solve ~options (build ()) in
      let c1 = Sparse.counters () in
      let ck what = Alcotest.(check int) (tag ^ " " ^ what) in
      ck "nodes" nodes s.Branch_bound.nodes_explored;
      ck "LP solves" lps s.Branch_bound.lp_solves;
      ck "hot solves" 0 s.Branch_bound.hot_solves;
      ck "pivots" pivots s.Branch_bound.total_pivots;
      ck "refactorisations" refac
        (c1.Sparse.refactorisations - c0.Sparse.refactorisations);
      ck "FT updates" ft_updates (c1.Sparse.ft_updates - c0.Sparse.ft_updates);
      ck "FT entries" ft_entries (c1.Sparse.ft_entries - c0.Sparse.ft_entries);
      ck "dense fallbacks" 0 (Sparse.dense_fallbacks () - fb0);
      Alcotest.(check bool) (tag ^ " proved") proved
        s.Branch_bound.proved_optimal;
      Alcotest.(check (option int64)) (tag ^ " objective bits") obj
        (match st with
        | Solution.Optimal x -> Some (Int64.bits_of_float x.objective)
        | Solution.Iteration_limit -> None
        | st -> Alcotest.failf "%s: %a" tag Solution.pp_status st))
    [
      ("knapsack", knapsack12, max_int, (5, 9, 30, true), (5, 15, 0),
       Some 0x4048800000000000L);
      ("ilp 79", ilp 79 12, max_int, (7, 13, 32, true), (5, 15, 1),
       Some 0x401c000000000000L);
      ("ilp 231", ilp 231 21, max_int, (9, 17, 39, true), (8, 21, 9),
       Some 0xc018000000000000L);
      ("ilp 271", ilp 271 4, max_int, (9, 17, 41, true), (9, 23, 18),
       Some 0x3ff0000000000000L);
      ("knapsack, 30 pivots", knapsack12, 30, (4, 9, 30, false), (5, 15, 0),
       None);
      ("48-row knapsack", multi_knapsack 1 ~n:16, max_int,
       (78, 155, 814, true), (79, 653, 3645), Some 0x4056000000000000L);
    ]

(* ---- delta-encoded node bounds ---- *)

(* Replaying a root-to-leaf delta chain must agree with eagerly
   maintained bound arrays after every tightening, for random chains
   that revisit variables (later deltas shadow earlier ones). *)
let test_delta_bounds_roundtrip () =
  let rng = Prng.create 23 in
  for _case = 1 to 200 do
    let n = 2 + Prng.int rng 10 in
    let lo0 = Array.init n (fun _ -> Float.of_int (Prng.int rng 3)) in
    let hi0 =
      Array.init n (fun i -> lo0.(i) +. Float.of_int (2 + Prng.int rng 6))
    in
    let eager_lo = Array.copy lo0 and eager_hi = Array.copy hi0 in
    let deltas = ref [] in
    let depth = Prng.int rng 12 in
    for _ = 1 to depth do
      let v = Prng.int rng n in
      let bup = Prng.bool rng 0.5 in
      let bval =
        if bup then Float.min eager_hi.(v) (eager_lo.(v) +. 1.)
        else Float.max eager_lo.(v) (eager_hi.(v) -. 1.)
      in
      if bup then eager_lo.(v) <- bval else eager_hi.(v) <- bval;
      (* chains are stored leaf-first and replayed root-first *)
      deltas := { Branch_bound.bvar = v; bup; bval } :: !deltas
    done;
    let lo, hi = Branch_bound.materialise ~lo0 ~hi0 (List.rev !deltas) in
    if not (lo = eager_lo && hi = eager_hi) then
      Alcotest.failf "delta chain of depth %d does not round-trip" depth
  done;
  (* an empty chain must reproduce the root bounds and not alias them *)
  let lo0 = [| 0.; 1. |] and hi0 = [| 5.; 6. |] in
  let lo, hi = Branch_bound.materialise ~lo0 ~hi0 [] in
  Alcotest.(check bool) "empty chain equals root" true (lo = lo0 && hi = hi0);
  lo.(0) <- 99.;
  hi.(0) <- 99.;
  Alcotest.(check bool) "materialised arrays are copies" true
    (lo0.(0) = 0. && hi0.(0) = 5.)

(* ---- pqueue ---- *)

let test_pqueue_order () =
  let q = Heap.Pqueue.create () in
  let rng = Prng.create 9 in
  let items = List.init 500 (fun i -> (Prng.float rng, i)) in
  List.iter (fun (k, v) -> Heap.Pqueue.push q k v) items;
  Alcotest.(check int) "length" 500 (Heap.Pqueue.length q);
  let rec drain last acc =
    match Heap.Pqueue.pop q with
    | None -> acc
    | Some (k, _) ->
        if k < last then Alcotest.fail "heap order violated";
        drain k (acc + 1)
  in
  Alcotest.(check int) "drained" 500 (drain neg_infinity 0)

let test_pqueue_empty () =
  let q = Heap.Pqueue.create () in
  Alcotest.(check bool) "empty" true (Heap.Pqueue.is_empty q);
  Alcotest.(check bool) "pop none" true (Heap.Pqueue.pop q = None);
  Alcotest.(check bool) "min none" true (Heap.Pqueue.min_key q = None)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          tc "basic max" test_lp_basic;
          tc "degenerate" test_lp_degenerate;
          tc "equality" test_lp_equality;
          tc "negative rhs" test_lp_negative_rhs;
          tc "upper bounds" test_lp_upper_bounds;
          tc "negative domain" test_lp_free_negative_lo;
          tc "infeasible" test_lp_infeasible;
          tc "unbounded" test_lp_unbounded;
          tc "no constraints" test_lp_no_constraints;
          tc "fixed variable" test_lp_fixed_var;
          tc "duplicate terms" test_lp_duplicate_terms;
          tc "bound override" test_lp_bound_override;
          tc "conflicting override" test_lp_conflicting_override;
          tc "mixed scale budgets" test_lp_mixed_scale;
        ] );
      ( "problem", [ tc "lazy names render as before" test_lazy_names_render ] );
      ( "branch_bound",
        [
          tc "knapsack" test_ilp_knapsack;
          tc "integrality matters" test_ilp_integrality_matters;
          tc "infeasible" test_ilp_infeasible;
          tc "equality binaries" test_ilp_gap_between_lp_and_ip;
          tc "mixed integer" test_ilp_mixed_integer;
          tc "incumbent trace" test_ilp_incumbent_trace;
          tc "stats pinned" test_bb_stats_pinned;
        ] );
      ( "warm_start",
        [
          tc "bound change" test_warm_bound_change;
          tc "detects infeasible" test_warm_detects_infeasible;
          tc "keeps the cold verdict" test_warm_keeps_cold_verdict;
          tc "rescaled coefficients" test_warm_rescaled_coefficients;
          tc "most-fractional branching" test_fractional_var_most_fractional;
          tc "warm B&B = cold B&B" test_bb_warm_matches_cold_knapsack;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_bb_matches_brute;
          QCheck_alcotest.to_alcotest prop_lp_feasible_optimal;
          QCheck_alcotest.to_alcotest prop_lp_relaxation_bounds_ilp;
          QCheck_alcotest.to_alcotest prop_warm_lp_matches_cold;
          QCheck_alcotest.to_alcotest prop_warm_bb_matches_cold_wishbone;
        ] );
      ( "sparse",
        [
          tc "edge cases" test_sparse_edge_cases;
          tc "basis round-trip" test_sparse_basis_roundtrip;
          tc "session bit-identical" test_sparse_session_identical;
          QCheck_alcotest.to_alcotest prop_sparse_matches_dense;
        ] );
      ( "factor",
        [
          tc "FT updates vs fresh refactorise" test_ft_update_vs_refresh;
          tc "snapshot round-trip" test_factor_snapshot_roundtrip;
        ] );
      (* the group's tests once also ran a parallel search; they now
         hold branch & bound to exhaustive enumeration and to itself *)
      ( "parallel",
        [
          tc "knapsack matches brute force" test_knapsack_matches_brute;
          tc "deterministic" test_bb_deterministic;
          tc "delta bounds round-trip" test_delta_bounds_roundtrip;
          QCheck_alcotest.to_alcotest prop_bb_matches_brute_gen;
        ] );
      ( "pqueue",
        [ tc "heap order" test_pqueue_order; tc "empty" test_pqueue_empty ] );
    ]
