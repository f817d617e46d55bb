type options = {
  max_nodes : int;
  int_tol : float;
  gap_tol : float;
  time_limit : float;
  pivot_budget : int;
  on_node : (nodes:int -> pivots:int -> unit) option;
  warm_start : bool;
  simplex : Simplex.options;
}

let default_options =
  {
    max_nodes = 200_000;
    int_tol = 1e-6;
    gap_tol = 0.;
    time_limit = infinity;
    pivot_budget = max_int;
    on_node = None;
    warm_start = true;
    simplex = Simplex.default_options;
  }

type stats = {
  nodes_explored : int;
  lp_solves : int;
  hot_solves : int;
  total_pivots : int;
  time_to_incumbent : float;
  time_total : float;
  proved_optimal : bool;
  best_bound : float;
  incumbent_trace : (float * float) list;
  root_basis : Basis.t option;
}

(* Node bounds are delta-encoded: each node records only the single
   bound its branch tightened relative to its parent, and the full
   [lo]/[hi] arrays are materialised when the node is popped for
   expansion.  A tree of N open nodes then costs O(N) bound storage
   instead of O(N * vars), and pushing a child is O(1).  Bounds only
   tighten down a path, so replaying the deltas root-to-leaf with
   plain assignments reproduces the eager arrays exactly. *)
type bound_delta = {
  bvar : int;  (* branching variable; -1 on the root *)
  bup : bool;  (* true: raise lo to bval; false: lower hi to bval *)
  bval : float;
}

let no_delta = { bvar = -1; bup = false; bval = 0. }

let materialise ~lo0 ~hi0 deltas =
  let lo = Array.copy lo0 and hi = Array.copy hi0 in
  List.iter
    (fun d -> if d.bup then lo.(d.bvar) <- d.bval else hi.(d.bvar) <- d.bval)
    deltas;
  (lo, hi)

type node = {
  parent : node option;  (* branching chain up to the root *)
  delta : bound_delta;  (* the one bound this node tightened *)
  relax : Solution.t;
  basis : Basis.t option;  (* optimal basis of this node's relaxation *)
}

let deltas_of_node node =
  let rec go nd acc =
    match nd.parent with None -> acc | Some p -> go p (nd.delta :: acc)
  in
  go node []

(* Most fractional integer variable, or [None] when integral within
   [int_tol]: score each candidate by its distance to the nearest
   integer (so a fractional part of .5 scores highest) and take the
   maximum, breaking ties towards the lowest index so the branching
   choice is deterministic. *)
let fractional_var ~int_tol int_vars (x : float array) =
  let best = ref None in
  let best_score = ref int_tol in
  List.iter
    (fun v ->
      let f = x.(v) -. Float.floor x.(v) in
      let score = Float.min f (1. -. f) in
      if score > !best_score then begin
        best_score := score;
        best := Some v
      end)
    int_vars;
  !best

let snap ~int_tol int_vars (x : float array) =
  let x = Array.copy x in
  List.iter
    (fun v ->
      let r = Float.round x.(v) in
      if Float.abs (x.(v) -. r) <= int_tol *. 10. then x.(v) <- r)
    int_vars;
  x

(* Deterministic incumbent tie-breaking: when two integer leaves the
   search reaches have (numerically) the same objective, keep the
   lexicographically smallest point.  A tied leaf that is never
   reached is never compared: a subtree whose bound only ties the
   incumbent is pruned ([key >= incumbent_key - 1e-12]). *)
let lex_smaller (a : float array) (b : float array) =
  let n = Array.length a in
  let rec go i =
    if i >= n then false
    else if a.(i) < b.(i) -. 1e-9 then true
    else if a.(i) > b.(i) +. 1e-9 then false
    else go (i + 1)
  in
  go 0

let solve ?(options = default_options) ?initial ?root_basis problem =
  let t0 = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t0 in
  let minimize = Problem.direction problem = Problem.Minimize in
  (* internal keys are always "minimize": smaller is better *)
  let key_of_obj obj = if minimize then obj else -.obj in
  let obj_of_key key = if minimize then key else -.key in
  let vars = Problem.vars problem in
  let int_vars = Problem.integer_vars problem in
  let sdata = Sparse.of_problem problem in
  (* one reusable sparse solve session: state arrays are pooled across
     solves, and re-solving the warm basis the session last
     refactorised (the second child of every node) restores the
     snapshotted factorisation instead of rebuilding it.  Sessions
     never change results, only the work to reach them. *)
  let session = Sparse.session sdata in
  let lp_solves = ref 0 in
  let pivots = ref 0 in
  let root_b = ref None in
  (* one LP relaxation solve; [simplex] carries the per-solve pivot cap
     derived from the tree-wide budget *)
  let relaxation ~simplex ~warm ~lo ~hi =
    let warm = if options.warm_start then warm else None in
    Sparse.solve_warm ~options:simplex ?warm ~lo ~hi ~session sdata
  in
  (* the tree-wide pivot budget, capped into each LP solve so a single
     relaxation cannot blow through it unboundedly.  With the default
     unlimited budget this returns [options.simplex] itself, keeping
     the budget-free path bit-identical. *)
  let budgeted_simplex () =
    if options.pivot_budget = max_int then options.simplex
    else
      { options.simplex with
        Simplex.max_pivots =
          Int.min options.simplex.Simplex.max_pivots
            (Int.max 1 (options.pivot_budget - !pivots)) }
  in
  (* cooperative checkpoint: deterministic counters out, exceptions
     (fault injection) propagate to the caller *)
  let on_node ~nodes ~pivots =
    match options.on_node with Some f -> f ~nodes ~pivots | None -> ()
  in
  let account (r : Simplex.result) =
    incr lp_solves;
    pivots := !pivots + r.Simplex.pivots
  in
  let lo0 = Array.map (fun (v : Problem.var_info) -> v.lo) vars in
  let hi0 = Array.map (fun (v : Problem.var_info) -> v.hi) vars in
  let finish status ~proved ~best_bound ~t_inc ~nodes ~trace =
    ( status,
      {
        nodes_explored = nodes;
        lp_solves = !lp_solves;
        hot_solves = 0;
        total_pivots = !pivots;
        time_to_incumbent = t_inc;
        time_total = elapsed ();
        proved_optimal = proved;
        best_bound;
        incumbent_trace = List.rev trace;
        root_basis = !root_b;
      } )
  in
  on_node ~nodes:0 ~pivots:0;
  let root =
    relaxation ~simplex:(budgeted_simplex ()) ~warm:root_basis ~lo:lo0 ~hi:hi0
  in
  account root;
  root_b := root.Simplex.basis;
  match root.Simplex.status with
  | Solution.Infeasible ->
      finish Solution.Infeasible ~proved:true ~best_bound:nan ~t_inc:0.
        ~nodes:0 ~trace:[]
  | Solution.Unbounded ->
      finish Solution.Unbounded ~proved:true ~best_bound:nan ~t_inc:0. ~nodes:0
        ~trace:[]
  | Solution.Iteration_limit ->
      finish Solution.Iteration_limit ~proved:false ~best_bound:nan ~t_inc:0.
        ~nodes:0 ~trace:[]
  | Solution.Optimal root_relax -> (
      let open_nodes : node Heap.Pqueue.t = Heap.Pqueue.create () in
      let root_node =
        { parent = None; delta = no_delta; relax = root_relax;
          basis = root.Simplex.basis }
      in
      Heap.Pqueue.push open_nodes (key_of_obj root_relax.objective) root_node;
      let node_bounds node = materialise ~lo0 ~hi0 (deltas_of_node node) in
      let incumbent = ref None in
      let incumbent_key = ref infinity in
      let t_incumbent = ref 0. in
      let trace = ref [] in
      let nodes = ref 0 in
      let hit_budget = ref false in
      let try_incumbent (sol : Solution.t) =
        let x = snap ~int_tol:options.int_tol int_vars sol.x in
        let obj = Problem.objective_value problem x in
        let key = key_of_obj obj in
        if Problem.constraint_violation problem x <= 1e-5 then begin
          if key < !incumbent_key -. 1e-12 then begin
            incumbent := Some { Solution.x; objective = obj };
            incumbent_key := key;
            t_incumbent := elapsed ();
            trace := (!t_incumbent, obj) :: !trace
          end
          else if key <= !incumbent_key +. 1e-12 then
            match !incumbent with
            | Some cur when lex_smaller x cur.Solution.x ->
                (* numerically tied objective: keep the canonical
                   (lexicographically smallest) point *)
                incumbent := Some { Solution.x; objective = obj };
                incumbent_key := Float.min key !incumbent_key
            | _ -> ()
        end
      in
      (* incremental callers (rate search) seed the incumbent with the
         previous step's feasible point: a valid primal bound that lets
         best-first search prune most of the tree immediately *)
      (match initial with
      | Some x0 when Array.length x0 = Array.length lo0 ->
          try_incumbent
            { Solution.x = x0; objective = Problem.objective_value problem x0 }
      | _ -> ());
      let gap_closed bound_key =
        match !incumbent with
        | None -> false
        | Some _ ->
            let gap = !incumbent_key -. bound_key in
            gap <= options.gap_tol *. Float.max 1. (Float.abs !incumbent_key)
                   +. 1e-9
      in
      (* push a solved child unless the incumbent already beats it *)
      let push_child node (r : Simplex.result) delta =
        account r;
        match r.Simplex.status with
        | Solution.Optimal relax ->
            let key = key_of_obj relax.Solution.objective in
            if key < !incumbent_key -. 1e-12 then begin
              let child =
                { parent = Some node; delta; relax; basis = r.Simplex.basis }
              in
              Heap.Pqueue.push open_nodes key child
            end
        | Solution.Infeasible -> ()
        | Solution.Unbounded ->
            (* a bounded parent cannot have an unbounded child; treat as
               numerical noise *)
            ()
        | Solution.Iteration_limit -> hit_budget := true
      in
      (* both children of [node] on variable [v], each warm-started
         from the node's optimal basis *)
      let expand node v =
        let simplex = budgeted_simplex () in
        let lo, hi = node_bounds node in
        let xv = node.relax.x.(v) in
        let fl = Float.of_int (int_of_float (Float.floor xv)) in
        let ce = Float.of_int (int_of_float (Float.ceil xv)) in
        let hi_down = Array.copy hi in
        hi_down.(v) <- fl;
        let lo_up = Array.copy lo in
        lo_up.(v) <- ce;
        let down = relaxation ~simplex ~warm:node.basis ~lo ~hi:hi_down in
        let up = relaxation ~simplex ~warm:node.basis ~lo:lo_up ~hi in
        push_child node down { bvar = v; bup = false; bval = fl };
        push_child node up { bvar = v; bup = true; bval = ce }
      in
      let continue = ref true in
      while !continue do
        match Heap.Pqueue.min_key open_nodes with
        | None -> continue := false
        | Some bound_key when gap_closed bound_key -> continue := false
        | Some _ -> (
            on_node ~nodes:!nodes ~pivots:!pivots;
            if
              !nodes >= options.max_nodes
              || !pivots >= options.pivot_budget
              || elapsed () > options.time_limit
            then begin
              hit_budget := true;
              continue := false
            end
            else
              match Heap.Pqueue.pop open_nodes with
              | None -> continue := false
              | Some (key, node) ->
                  (* stale-node pruning: the bound was checked when the
                     node was pushed, but the incumbent may have
                     improved since; discard without branching *)
                  if not (key >= !incumbent_key -. 1e-12 || gap_closed key)
                  then begin
                    incr nodes;
                    match
                      fractional_var ~int_tol:options.int_tol int_vars
                        node.relax.x
                    with
                    | None -> try_incumbent node.relax
                    | Some v -> expand node v
                  end)
      done;
      let best_bound_key =
        match Heap.Pqueue.min_key open_nodes with
        | Some k -> Float.min k !incumbent_key
        | None -> !incumbent_key
      in
      match !incumbent with
      | Some sol ->
          let proved = (not !hit_budget) || gap_closed best_bound_key in
          finish (Solution.Optimal sol) ~proved
            ~best_bound:(obj_of_key best_bound_key) ~t_inc:!t_incumbent
            ~nodes:!nodes ~trace:!trace
      | None ->
          if !hit_budget then
            finish Solution.Iteration_limit ~proved:false
              ~best_bound:(obj_of_key best_bound_key) ~t_inc:0. ~nodes:!nodes
              ~trace:!trace
          else
            finish Solution.Infeasible ~proved:true ~best_bound:nan ~t_inc:0.
              ~nodes:!nodes ~trace:[])
