type oracle =
  | Lp_certificate
  | Ilp_brute
  | Cut_enumeration
  | Split_equivalence
  | Degradation
  | Placement_equivalence
  | Service_equivalence
  | Degraded_soundness
  | Tree_equivalence
  | Sched_equivalence

let all_oracles =
  [ Lp_certificate; Ilp_brute; Cut_enumeration; Split_equivalence;
    Degradation; Placement_equivalence; Service_equivalence;
    Degraded_soundness; Tree_equivalence; Sched_equivalence ]

let oracle_name = function
  | Lp_certificate -> "lp-certificate"
  | Ilp_brute -> "ilp-brute"
  | Cut_enumeration -> "cut-enumeration"
  | Split_equivalence -> "split-equivalence"
  | Degradation -> "degradation"
  | Placement_equivalence -> "placement-equivalence"
  | Service_equivalence -> "service-equivalence"
  | Degraded_soundness -> "degraded-soundness"
  | Tree_equivalence -> "tree-equivalence"
  | Sched_equivalence -> "sched-equivalence"

let oracle_of_name s =
  let s = String.lowercase_ascii (String.trim s) in
  (* "placement", "service", "degraded", "tree" and "sched" are short
     aliases *)
  if s = "placement" then Some Placement_equivalence
  else if s = "service" then Some Service_equivalence
  else if s = "degraded" then Some Degraded_soundness
  else if s = "tree" then Some Tree_equivalence
  else if s = "sched" then Some Sched_equivalence
  else List.find_opt (fun o -> oracle_name o = s) all_oracles

let oracle_index = function
  | Lp_certificate -> 0
  | Ilp_brute -> 1
  | Cut_enumeration -> 2
  | Split_equivalence -> 3
  | Degradation -> 4
  | Placement_equivalence -> 5
  | Service_equivalence -> 6
  | Degraded_soundness -> 7
  | Tree_equivalence -> 8
  | Sched_equivalence -> 9

type config = {
  seed : int;
  count : int;
  start : int;
  size : int;
  oracles : oracle list;
  shrink : bool;
  verbose : bool;
}

let default =
  {
    seed = 42;
    count = 100;
    start = 0;
    size = 8;
    oracles = all_oracles;
    shrink = true;
    verbose = false;
  }

type failure = {
  oracle : oracle;
  case : int;
  case_seed : int;
  message : string;
  reproducer : string;
  replay : string;
}

type summary = { cases_run : int; failures : failure list }

let all_passed s = s.failures = []

(* Per-case seed, reachable without generating earlier cases so that
   [--start i --count 1] replays case [i] exactly; derived through the
   repo-wide scheme (see prng.mli) rather than ad-hoc mixing. *)
let case_seed ~seed ~oracle ~case =
  Prng.derive seed [ oracle_index oracle; case ]

(* Randomised generator configuration for the spec-based oracles; all
   draws come from the case generator so replay is exact. *)
let spec_cfg rng ~size =
  {
    Gen.default_cfg with
    Gen.n_ops = 3 + Prng.int rng (Int.max 1 (size - 2));
    extra_edge_prob = Prng.uniform rng 0.05 0.35;
    stateful_prob = Prng.uniform rng 0. 0.4;
    mode =
      (if Prng.bool rng 0.5 then Wishbone.Movable.Conservative
       else Wishbone.Movable.Permissive);
    tightness = Prng.uniform rng 0. 1.;
    alpha = (if Prng.bool rng 0.3 then Prng.uniform rng 0. 2. else 0.);
  }

let safe_fails check x =
  match check x with Oracle.Pass -> false | Oracle.Fail _ -> true
  | exception _ -> false

let run_case ?pruned cfg oracle ~case =
  let cs = case_seed ~seed:cfg.seed ~oracle ~case in
  let gen_rng = Prng.create cs in
  (* the oracle's own randomness is re-derivable, so the shrink
     predicate is a pure function of the instance *)
  let chk () = Prng.create (cs lxor 0x2545F491) in
  (* when the shrinker reduced the instance, report the (possibly
     different) failure message of the minimal reproducer *)
  let remsg check small orig =
    match check small with Oracle.Fail m -> m | _ | (exception _) -> orig
  in
  let mk message reproducer =
    Some
      {
        oracle;
        case;
        case_seed = cs;
        message;
        reproducer;
        replay =
          Printf.sprintf
            "fuzz --seed %d --start %d --count 1 --size %d --oracle %s"
            cfg.seed case cfg.size (oracle_name oracle);
      }
  in
  let pp_problem p = Format.asprintf "%a" Lp.Problem.pp p in
  let pp_spec s = Format.asprintf "%a" Gen.pp_spec s in
  match oracle with
  | Lp_certificate -> (
      let p = Gen.lp gen_rng ~size:cfg.size in
      let check p = Oracle.lp_certificate (chk ()) p in
      match check p with
      | Oracle.Pass -> None
      | Oracle.Fail msg ->
          let small =
            if cfg.shrink then Shrink.problem (safe_fails check) p else p
          in
          mk (remsg check small msg) (pp_problem small))
  | Ilp_brute -> (
      let p = Gen.ilp gen_rng ~size:cfg.size in
      match Oracle.ilp_brute p with
      | Oracle.Pass -> None
      | Oracle.Fail msg ->
          let small =
            if cfg.shrink then
              Shrink.problem (safe_fails Oracle.ilp_brute) p
            else p
          in
          mk (remsg Oracle.ilp_brute small msg) (pp_problem small))
  | Cut_enumeration -> (
      let scfg = spec_cfg gen_rng ~size:cfg.size in
      let s = Gen.spec gen_rng scfg in
      let resources = Gen.resources gen_rng s in
      match Oracle.cut_enumeration ~resources s with
      | Oracle.Pass -> None
      | Oracle.Fail msg ->
          (* the shrinker cannot reproject resource rows across graph
             rewrites, so minimise only when the failure survives
             without them *)
          let check s' = Oracle.cut_enumeration s' in
          if cfg.shrink && safe_fails check s then begin
            let small = Shrink.spec (safe_fails check) s in
            mk (remsg check small msg) (pp_spec small)
          end
          else
            mk msg
              (pp_spec s
              ^ Printf.sprintf "\n  with %d resource rows (not shrunk)"
                  (List.length resources)))
  | Split_equivalence -> (
      let scfg = spec_cfg gen_rng ~size:cfg.size in
      let s = Gen.spec gen_rng scfg in
      let check s = Oracle.split_equivalence (chk ()) s in
      match check s with
      | Oracle.Pass -> None
      | Oracle.Fail msg ->
          let small =
            if cfg.shrink then Shrink.spec (safe_fails check) s else s
          in
          mk (remsg check small msg) (pp_spec small))
  | Degradation -> (
      (* conservative placement keeps stateful operators upstream of
         the shedding queue, the property's domain of validity *)
      let scfg =
        { (spec_cfg gen_rng ~size:cfg.size) with
          Gen.mode = Wishbone.Movable.Conservative }
      in
      let s = Gen.spec gen_rng scfg in
      let check s = Oracle.degradation (chk ()) s in
      match check s with
      | Oracle.Pass -> None
      | Oracle.Fail msg ->
          let small =
            if cfg.shrink then Shrink.spec (safe_fails check) s else s
          in
          mk (remsg check small msg) (pp_spec small))
  | Placement_equivalence -> (
      let scfg = spec_cfg gen_rng ~size:cfg.size in
      let s = Gen.spec gen_rng scfg in
      (* the synthesized microserver tier re-derives from the case
         seed, so the shrink predicate stays a pure function of the
         spec *)
      let check s = Oracle.placement_equivalence (chk ()) s in
      match check s with
      | Oracle.Pass -> None
      | Oracle.Fail msg ->
          let small =
            if cfg.shrink then Shrink.spec (safe_fails check) s else s
          in
          mk (remsg check small msg) (pp_spec small))
  | Service_equivalence -> (
      let scfg = spec_cfg gen_rng ~size:cfg.size in
      let s = Gen.spec gen_rng scfg in
      (* the query batch, capacity and shard count re-derive from the
         case seed, so the shrink predicate stays a pure function of
         the spec *)
      let check s = Oracle.service_equivalence (chk ()) s in
      match check s with
      | Oracle.Pass -> None
      | Oracle.Fail msg ->
          let small =
            if cfg.shrink then Shrink.spec (safe_fails check) s else s
          in
          mk (remsg check small msg) (pp_spec small))
  | Degraded_soundness -> (
      let scfg = spec_cfg gen_rng ~size:cfg.size in
      let s = Gen.spec gen_rng scfg in
      (* budgets and the request re-derive from the case seed, so the
         shrink predicate stays a pure function of the spec *)
      let check s = Oracle.degraded_soundness (chk ()) s in
      match check s with
      | Oracle.Pass -> None
      | Oracle.Fail msg ->
          let small =
            if cfg.shrink then Shrink.spec (safe_fails check) s else s
          in
          mk (remsg check small msg) (pp_spec small))
  | Tree_equivalence -> (
      let scfg = spec_cfg gen_rng ~size:cfg.size in
      let s = Gen.spec gen_rng scfg in
      (* the random tier tree, platforms, uplink budgets and tier pins
         re-derive from the case seed, so the shrink predicate stays a
         pure function of the spec *)
      let check s = Oracle.tree_equivalence (chk ()) s in
      match Oracle.tree_equivalence ?pruned (chk ()) s with
      | Oracle.Pass -> None
      | Oracle.Fail msg ->
          let small =
            if cfg.shrink then Shrink.spec (safe_fails check) s else s
          in
          mk (remsg check small msg) (pp_spec small))
  | Sched_equivalence -> (
      (* the push/pop trace and the testbed instance (fleet, faults,
         transport, cells) are drawn inside the oracle from the check
         stream, so the whole case re-derives from the case seed;
         there is no structure to shrink *)
      ignore gen_rng;
      match Oracle.sched_equivalence (chk ()) with
      | Oracle.Pass -> None
      | Oracle.Fail msg ->
          mk msg "(trace and testbed instance re-derived from the case seed)")

let null_formatter =
  Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let pp_failure ppf f =
  Format.fprintf ppf
    "@[<v>FAIL %s case %d (case seed %d)@,  %s@,  replay: %s@,%s@]"
    (oracle_name f.oracle) f.case f.case_seed f.message f.replay
    f.reproducer

let pp_summary ppf s =
  if s.failures = [] then
    Format.fprintf ppf "fuzz: %d cases, all oracles passed@." s.cases_run
  else
    Format.fprintf ppf "@[<v>fuzz: %d cases, %d FAILURES@,%a@]@." s.cases_run
      (List.length s.failures)
      (Format.pp_print_list pp_failure)
      s.failures

let run ?(out = null_formatter) cfg =
  let cases_run = ref 0 in
  let failures = ref [] in
  List.iter
    (fun oracle ->
      if cfg.verbose then
        Format.fprintf out "fuzz: %s, %d cases from %d@."
          (oracle_name oracle) cfg.count cfg.start;
      let pruned = ref 0 in
      for case = cfg.start to cfg.start + cfg.count - 1 do
        incr cases_run;
        match run_case ~pruned cfg oracle ~case with
        | None -> ()
        | Some f ->
            failures := f :: !failures;
            Format.fprintf out "%a@." pp_failure f
      done;
      if cfg.verbose && oracle = Tree_equivalence then
        Format.fprintf out "fuzz: %s, %d of %d cases pruned a tier@."
          (oracle_name oracle) !pruned cfg.count)
    cfg.oracles;
  { cases_run = !cases_run; failures = List.rev !failures }
