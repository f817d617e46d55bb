type class_spec = {
  platform : Profiler.Platform.t;
  n_nodes : int;
  net_share : float option;
}

type class_plan = {
  platform : Profiler.Platform.t;
  n_nodes : int;
  report : Placement.report;
}

let plan ?mode ?alpha ?beta raw ~classes =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | c :: rest -> (
        let net_budget =
          match c.net_share with
          | Some s -> Some s
          | None ->
              Some
                (c.platform.Profiler.Platform.radio_bytes_per_sec
                /. Float.of_int (Int.max 1 c.n_nodes))
        in
        match
          Spec.of_profile ?mode ?net_budget ?alpha ?beta
            ~node_platform:c.platform raw
        with
        | Error m -> Error m
        | Ok spec -> (
            let pl = Placement.of_spec spec in
            let planned report =
              go
                ({ platform = c.platform; n_nodes = c.n_nodes; report } :: acc)
                rest
            in
            match Placement.solve pl with
            | Placement.Partitioned report -> planned report
            | Placement.No_feasible_partition -> (
                match Rate_search.search_placement pl with
                | Some r -> planned r.Rate_search.placement_report
                | None ->
                    Error
                      (Printf.sprintf "class %s: no feasible partition"
                         c.platform.Profiler.Platform.name))
            | Placement.Solver_failure m -> Error m))
  in
  go [] classes

let pp ppf plans =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun p ->
      Format.fprintf ppf "%s x%d: %d ops on node, cut %.1f B/s, cpu %.1f%%@,"
        p.platform.Profiler.Platform.name p.n_nodes
        (List.length (Placement.ops_on p.report 0))
        p.report.Placement.link_net.(0)
        (100. *. p.report.Placement.tier_cpu.(0)))
    plans;
  Format.fprintf ppf "@]"
