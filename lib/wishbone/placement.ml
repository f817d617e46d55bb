open Dataflow

type encoding = General | Restricted

module Topology = struct
  (* A rooted tier tree as a parent array.  Tiers are numbered so that
     every tier's parent has a strictly larger index; the last tier is
     the root (parent -1).  Tree edge [k] is the uplink of tier [k]
     (k < root), so a chain of [n] tiers keeps the historical link
     numbering: link k connects tier k to tier k+1. *)
  type t = { parents : int array; children : int list array }

  let of_parents parr =
    let n = Array.length parr in
    if n < 2 then
      invalid_arg "Placement.Topology.of_parents: need at least two tiers";
    Array.iteri
      (fun k p ->
        if k = n - 1 then begin
          if p <> -1 then
            invalid_arg
              "Placement.Topology.of_parents: the last tier is the root and \
               must have parent -1"
        end
        else if p <= k || p > n - 1 then
          invalid_arg
            (Printf.sprintf
               "Placement.Topology.of_parents: tier %d needs a parent with a \
                larger index (topological numbering)"
               k))
      parr;
    let parents = Array.copy parr in
    let children = Array.make n [] in
    for k = n - 2 downto 0 do
      children.(parents.(k)) <- k :: children.(parents.(k))
    done;
    { parents; children }

  let chain n =
    of_parents (Array.init n (fun k -> if k = n - 1 then -1 else k + 1))

  let n_tiers t = Array.length t.parents
  let root t = Array.length t.parents - 1
  let parent t k = t.parents.(k)
  let parents t = Array.copy t.parents
  let children t k = t.children.(k)

  let is_chain t =
    let n = Array.length t.parents in
    let ok = ref true in
    for k = 0 to n - 2 do
      if t.parents.(k) <> k + 1 then ok := false
    done;
    !ok

  (* [anc] is [tier] itself or one of its ancestors *)
  let ancestor_or_self t ~anc tier =
    let rec up x = x = anc || (t.parents.(x) <> -1 && up t.parents.(x)) in
    up tier

  (* tree edge [e] (the uplink of tier [e]) lies on the root path of
     [tier], i.e. [tier] sits in the subtree hanging below [e].  For a
     chain this is [e >= tier]. *)
  let on_root_path t e tier = ancestor_or_self t ~anc:e tier
  let equal a b = a.parents = b.parents

  let pp ppf t =
    Format.fprintf ppf "[%s]"
      (String.concat ";"
         (Array.to_list (Array.map string_of_int t.parents)))
end

type resource = { rname : string; per_op : float array; budget : float }

type tier = {
  tname : string;
  cpu : float array;
  cpu_budget : float;
  alpha : float;
}

type link = { lname : string; net_budget : float; beta : float }

type t = {
  spec : Spec.t;
  tiers : tier array;
  links : link array;
  topology : Topology.t;
  tier_pins : int option array;
}

let v ?topology ?(pins = []) ~spec ~tiers ~links () =
  let tiers = Array.of_list tiers and links = Array.of_list links in
  let n = Graph.n_ops spec.Spec.graph in
  if Array.length tiers < 2 then
    invalid_arg "Placement.v: need at least two tiers";
  if Array.length links <> Array.length tiers - 1 then
    invalid_arg "Placement.v: need exactly one link between consecutive tiers";
  let topology =
    match topology with
    | None -> Topology.chain (Array.length tiers)
    | Some topo ->
        if Topology.n_tiers topo <> Array.length tiers then
          invalid_arg
            "Placement.v: topology tier count does not match the tier list";
        topo
  in
  Array.iter
    (fun t ->
      if Array.length t.cpu <> n then
        invalid_arg
          (Printf.sprintf "Placement.v: tier %s has %d CPU costs for %d ops"
             t.tname (Array.length t.cpu) n))
    tiers;
  if tiers.(0).cpu <> spec.Spec.cpu then
    invalid_arg "Placement.v: tier 0 CPU costs must equal the spec's";
  let tier_pins = Array.make n None in
  List.iter
    (fun (op, tp) ->
      if op < 0 || op >= n then
        invalid_arg "Placement.v: tier pin names an unknown operator";
      if tp < 0 || tp >= Array.length tiers then
        invalid_arg "Placement.v: tier pin names an unknown tier";
      (match tier_pins.(op) with
      | Some tp' when tp' <> tp ->
          invalid_arg "Placement.v: conflicting tier pins for one operator"
      | _ -> ());
      tier_pins.(op) <- Some tp)
    pins;
  { spec; tiers; links; topology; tier_pins }

let of_spec (spec : Spec.t) =
  let n = Graph.n_ops spec.Spec.graph in
  {
    spec;
    tiers =
      [|
        {
          tname = "node";
          cpu = spec.Spec.cpu;
          cpu_budget = spec.Spec.cpu_budget;
          alpha = spec.Spec.alpha;
        };
        {
          tname = "server";
          cpu = Array.make n 0.;
          cpu_budget = infinity;
          alpha = 0.;
        };
      |];
    links =
      [|
        {
          lname = "radio";
          net_budget = spec.Spec.net_budget;
          beta = spec.Spec.beta;
        };
      |];
    topology = Topology.chain 2;
    tier_pins = Array.make n None;
  }

(* A profiled tier chain or tree: the spec is tier 0, each further
   platform a tier costed from [raw], an unbudgeted central server the
   root.  Link k is tier k's uplink, on tier 0 the spec's radio budget
   and [beta]; above it each platform's own radio, weighted down by 0.3
   per hop of tree depth below the link (upstream radio bytes being the
   scarce resource), which on a chain is a 0.3^k fall-off.  Chain tiers
   are named after their platform, tree tiers PLAT#k (a tree may repeat
   a platform); names and weights are part of [Service.instance_key]. *)
let of_platforms ?parents (spec : Spec.t) raw plats =
  match (plats, parents) with
  | [], _ -> invalid_arg "Placement.of_platforms: empty platform list"
  | [ _ ], None -> of_spec spec
  | _ :: above, _ ->
      let topology =
        match parents with
        | Some parr -> Topology.of_parents parr
        | None -> Topology.chain (List.length plats + 1)
      in
      let n = Graph.n_ops spec.Spec.graph in
      let depth = Array.make (Topology.n_tiers topology) 0 in
      (* children carry smaller indices, so one ascending pass *)
      for k = 0 to Array.length depth - 1 do
        List.iter
          (fun ch -> depth.(k) <- Int.max depth.(k) (depth.(ch) + 1))
          (Topology.children topology k)
      done;
      let tier i (p : Profiler.Platform.t) =
        {
          tname =
            (if parents = None then p.name
             else Printf.sprintf "%s#%d" p.name (i + 1));
          cpu = (Profiler.Profile.cost raw p).Profiler.Profile.cpu_fraction;
          cpu_budget = p.cpu_budget;
          alpha = 0.;
        }
      in
      let link k (p : Profiler.Platform.t) =
        if k = 0 then
          {
            lname = "radio0";
            net_budget = spec.Spec.net_budget;
            beta = spec.Spec.beta;
          }
        else
          {
            lname = Printf.sprintf "uplink%d" k;
            net_budget = p.radio_bytes_per_sec;
            beta = spec.Spec.beta *. (0.3 ** Float.of_int depth.(k));
          }
      in
      let node =
        {
          tname = "node";
          cpu = spec.Spec.cpu;
          cpu_budget = spec.Spec.cpu_budget;
          alpha = spec.Spec.alpha;
        }
      and server =
        { tname = "server"; cpu = Array.make n 0.; cpu_budget = infinity;
          alpha = 0. }
      in
      v ~topology ~spec
        ~tiers:((node :: List.mapi tier above) @ [ server ])
        ~links:(List.mapi link plats) ()

let n_tiers t = Array.length t.tiers

let scale_rate t factor =
  {
    t with
    spec = Spec.scale_rate t.spec factor;
    tiers =
      Array.map
        (fun tier -> { tier with cpu = Array.map (( *. ) factor) tier.cpu })
        t.tiers;
  }

type encoded = {
  problem : Lp.Problem.t;
  level_var : int array array;
  edge_vars : (int * int * int * int * int) array;
  encoding : encoding;
  topology : Topology.t;
}

(* Budget clamping (numerical scaling, not semantics): a vacuous budget
   is replaced by the total cost it bounds plus one — the same feasible
   region with far better-conditioned rows. *)
let clamp budget costs = Float.min budget (Array.fold_left ( +. ) 1. costs)

(* Tiers some operator can reach (DESIGN.md §18, "Unreachable tiers").
   Under [Restricted] every edge forces d_k(u) >= d_k(v), so a supernode
   downstream of one pinned to tier p has d_k = 0 off p's root path.
   When every supernode is pinned or downstream of a pin, only the root
   paths of tier 0 and of the pin tiers can hold an operator; every
   other d_k is 0 at each LP-feasible point and is dropped.  A negative
   budget keeps every tier: its row [0 <= budget] is what makes such an
   instance infeasible. *)
let live_tiers encoding (t : t) (c : Preprocess.contracted) pin_tier =
  let topo = t.topology in
  let n_tiers = Array.length t.tiers in
  let anchored = Array.map Option.is_some pin_tier in
  let succs = Array.make c.Preprocess.n_super [] in
  Array.iter (fun (u, v, _) -> succs.(u) <- v :: succs.(u)) c.Preprocess.edges;
  let rec anchor s =
    List.iter
      (fun v ->
        if not anchored.(v) then begin
          anchored.(v) <- true;
          anchor v
        end)
      succs.(s)
  in
  Array.iteri (fun s pin -> if Option.is_some pin then anchor s) pin_tier;
  let negative_budget =
    Array.exists (fun (tier : tier) -> tier.cpu_budget < 0.) t.tiers
    || Array.exists (fun (l : link) -> l.net_budget < 0.) t.links
  in
  if
    encoding = General || negative_budget
    || not (Array.for_all Fun.id anchored)
  then Array.make n_tiers true
  else begin
    let live = Array.make n_tiers false in
    let rec mark k =
      if k >= 0 && not live.(k) then begin
        live.(k) <- true;
        mark (Topology.parent topo k)
      end
    in
    mark 0;
    Array.iter (Option.iter mark) pin_tier;
    live
  end

let encode ?(resources = []) encoding t (c : Preprocess.contracted) =
  let n_tiers = Array.length t.tiers in
  let levels = n_tiers - 1 in
  let p = Lp.Problem.create () in
  (* per-supernode CPU sums; tier 0 reuses the contraction's own sums
     so the two-tier instance is bit-identical to the historical
     encoder *)
  let super_cpu =
    Array.init n_tiers (fun tp ->
        if tp = 0 then c.Preprocess.cpu
        else
          Array.map
            (fun members ->
              List.fold_left
                (fun acc i -> acc +. t.tiers.(tp).cpu.(i))
                0. members)
            c.Preprocess.members)
  in
  let total_bw =
    Array.fold_left (fun acc (_, _, r) -> acc +. r) 1. c.Preprocess.edges
  in
  let topo = t.topology in
  let root = Topology.root topo in
  (* per-supernode tier pin: every member must agree (contraction is
     bypassed whenever tier pins are present, so in practice each
     supernode is a single operator here) *)
  let pin_of_super =
    Array.map
      (fun members ->
        List.fold_left
          (fun acc i ->
            match (t.tier_pins.(i), acc) with
            | None, acc -> acc
            | Some tp, None -> Some tp
            | Some tp, Some tp' ->
                if tp <> tp' then
                  invalid_arg
                    "Placement.encode: contraction merged operators with \
                     conflicting tier pins";
                acc)
          None members)
      c.Preprocess.members
  in
  let pin_tier =
    Array.mapi
      (fun s pin ->
        match (pin, c.Preprocess.placement.(s)) with
        | Some tp, _ -> Some tp
        | None, Movable.Pin_node -> Some 0
        | None, Movable.Pin_server -> Some root
        | None, Movable.Movable -> None)
      pin_of_super
  in
  let live = live_tiers encoding t c pin_tier in
  let live_children =
    Array.init n_tiers (fun tp ->
        Array.of_list
          (List.filter (fun ch -> live.(ch)) (Topology.children topo tp)))
  in
  (* level binaries d_k(s): "[s] sits in the subtree below tree edge k"
     (for a chain: tier(s) <= k, the historical meaning), k-major, for
     live tiers only (-1 marks a pruned tier's entries); pinning via
     bounds, eq. (1) — a pinned supernode fixes d_k = 1 on its tier's
     root path and 0 elsewhere.  Only the budget rows ([cpu_*],
     [net_*], resources) carry names; a rendering shows every other
     variable and row by its index.  Rows go straight into the
     problem's term arrays; rows that never change a coefficient share
     one coefficient array (the problem never mutates its rows). *)
  let bounds s k =
    match pin_tier.(s) with
    | Some tp -> if Topology.on_root_path topo k tp then (1., 1.) else (0., 0.)
    | None -> (0., 1.)
  in
  let level_var =
    Array.init levels (fun k ->
        Array.init c.Preprocess.n_super (fun s ->
            if not live.(k) then -1
            else
              let lo, hi = bounds s k in
              Lp.Problem.add_var ~lo ~hi ~integer:true p))
  in
  (* objective coefficients accumulate per level variable *)
  let obj = Array.make (Lp.Problem.n_vars p) 0. in
  (* tier p's occupancy is d_uplink(p) - sum_children(p) d_c (the root
     has an implicit uplink fixed at 1; for a chain: d_p - d_(p-1));
     its alpha-weighted CPU load lands on those variables.  The root
     tier's constant term (alpha_root * total cost) cannot live in an
     LP objective; [solve] reports the true objective recomputed from
     the assignment, so nothing is lost.  [of_spec] has alpha = 0 above
     tier 0, making the encoded objective exactly eq. (5). *)
  for tp = 0 to n_tiers - 1 do
    let a = t.tiers.(tp).alpha in
    if a <> 0. && live.(tp) then
      Array.iteri
        (fun s cost ->
          if tp <> root then
            obj.(level_var.(tp).(s)) <- obj.(level_var.(tp).(s)) +. (a *. cost);
          Array.iter
            (fun ch ->
              obj.(level_var.(ch).(s)) <-
                obj.(level_var.(ch).(s)) -. (a *. cost))
            live_children.(tp))
        super_cpu.(tp)
  done;
  (* subtree consistency: membership below a tier's uplink dominates
     the sum of memberships below its child edges,
     d_uplink(p) - sum_children(p) d_c >= 0 (the child subtrees are
     disjoint, so the sum also enforces "at most one").  For a chain
     this is exactly the historical level ordering d_k <= d_(k+1)
     (vacuous with two tiers); a root with several live children gets
     the same disjointness as sum_children(root) d_c <= 1. *)
  for s = 0 to c.Preprocess.n_super - 1 do
    for tp = 1 to n_tiers - 2 do
      let chs = live_children.(tp) in
      let n = Array.length chs in
      if n > 0 then
        Lp.Problem.add_constr p
          (Array.init (n + 1) (fun i ->
               level_var.(if i = 0 then tp else chs.(i - 1)).(s)))
          (Array.init (n + 1) (fun i -> if i = 0 then 1. else -1.))
          Lp.Problem.Ge 0.
    done;
    let chs = live_children.(root) in
    if Array.length chs > 1 then
      Lp.Problem.add_constr p
        (Array.map (fun ch -> level_var.(ch).(s)) chs)
        (Array.make (Array.length chs) 1.)
        Lp.Problem.Le 1.
  done;
  (* budgeted tier CPU rows, eq. (2) per live tier: occupancy of tier p
     is d_uplink(p) - sum_children(p) d_c (d_uplink alone for a leaf,
     tier 0 of a chain being the historical case), root occupancy is
     1 - sum_children(root) d_c; supernode by supernode, its own term
     first *)
  for tp = 0 to n_tiers - 1 do
    let budget = t.tiers.(tp).cpu_budget in
    if Float.is_finite budget && live.(tp) then begin
      let chs = live_children.(tp) in
      let own = if tp = root then 0 else 1 in
      let stride = own + Array.length chs in
      let costs = super_cpu.(tp) in
      let vars = Array.make (stride * Array.length costs) 0 in
      let coefs = Array.make (stride * Array.length costs) 0. in
      for s = 0 to Array.length costs - 1 do
        let at = s * stride in
        if own = 1 then begin
          vars.(at) <- level_var.(tp).(s);
          coefs.(at) <- costs.(s)
        end;
        for i = 0 to Array.length chs - 1 do
          vars.(at + own + i) <- level_var.(chs.(i)).(s);
          coefs.(at + own + i) <- -.costs.(s)
        done
      done;
      Lp.Problem.add_constr
        ~name:(Printf.sprintf "cpu_%s" t.tiers.(tp).tname)
        p vars coefs Lp.Problem.Le
        (if tp = root then budget -. Array.fold_left ( +. ) 0. costs
         else clamp budget costs)
    end
  done;
  (* per-edge rows; link k is crossed when d_k differs across the edge *)
  let edge_vars = ref [] in
  (match encoding with
  | Restricted ->
      (* eq. (6) per live level: d_k(u) >= d_k(v); eq. (7): each link's
         load telescopes to sum r (d_k(u) - d_k(v)) *)
      let dir = [| 1.; -1. |] in
      Array.iter
        (fun (u, v, r) ->
          for k = 0 to levels - 1 do
            if live.(k) then begin
              Lp.Problem.add_constr p
                [| level_var.(k).(u); level_var.(k).(v) |]
                dir Lp.Problem.Ge 0.;
              let b = t.links.(k).beta in
              obj.(level_var.(k).(u)) <- obj.(level_var.(k).(u)) +. (b *. r);
              obj.(level_var.(k).(v)) <- obj.(level_var.(k).(v)) -. (b *. r)
            end
          done)
        c.Preprocess.edges
  | General ->
      (* eq. (3) per level: e >= d_k(v) - d_k(u), e' >= d_k(u) - d_k(v) *)
      let cross = [| 1.; -1.; 1. |] in
      Array.iter
        (fun (u, v, _) ->
          for k = 0 to levels - 1 do
            let e = Lp.Problem.add_var p in
            let e' = Lp.Problem.add_var p in
            Lp.Problem.add_constr p
              [| level_var.(k).(u); level_var.(k).(v); e |]
              cross Lp.Problem.Ge 0.;
            Lp.Problem.add_constr p
              [| level_var.(k).(v); level_var.(k).(u); e' |]
              cross Lp.Problem.Ge 0.;
            edge_vars := (k, u, v, e, e') :: !edge_vars
          done)
        c.Preprocess.edges);
  (* edge-major, level-minor *)
  let edge_vars = Array.of_list (List.rev !edge_vars) in
  let n_edges = Array.length c.Preprocess.edges in
  (* link bandwidth rows, eq. (4) per live link: two terms per edge,
     the last edge's first *)
  for k = 0 to levels - 1 do
    if Float.is_finite t.links.(k).net_budget && live.(k) then begin
      let vars = Array.make (2 * n_edges) 0 in
      let coefs = Array.make (2 * n_edges) 0. in
      Array.iteri
        (fun i (u, v, r) ->
          let at = 2 * (n_edges - 1 - i) in
          match encoding with
          | Restricted ->
              vars.(at) <- level_var.(k).(u);
              coefs.(at) <- r;
              vars.(at + 1) <- level_var.(k).(v);
              coefs.(at + 1) <- -.r
          | General ->
              let _, _, _, e, e' = edge_vars.((i * levels) + k) in
              vars.(at) <- e;
              coefs.(at) <- r;
              vars.(at + 1) <- e';
              coefs.(at + 1) <- r)
        c.Preprocess.edges;
      Lp.Problem.add_constr
        ~name:(Printf.sprintf "net_%s" t.links.(k).lname)
        p vars coefs Lp.Problem.Le
        (Float.min t.links.(k).net_budget total_bw)
    end
  done;
  (* optional resource rows: consumed on tier 0 *)
  let n_orig = Graph.n_ops t.spec.Spec.graph in
  List.iter
    (fun r ->
      if Array.length r.per_op <> n_orig then
        invalid_arg
          (Printf.sprintf "Placement.encode: resource %s has wrong length"
             r.rname);
      let costs =
        Array.map
          (List.fold_left (fun acc i -> acc +. r.per_op.(i)) 0.)
          c.Preprocess.members
      in
      let total = Array.fold_left ( +. ) 1. r.per_op in
      Lp.Problem.add_constr ~name:r.rname p (Array.copy level_var.(0)) costs
        Lp.Problem.Le (Float.min r.budget total))
    resources;
  (* objective, eq. (5) generalised: under [General] the e/e' variables
     carry each link's network cost directly, the last link's first,
     each edge's e' before its e; then every level variable with a
     nonzero coefficient, the highest index first *)
  let n_obj = ref 0 in
  Array.iter (fun coef -> if coef <> 0. then incr n_obj) obj;
  if encoding = General then
    Array.iter
      (fun (_, _, r) -> if r <> 0. then n_obj := !n_obj + (2 * levels))
      c.Preprocess.edges;
  let obj_vars = Array.make !n_obj 0 and obj_coefs = Array.make !n_obj 0. in
  let at = ref 0 in
  if encoding = General then
    for k = levels - 1 downto 0 do
      Array.iteri
        (fun i (_, _, r) ->
          if r <> 0. then begin
            let _, _, _, e, e' = edge_vars.((i * levels) + k) in
            obj_vars.(!at) <- e';
            obj_coefs.(!at) <- t.links.(k).beta *. r;
            obj_vars.(!at + 1) <- e;
            obj_coefs.(!at + 1) <- t.links.(k).beta *. r;
            at := !at + 2
          end)
        c.Preprocess.edges
    done;
  for var = Array.length obj - 1 downto 0 do
    if obj.(var) <> 0. then begin
      obj_vars.(!at) <- var;
      obj_coefs.(!at) <- obj.(var);
      incr at
    end
  done;
  Lp.Problem.set_objective p Lp.Problem.Minimize obj_vars obj_coefs;
  { problem = p; level_var; encoding; edge_vars; topology = topo }

(* the value of d_k(s) in [x]; a pruned tier's d_k is 0 *)
let level_value enc x k s =
  let var = enc.level_var.(k).(s) in
  if var < 0 then 0. else x.(var)

let super_tiers enc (c : Preprocess.contracted) (sol : Lp.Solution.t) =
  let levels = Array.length enc.level_var in
  let set k s = level_value enc sol.Lp.Solution.x k s >= 0.5 in
  if Topology.is_chain enc.topology then
    (* the historical chain decode: smallest k with d_k set *)
    Array.init c.Preprocess.n_super (fun s ->
        let rec find k =
          if k >= levels then levels else if set k s then k else find (k + 1)
        in
        find 0)
  else
    (* tree decode: from the root, descend into the unique child
       subtree the supernode is a member of *)
    Array.init c.Preprocess.n_super (fun s ->
        let rec descend tier =
          match
            List.find_opt (fun ch -> set ch s)
              (Topology.children enc.topology tier)
          with
          | Some ch -> descend ch
          | None -> tier
        in
        descend (Topology.root enc.topology))

let tiers_of_solution enc (c : Preprocess.contracted) sol =
  let st = super_tiers enc c sol in
  Array.map (fun s -> st.(s)) c.Preprocess.super_of

(* Lift a per-original-operator tier assignment to a full variable
   vector (crossing variables at their minimal feasible values), the
   incumbent seed of [solve]'s branch & bound.  [None] when the
   assignment straddles a supernode or has the wrong length; [solve]
   checks it with [feasible] first, so every tier is in range. *)
let initial_point enc (c : Preprocess.contracted) (tier_of : int array) =
  if Array.length tier_of <> Array.length c.Preprocess.super_of then None
  else begin
    let levels = Array.length enc.level_var in
    let x = Array.make (Lp.Problem.n_vars enc.problem) 0. in
    (* every member of a supernode must sit on the same tier, or the
       assignment does not survive the contraction *)
    let consistent = ref true in
    Array.iteri
      (fun s members ->
        match members with
        | [] -> ()
        | first :: rest ->
            let tier = tier_of.(first) in
            if List.exists (fun i -> tier_of.(i) <> tier) rest then
              consistent := false
            else
              for k = 0 to levels - 1 do
                let var = enc.level_var.(k).(s) in
                if var >= 0 && Topology.on_root_path enc.topology k tier then
                  x.(var) <- 1.
              done)
      c.Preprocess.members;
    if not !consistent then None
    else begin
      (* general encoding: crossing variables at their minimal values *)
      Array.iter
        (fun (k, u, v, e, e') ->
          let du = level_value enc x k u and dv = level_value enc x k v in
          x.(e) <- Float.max 0. (dv -. du);
          x.(e') <- Float.max 0. (du -. dv))
        enc.edge_vars;
      Some x
    end
  end

let stats t ~tier_of =
  let n_tiers = Array.length t.tiers in
  let tier_cpu = Array.make n_tiers 0. in
  Array.iteri
    (fun i tp -> tier_cpu.(tp) <- tier_cpu.(tp) +. t.tiers.(tp).cpu.(i))
    tier_of;
  let link_net = Array.make (n_tiers - 1) 0. in
  (* tree edge k carries a dataflow edge iff exactly one endpoint lies
     in the subtree below k; for a chain this is the historical
     lo <= k < hi band, accumulated in the same order *)
  let on_path =
    Array.init n_tiers (fun tier ->
        Array.init (n_tiers - 1) (fun k ->
            Topology.on_root_path t.topology k tier))
  in
  Array.iter
    (fun (e : Graph.edge) ->
      let su = on_path.(tier_of.(e.src)) and sv = on_path.(tier_of.(e.dst)) in
      for k = 0 to n_tiers - 2 do
        if su.(k) <> sv.(k) then
          link_net.(k) <- link_net.(k) +. t.spec.Spec.bandwidth.(e.eid)
      done)
    (Graph.edges t.spec.Spec.graph);
  (tier_cpu, link_net)

let objective_value t ~tier_of =
  let tier_cpu, link_net = stats t ~tier_of in
  let obj = ref 0. in
  Array.iteri (fun tp c -> obj := !obj +. (t.tiers.(tp).alpha *. c)) tier_cpu;
  Array.iteri (fun k n -> obj := !obj +. (t.links.(k).beta *. n)) link_net;
  !obj

(* the tier operator [i] is pinned to: its tier pin, else tier 0 for
   [Pin_node] and the root for [Pin_server]; -1 for a free operator
   (an int, so the per-operator checks below allocate nothing) *)
let pinned_tier (t : t) i =
  match t.tier_pins.(i) with
  | Some tp -> tp
  | None -> (
      match t.spec.Spec.placement.(i) with
      | Movable.Pin_node -> 0
      | Movable.Pin_server -> Topology.root t.topology
      | Movable.Movable -> -1)

(* the slack a budgeted tier's CPU load may pass its budget by *)
let cpu_slack = 1e-9

let feasible ?(require_monotone = true) (t : t) ~tier_of =
  (* one tier per operator, each a tier of [t]: anything else is
     infeasible, never an index error *)
  let n_tiers = Array.length t.tiers in
  Array.length tier_of = Graph.n_ops t.spec.Spec.graph
  && Array.for_all (fun tp -> 0 <= tp && tp < n_tiers) tier_of
  &&
  let pin_ok =
    let ok = ref true in
    Array.iteri
      (fun i tier ->
        let tp = pinned_tier t i in
        if tp >= 0 && tier <> tp then ok := false)
      tier_of;
    !ok
  in
  (* monotone descent along the tree: data flows rootward, so the
     destination tier must be the source tier or one of its ancestors
     (for a chain: src <= dst) *)
  let monotone =
    Array.for_all
      (fun (e : Graph.edge) ->
        Topology.ancestor_or_self t.topology ~anc:tier_of.(e.dst)
          tier_of.(e.src))
      (Graph.edges t.spec.Spec.graph)
  in
  let tier_cpu, link_net = stats t ~tier_of in
  let cpu_ok =
    Array.for_all2
      (fun (tier : tier) c ->
        (not (Float.is_finite tier.cpu_budget))
        || c <= tier.cpu_budget +. cpu_slack)
      t.tiers tier_cpu
  in
  let net_ok =
    Array.for_all2
      (fun (l : link) n ->
        (not (Float.is_finite l.net_budget)) || n <= l.net_budget +. 1e-6)
      t.links link_net
  in
  pin_ok && ((not require_monotone) || monotone) && cpu_ok && net_ok

type report = {
  tier_of : int array;
  tier_cpu : float array;
  link_net : float array;
  objective : float;
  solver : Lp.Branch_bound.stats;
  supernodes : int;
  movable_supernodes : int;
  encoding : encoding;
  preprocessed : bool;
}

type outcome =
  | Partitioned of report
  | No_feasible_partition
  | Solver_failure of string

let ops_on r tier =
  List.filter (fun i -> r.tier_of.(i) = tier)
    (List.init (Array.length r.tier_of) Fun.id)

(* Some budgeted tier's load passes its budget at every placement: the
   operators pinned to it already do, with every cost a free operator
   could add taken at its least (0, or the cost if negative).
   Branch & bound would accept such a point within its 1e-5 row
   tolerance, and [feasible] then reject it. *)
let pins_overload (t : t) =
  let overloaded tp (tier : tier) =
    let load = ref 0. in
    for i = 0 to Array.length tier.cpu - 1 do
      let p = pinned_tier t i and c = tier.cpu.(i) in
      if p = tp || (p < 0 && c < 0.) then load := !load +. c
    done;
    Float.is_finite tier.cpu_budget && !load > tier.cpu_budget +. cpu_slack
  in
  Array.exists Fun.id (Array.mapi overloaded t.tiers)

let solve ?(encoding = Restricted) ?(preprocess = true) ?options
    ?(resources = []) ?initial ?root_basis t =
  if pins_overload t then No_feasible_partition else
  (* contraction's dominance argument needs monotone descent (§2.1.2),
     so under the general encoding the uncontracted graph is solved —
     the PR 2 fuzz-oracle finding, preserved across the refactor.
     Tier pins also bypass contraction: a merged supernode cannot honor
     a pin on one member only. *)
  let c =
    if
      preprocess && encoding = Restricted
      && Array.for_all (fun p -> p = None) t.tier_pins
    then Preprocess.contract t.spec
    else Preprocess.identity t.spec
  in
  let enc = encode ~resources encoding t c in
  let require_monotone = encoding = Restricted in
  (* a warm hint must never change the answer: branch & bound accepts
     an incumbent within a 1e-5 row tolerance, so a seed that overshoots
     a budget here (the optimum of a lower rate, say) could undercut the
     true optimum and prune it away *)
  let initial =
    Option.bind initial (fun tier_of ->
        if feasible ~require_monotone t ~tier_of then
          initial_point enc c tier_of
        else None)
  in
  let status, solver_stats =
    Lp.Branch_bound.solve ?options ?initial ?root_basis enc.problem
  in
  match status with
  | Lp.Solution.Optimal sol ->
      let tier_of = tiers_of_solution enc c sol in
      if not (feasible ~require_monotone t ~tier_of) then
        Solver_failure
          "internal error: ILP solution violates the original constraints"
      else
        let tier_cpu, link_net = stats t ~tier_of in
        Partitioned
          {
            tier_of;
            tier_cpu;
            link_net;
            objective = objective_value t ~tier_of;
            solver = solver_stats;
            supernodes = c.Preprocess.n_super;
            movable_supernodes = Movable.movable_count c.Preprocess.placement;
            encoding;
            preprocessed = preprocess;
          }
  | Lp.Solution.Infeasible -> No_feasible_partition
  | Lp.Solution.Unbounded ->
      Solver_failure "partitioning ILP unbounded (bad cost data?)"
  | Lp.Solution.Iteration_limit -> Solver_failure "solver budget exhausted"

let pp_report graph t ppf r =
  let counts = Array.make (Array.length t.tiers) 0 in
  Array.iter (fun tp -> counts.(tp) <- counts.(tp) + 1) r.tier_of;
  let enc =
    match r.encoding with Restricted -> "restricted" | General -> "general"
  in
  Format.fprintf ppf "@[<v>placement:";
  Array.iteri
    (fun tp (tier : tier) ->
      Format.fprintf ppf "@,  %-12s %3d ops, CPU %.1f%%%s" tier.tname
        counts.(tp)
        (100. *. r.tier_cpu.(tp))
        (if tp < Array.length t.links then
           Printf.sprintf ", downlink %.1f B/s" r.link_net.(tp)
         else ""))
    t.tiers;
  Format.fprintf ppf
    "@,objective %g, %d supernodes (%d movable), %s encoding%s@,\
     solver: %d nodes, %d LPs, %.3fs (proved=%b)@,ops by tier: %s@]"
    r.objective r.supernodes r.movable_supernodes enc
    (if r.preprocessed then " (preprocessed)" else "")
    r.solver.Lp.Branch_bound.nodes_explored
    r.solver.Lp.Branch_bound.lp_solves r.solver.Lp.Branch_bound.time_total
    r.solver.Lp.Branch_bound.proved_optimal
    (String.concat "; "
       (Array.to_list
          (Array.mapi
             (fun tp (tier : tier) ->
               Printf.sprintf "%s=%s" tier.tname
                 (String.concat ","
                    (List.map
                       (fun i -> (Graph.op graph i).Op.name)
                       (ops_on r tp))))
             t.tiers)))
