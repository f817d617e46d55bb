type sense = Le | Ge | Eq

type direction = Minimize | Maximize

type constr = {
  terms : (int * float) list;
  sense : sense;
  rhs : float;
  cname : string option;
}

type var_info = {
  vname : string option;
  lo : float;
  hi : float;
  integer : bool;
}

type t = {
  mutable vars_rev : var_info list;
  mutable n : int;
  mutable constrs_rev : constr list;
  mutable m : int;
  mutable obj : (int * float) list;
  mutable dir : direction;
  (* caches invalidated on mutation *)
  mutable vars_cache : var_info array option;
  mutable constrs_cache : constr array option;
}

let create () =
  {
    vars_rev = [];
    n = 0;
    constrs_rev = [];
    m = 0;
    obj = [];
    dir = Minimize;
    vars_cache = None;
    constrs_cache = None;
  }

let add_var ?name ?(lo = 0.) ?(hi = infinity) ?(integer = false) p =
  if not (Float.is_finite lo) then
    invalid_arg "Problem.add_var: lower bound must be finite";
  if lo > hi then invalid_arg "Problem.add_var: lo > hi";
  let id = p.n in
  p.vars_rev <- { vname = name; lo; hi; integer } :: p.vars_rev;
  p.n <- id + 1;
  p.vars_cache <- None;
  id

let check_terms p terms =
  List.iter
    (fun (v, _) ->
      if v < 0 || v >= p.n then
        invalid_arg (Printf.sprintf "Problem: variable index %d out of range" v))
    terms

let add_constr ?name p terms sense rhs =
  check_terms p terms;
  p.constrs_rev <- { terms; sense; rhs; cname = name } :: p.constrs_rev;
  p.m <- p.m + 1;
  p.constrs_cache <- None

let set_objective p dir terms =
  check_terms p terms;
  p.obj <- terms;
  p.dir <- dir

let vars p =
  match p.vars_cache with
  | Some a -> a
  | None ->
      let a = Array.of_list (List.rev p.vars_rev) in
      p.vars_cache <- Some a;
      a

let constrs p =
  match p.constrs_cache with
  | Some a -> a
  | None ->
      let a = Array.of_list (List.rev p.constrs_rev) in
      p.constrs_cache <- Some a;
      a

(* an unnamed entry is rendered from its index only when asked for *)
let var_name p i =
  match (vars p).(i).vname with Some s -> s | None -> Printf.sprintf "x%d" i

let constr_name p i =
  match (constrs p).(i).cname with Some s -> s | None -> Printf.sprintf "c%d" i

let n_vars p = p.n
let n_constrs p = p.m
let objective p = p.obj
let direction p = p.dir

let integer_vars p =
  let a = vars p in
  let acc = ref [] in
  for i = Array.length a - 1 downto 0 do
    if a.(i).integer then acc := i :: !acc
  done;
  !acc

let copy p =
  {
    vars_rev = p.vars_rev;
    n = p.n;
    constrs_rev = p.constrs_rev;
    m = p.m;
    obj = p.obj;
    dir = p.dir;
    vars_cache = (match p.vars_cache with Some a -> Some (Array.copy a) | None -> None);
    constrs_cache = p.constrs_cache;
  }

let eval_terms terms (x : float array) =
  List.fold_left (fun acc (v, c) -> acc +. (c *. x.(v))) 0. terms

let objective_value p x = eval_terms p.obj x

let constraint_violation p x =
  let worst = ref 0. in
  let bump v = if v > !worst then worst := v in
  Array.iter
    (fun c ->
      let lhs = eval_terms c.terms x in
      match c.sense with
      | Le -> bump (lhs -. c.rhs)
      | Ge -> bump (c.rhs -. lhs)
      | Eq -> bump (Float.abs (lhs -. c.rhs)))
    (constrs p);
  Array.iteri
    (fun i v ->
      bump (v.lo -. x.(i));
      if Float.is_finite v.hi then bump (x.(i) -. v.hi))
    (vars p);
  !worst

let pp_terms ppf terms names =
  let first = ref true in
  List.iter
    (fun (v, c) ->
      if !first then begin
        Format.fprintf ppf "%g %s" c names.(v);
        first := false
      end
      else if c >= 0. then Format.fprintf ppf " + %g %s" c names.(v)
      else Format.fprintf ppf " - %g %s" (-.c) names.(v))
    terms;
  if !first then Format.fprintf ppf "0"

let pp ppf p =
  let names = Array.init p.n (var_name p) in
  let dir = match p.dir with Minimize -> "min" | Maximize -> "max" in
  Format.fprintf ppf "@[<v>%s: " dir;
  pp_terms ppf p.obj names;
  Format.fprintf ppf "@,subject to:@,";
  Array.iteri
    (fun i c ->
      let s = match c.sense with Le -> "<=" | Ge -> ">=" | Eq -> "=" in
      Format.fprintf ppf "  %s: " (constr_name p i);
      pp_terms ppf c.terms names;
      Format.fprintf ppf " %s %g@," s c.rhs)
    (constrs p);
  Format.fprintf ppf "bounds:@,";
  Array.iteri
    (fun i v ->
      Format.fprintf ppf "  %g <= %s <= %g%s@," v.lo names.(i) v.hi
        (if v.integer then " (int)" else ""))
    (vars p);
  Format.fprintf ppf "@]"
