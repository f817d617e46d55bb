(** Linear / integer linear program builder.

    A problem is a set of bounded variables, a list of linear
    constraints, and a linear objective.  Variables are identified by
    the integer index returned from {!add_var}.  Variables and
    constraints are only appended: a variable's bounds are fixed when
    it is added, and solvers take per-solve bound overrides ([?lo] /
    [?hi]) instead of editing them.  Once handed to a solver a problem
    is treated as read-only.

    This module replaces the role of [lp_solve] in the original
    Wishbone system (see DESIGN.md, substitution table). *)

type sense = Le | Ge | Eq

type direction = Minimize | Maximize

(** A single linear constraint [sum coeffs {<=,>=,=} rhs].  Terms with
    duplicate variable indices are summed. *)
type constr = {
  terms : (int * float) list;
  sense : sense;
  rhs : float;
  cname : string option;  (** [None]: rendered as [c<i>] *)
}

type var_info = {
  vname : string option;  (** [None]: rendered as [x<i>] *)
  lo : float;  (** lower bound; must be finite *)
  hi : float;  (** upper bound; may be [infinity] *)
  integer : bool;
}

type t

val create : unit -> t

val add_var :
  ?name:string -> ?lo:float -> ?hi:float -> ?integer:bool -> t -> int
(** [add_var p] registers a fresh variable and returns its index.
    Defaults: [lo = 0.], [hi = infinity], [integer = false].
    @raise Invalid_argument if [lo] is infinite or [lo > hi]. *)

val add_constr :
  ?name:string -> t -> (int * float) list -> sense -> float -> unit
(** [add_constr p terms sense rhs] appends a constraint.
    @raise Invalid_argument on an out-of-range variable index. *)

val set_objective : t -> direction -> (int * float) list -> unit
(** Replaces the objective.  The default objective is [Minimize 0]. *)

(** {1 Accessors} *)

val n_vars : t -> int
val n_constrs : t -> int
val vars : t -> var_info array
val constrs : t -> constr array
val objective : t -> (int * float) list
val direction : t -> direction
val integer_vars : t -> int list
(** Indices of variables declared integral, in increasing order. *)

val var_name : t -> int -> string
(** [var_name p i]: variable [i]'s name, or [x<i>] when it has none. *)

val constr_name : t -> int -> string
(** [constr_name p i]: row [i]'s name, or [c<i>] when it has none. *)

val copy : t -> t
(** Deep copy; changes to the copy do not affect the original. *)

val objective_value : t -> float array -> float
(** Evaluate the objective (in the problem's own direction) at a point. *)

val constraint_violation : t -> float array -> float
(** Largest violation of any constraint or bound at a point; [0.] when
    the point is feasible. *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering in an LP-file-like syntax. *)
