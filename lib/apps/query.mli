(** The placement query grammar: one syntax for the requests that the
    command-line tool's [partition], [deploy] and [serve] name
    (DESIGN.md §16).  A query line reads, in tokens separated by
    spaces or tabs,

    {v APP TOPOLOGY REQUEST [cpu=F] [net=F] v}

    - [APP] is [speech], [eeg1], [eeg14], [eeg22] or
      [synthetic:SEED[:NOPS]], a {!Synthetic.random_spec} that carries
      its own budgets;
    - [TOPOLOGY] is a [PLAT[>K],...] tier list ({!topology_of_string}),
      or [-] for a synthetic app;
    - [REQUEST] is [rate X] (X finite and > 0) or [search] (§4.3);
    - [cpu=F] / [net=F] override the node CPU and radio budgets
      (F >= 0; [inf] is unbounded).

    {!parse} is pure and total: any string yields a value or an error
    message, never an exception.  {!build} profiles each app once per
    {!cache}; its errors are values too. *)

type app =
  | Speech  (** MFCC speech detection, 9 operators *)
  | Eeg1  (** EEG seizure detection, one channel *)
  | Eeg14  (** EEG seizure detection, 14 channels *)
  | Eeg22  (** EEG seizure detection, 22 channels *)
  | Synthetic of { seed : int; n_ops : int option }

val apps : string
(** The app table as help text. *)

val app_of_string : string -> (app, string) result
val app_to_string : app -> string

val describe : app -> string
(** A one-line description, e.g. ["speech detection (MFCC pipeline)"]. *)

type topology = {
  plats : Profiler.Platform.t list;  (** node-most first *)
  parents : int array option;
      (** the tier tree, the implicit central server last as its root;
          [None] is the chain ({!Wishbone.Placement.of_platforms}) *)
}

val topology_of_string : flag:string -> string -> (topology, string) result
(** [PLAT[>K],...]: comma-separated platform names, node-most first.
    [>K] uplinks an entry to the K'th (0-based, later in the list; one
    past the last entry names the server), and an entry without it
    uplinks to the next, so a list with no [>] is a chain.  Errors
    start with [flag]. *)

type t = {
  app : app;
  topology : topology option;
      (** [None] ([-] on a query line) for a synthetic app, which
          ignores it; a profiled app needs one *)
  request : Wishbone.Service.request;
  cpu : float option;  (** [cpu=F]: the node CPU budget *)
  net : float option;  (** [net=F]: the node radio budget *)
}

val parse : string -> (t option, string) result
(** One query line; [Ok None] for a blank line or a [#] comment. *)

type cache
(** Profiled traces by app: each app is profiled at most once. *)

val cache : duration:float -> cache  (** traces of [duration] seconds *)

val profile : cache -> app -> (Profiler.Profile.raw, string) result
(** The app's profiled trace, collected on first use.  A synthetic app
    has none. *)

val build :
  cache -> mode:Wishbone.Movable.mode -> t ->
  (Wishbone.Service.query, string) result
(** The query's placement at rate 1, with the budget overrides
    applied: a synthetic app's spec on the two-way cut, a profiled
    app's spec (costed for the first platform under [mode]) over the
    tier topology. *)
