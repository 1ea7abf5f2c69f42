(** The congestion-control algorithm registry.

    A policy decision is no longer "which Cubic parameters" but "which
    algorithm, with which parameters".  The registry enumerates every
    algorithm the unified {!Phi_tcp.Sender} control plane can run and
    gives each a stable name for command lines ([--cc NAME]) and JSON
    reports.

    Construction is split from selection: this module (and the core
    library) knows how to build the window-based controllers, while the
    Remy variants need a trained rule table the core cannot depend on — a
    richer {!builder} ([Phi_experiments.Cc_select.builder]) supplies
    those.  The builder receives the looked-up {!Context.t}, so a
    Remy-Phi controller gets its utilization signal from the same
    one-lookup-per-connection protocol as every other algorithm. *)

type t =
  | Cubic of Phi_tcp.Cubic.params
  | Reno of float  (** MulTCP weight; [1.] is standard Reno *)
  | Vegas
  | Remy  (** classic Remy, 3-dimensional rule table *)
  | Remy_phi  (** Remy + shared utilization, 4-dimensional table *)

val name : t -> string
(** Registry name: ["cubic"], ["reno"], ["vegas"], ["remy"],
    ["remy-phi"]. *)

val all : t list
(** Every registered algorithm, with default parameters. *)

val names : string list
(** [List.map name all]. *)

val of_name : string -> t option
(** Inverse of {!name} (default parameters); [None] for unknown names. *)

type builder = ctx:Context.t -> t -> Phi_tcp.Cc.t
(** Turns a policy choice into a fresh per-connection controller, given
    the context the Phi lookup returned. *)

val basic_builder : builder
(** Builds [Cubic]/[Reno]/[Vegas]; raises [Invalid_argument] for the Remy
    variants, which need a rule table supplied by a richer builder. *)
