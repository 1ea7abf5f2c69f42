(** Registry-backed construction of every algorithm, pretrained tables
    included.

    {!Phi.Cc_algo.basic_builder} covers the window-based controllers but
    cannot build the Remy variants (the core library has no rule tables).
    This module completes the registry: {!builder} serves all five
    algorithms and plugs straight into {!Phi.Phi_client.create}, with
    Remy-Phi consuming the utilization from the context of the client's
    single per-connection lookup; {!wire} is the same mapping for a
    simulated cell, context server included. *)

type t = {
  remy_table : Phi_remy.Compiled_table.t;
  remy_phi_table : Phi_remy.Compiled_table.t;
}

val create : ?remy_table:Phi_remy.Rule_table.t -> ?remy_phi_table:Phi_remy.Rule_table.t -> unit -> t
(** Tables default to {!Phi_remy.Pretrained}; both are compiled
    ({!Phi_remy.Compiled_table}) once here, so every connection shares
    the flat immutable forms (safe across pool domains). *)

val builder : t -> Phi.Cc_algo.builder
(** Builds any registered algorithm. *)

type wiring = {
  cc_factory : int -> unit -> Phi_tcp.Cc.t;
      (** the scenario runners' per-sender-index controller factory *)
  attach : Phi_sim.Engine.t -> unit;  (** call once the cell's topology exists *)
  on_conn_end : Phi_tcp.Flow.conn_stats -> unit;
  messages : unit -> int;  (** context-server lookups + reports so far *)
}

val wire : t -> capacity_bps:float -> path:string -> Phi.Cc_algo.t -> wiring
(** The one algorithm-to-controller mapping of every simulated cell.
    Every algorithm but Remy-Phi gets a fresh {!builder} controller per
    connection and no context server.  Remy-Phi follows the practical
    protocol: [attach] puts a context server for a [capacity_bps]
    bottleneck on the cell's engine; each connection looks up [path]'s
    utilization once when it starts and reports its stats once when it
    ends.  A wiring holds per-cell state: make one per run. *)

val parse_cc : string -> Phi.Cc_algo.t
(** Parse a [--cc NAME] argument (case-insensitive, trimmed).  Raises
    [Invalid_argument] with the registered names for unknown input. *)
