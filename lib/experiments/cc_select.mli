(** The sender side of every simulated cell: registry-backed
    construction of every algorithm, pretrained tables included, and
    the per-connection protocol of Section 2.2.2.

    {!Phi.Cc_algo.basic_builder} covers the window-based controllers but
    cannot build the Remy variants (the core library has no rule tables).
    This module completes the registry: {!builder} serves all five
    algorithms, with Remy-Phi consuming the utilization from the context
    of the connection's single lookup; {!wire} runs that lookup, and the
    report that closes it, for a fixed algorithm or a policy. *)

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

type choice =
  | Algorithm of Phi.Cc_algo.t  (** every connection runs this algorithm *)
  | Policy of Phi.Policy.t
      (** each connection runs what the policy picks for its looked-up
          context *)

type wiring = {
  cc_factory : int -> unit -> Phi_tcp.Cc.t;
      (** the scenario runners' per-sender-index controller factory *)
  attach : Phi_sim.Engine.t -> unit;  (** call once the cell's topology exists *)
  on_conn_end : Phi_tcp.Flow.conn_stats -> unit;
  messages : unit -> int;  (** context-server lookups + reports so far *)
}

val wire : t -> capacity_bps:float -> path:string -> choice -> wiring
(** The one choice-to-controller mapping of every simulated cell.
    [Algorithm a] for any [a] but Remy-Phi gets a fresh {!builder}
    controller per connection and no context server.  [Algorithm
    Remy_phi] and [Policy p] follow the practical protocol: [attach]
    puts a context server for a [capacity_bps] bottleneck on the cell's
    engine; each connection looks up [path]'s context once when it
    starts, builds Remy-Phi or the algorithm [p] picks for that context
    (through a {!Phi.Policy.Compiled} snapshot of [p] taken here), and
    reports its stats once when it ends.  A wiring holds per-cell state:
    make one per run. *)

val parse_cc : string -> Phi.Cc_algo.t
(** Parse a [--cc NAME] argument (case-insensitive, trimmed).  Raises
    [Invalid_argument] with the registered names for unknown input. *)
