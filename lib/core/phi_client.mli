(** Sender-side Phi integration.

    Bundles the per-connection protocol of Section 2.2.2 into the two
    hooks {!Phi_tcp.Source} exposes: a congestion-controller factory
    (which performs the context-server lookup, applies the policy and
    builds whichever algorithm it chose) and an end-of-connection
    callback (which reports back).

    [factory] replaces the old Cubic-only [cubic_factory]: the policy now
    returns a {!Cc_algo.t} choice and {!Cc_algo.basic_builder} constructs
    it, so the client serves Cubic/Reno/Vegas.  The Remy variants need a
    rule table; the experiments build them through
    [Phi_experiments.Cc_select]. *)

type t

val create : server:Context_server.t -> policy:Policy.t -> path:string -> unit -> t

val factory : t -> unit -> Phi_tcp.Cc.t
(** Looks the context up, asks the policy for an algorithm choice and
    builds the controller.  Exactly one context-server round trip.  The
    choice goes through a {!Policy.Compiled} table held by the client
    and recompiled lazily whenever the policy's generation moved. *)

val on_conn_end : t -> Phi_tcp.Flow.conn_stats -> unit
(** Reports the finished connection to the context server. *)

val last_context : t -> Context.t option
(** The context returned by the most recent lookup (introspection). *)

val last_choice : t -> Cc_algo.t option
(** The algorithm chosen at the most recent lookup. *)
