(** Parsetree fact extraction: the front end of phi-lint's AST engine.

    Each [.ml] source is parsed with the compiler's own parser
    ([Parse.implementation] from compiler-libs) and reduced to the facts
    the dataflow passes consume: per-module function summaries
    (allocation sites, outgoing references, cold regions, pool fan-out
    markers) and module-level mutable-state bindings.

    {2 Cold regions}

    Allocation and call sites are tagged cold when they cannot execute
    on a steady-state hot path: arguments of [raise] / [invalid_arg] /
    [failwith]; branches guarded by [Invariant.enabled ()] or
    [!Invariant.armed] (sanitizer-only code); and whole functions
    annotated [@inline never] (the codebase convention for out-of-line
    anomaly handlers).  The {!Effects} pass neither reports cold
    allocations nor follows cold calls.

    {2 Known limitations}

    The walk is purely syntactic (no typing): calls through record
    fields (the [Phi_tcp.Cc] controller hooks, link receiver callbacks)
    and through function parameters that escape are not resolved, and
    the allocating-stdlib table is curated rather than derived.  The
    runtime allocation gate (the bench's [micro] experiment +
    [phi_json_check]) and the [PHI_SANITIZE=1] sanitizer remain the
    dynamic backstop on those paths. *)

type alloc_kind =
  | Closure  (** a [fun]/[function] evaluated inside a function body *)
  | Block  (** tuple, record, non-constant constructor, lazy *)
  | Boxed_float  (** a float expression stored into a mutable record field *)
  | Array_alloc  (** an array literal *)
  | Extern  (** a call into the curated allocating-stdlib table *)

val kind_to_string : alloc_kind -> string

type alloc = {
  a_line : int;
  a_kind : alloc_kind;
  a_what : string;  (** constructor / callee, for diagnostics *)
  a_cold : bool;
}

type call = { c_line : int; c_path : string; c_cold : bool }
(** One outgoing reference: an application head or a bare identifier
    (a function passed as a value may be called by its receiver, so
    both count as edges).  [c_path] is the raw dotted path as written
    ([send], [Link.send], [Phi_net.Link.send]); {!Callgraph} resolves
    it. *)

type func = {
  f_id : string;  (** ["Module.name"], nested modules dotted in between *)
  f_file : string;
  f_line : int;
  f_cold : bool;  (** [@inline never]: an out-of-line cold helper *)
  f_allocs : alloc list;
  f_calls : call list;
  f_pool_spawn : bool;
      (** references a multi-domain entry point: [Pool.map] /
          [Pool.try_map], the parallel-DES coordinator's [Pdes.run]
          / [Pdes.on_drain] (island window and drain bodies run on
          worker domains), or the dynamics-script combinators
          [Dynamics.at] / [Dynamics.every] (their callbacks run when
          the evaluation matrix fans the enclosing scenario over pool
          domains) *)
}

type global = { g_id : string; g_file : string; g_line : int; g_what : string }
(** A module-level binding that constructs mutable state ([ref],
    [Hashtbl.create], an array, ...) anywhere in its right-hand side
    outside a nested [fun] — including the nested and indented shapes
    the old column-0 lexical heuristic missed. *)

type modinfo = {
  m_name : string;
  m_file : string;
  m_funcs : func list;
  m_globals : global list;
}

val module_name : string -> string
(** ["lib/net/link.ml"] -> ["Link"] — the unprefixed module name used in
    analysis ids. *)

(** {2 Parsetree helpers shared with {!Handle_flow}} *)

val flatten_lid : Longident.t -> string list

val pat_name : Parsetree.pattern -> string option

val peel_params :
  Parsetree.expression ->
  int ->
  [ `Body of Parsetree.expression | `Cases of Parsetree.case list ] * int
(** Strip the curried-parameter spine; returns the innermost body (or
    the cases of a final [function]) and the parameter count. *)

val scan : path:string -> string -> (modinfo, string) result
(** Parse and distil one source.  [Error] carries the parser's message
    (a file that does not parse cannot be analyzed — the build itself
    will reject it; the token engine still scans it). *)
