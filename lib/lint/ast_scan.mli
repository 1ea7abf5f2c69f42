(** Parsetree fact extraction for phi-lint's cross-module passes.

    Each library implementation, parsed once by {!Lint} with
    [Ppxlib.Parse] (the OCaml 5.2 Parsetree on every supported
    compiler), is reduced to the facts the dataflow passes consume:
    per-module function summaries (allocation sites, outgoing
    references, cold regions, pool fan-out markers) and module-level
    mutable-state bindings.

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
          [Pool.try_map] / [Pool.fan_out], the parallel-DES coordinator's [Pdes.run]
          / [Pdes.on_drain] (island window and drain bodies run on
          worker domains), or the dynamics-script combinators
          [Dynamics.at] / [Dynamics.every] (their callbacks run when
          the evaluation matrix fans the enclosing scenario over pool
          domains) *)
}

type global = { g_id : string; g_file : string; g_line : int; g_what : string }
(** A module-level binding that constructs mutable state ([ref],
    [Hashtbl.create], an array, ...) anywhere in its right-hand side
    outside a nested [fun], in submodules and indented bindings too. *)

type modinfo = {
  m_name : string;
  m_file : string;
  m_funcs : func list;
  m_globals : global list;
}

val module_name : string -> string
(** ["lib/net/link.ml"] -> ["Link"] — the unprefixed module name used in
    analysis ids. *)

(** {2 Parsetree helpers shared with {!Lint} and {!Handle_flow}} *)

val strip_stdlib : string -> string
(** ["Stdlib.compare"] -> ["compare"]; other paths unchanged. *)

val flatten_lid : Ppxlib.Longident.t -> string list

val path_of_lid : Ppxlib.Longident.t -> string
(** The dotted path as written: ["Phi_net.Link.send"]. *)

val iter_children : (Ppxlib.expression -> unit) -> Ppxlib.expression -> unit
(** Apply a function to every expression directly below the given one
    (through patterns, bindings and module expressions too) without
    descending further. *)

val param_defaults : Ppxlib.function_param list -> Ppxlib.expression list
(** The default-argument expressions of a [fun] parameter list. *)

val pat_name : Ppxlib.pattern -> string option

type binding =
  | Value of Ppxlib.expression  (** no parameters: a module-level value *)
  | Body of Ppxlib.expression  (** a function's body below its parameters *)
  | Cases of Ppxlib.case list  (** the cases of a final [function] *)

val peel_params : Ppxlib.expression -> binding
(** Strip the curried-parameter spine of a binding's right-hand side;
    locally abstract types and constraints are not parameters. *)

val iter_bindings :
  mod_path:string -> (mod_path:string -> Ppxlib.value_binding -> unit) -> Ppxlib.structure -> unit
(** Every module-level value binding, nested submodules included, with
    the dotted module path it lives in (rooted at [mod_path]). *)

val scan : path:string -> Ppxlib.structure -> modinfo
(** Distil one parsed library implementation. *)
