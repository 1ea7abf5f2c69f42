(** phi-lint: project-specific static analysis over OCaml sources.

    Enforces the correctness conventions of this repository: no
    polymorphic comparison (a silent NaN hazard on the float-carrying
    records that dominate this codebase), no partial stdlib lookups, no
    [failwith]/[exit] in library code, pooled-packet ownership, an
    allocation-free per-packet path, and a documented [.mli] for every
    library module.

    One engine: each source is parsed once with [Ppxlib.Parse] (the
    OCaml 5.2 Parsetree on every supported compiler), and that one tree
    feeds every rule.  The pattern rules are one traversal over
    identifiers, type constructors, module paths and record
    declarations.  On top of the same trees run an allocation-effect
    lattice propagated over a project-wide call graph ([hot-alloc], see
    {!Effects}), an intraprocedural handle-lifetime analysis for pooled
    packets ([handle-lifetime], see {!Handle_flow}), and a reachability
    analysis from pool jobs to module-level mutable state
    ([domain-race], see {!Race}).  A source that does not parse is an
    input error ({!Syntax_error}), never a partially linted file.

    Any violation can be suppressed with a
    [(* phi-lint: allow <rule> *)] comment on the same line or the line
    directly above; the directives are read from the lexer's comment
    list.  Every rule runs under the [dune build @lint] tier-1 gate. *)

type violation = {
  file : string;
  line : int;  (** 1-based; file-scoped rules report line 1 *)
  rule : string;
  message : string;
}

val rules : (string * string) list
(** Every rule the analyzer knows, as [(name, description)]:
    - [obj-magic]: any use of [Obj.magic].
    - [poly-compare]: bare [compare] / [Stdlib.compare]; require a typed
      comparator ([Float.compare], [Int.compare], ...).  In [lib/sim],
      [lib/net] and [lib/tcp] also bare [min] / [max] and
      [Stdlib.min] / [Stdlib.max] (labels, definitions and record
      fields of those names excepted); require [Int.min], [Float.max],
      ...
    - [float-equal]: [=] or [<>] against a float literal (or [nan],
      [infinity], ...); require [Float.equal] or an epsilon test.
    - [list-nth]: [List.nth]; require [List.nth_opt] or an array.
    - [hashtbl-find]: [Hashtbl.find]; require [Hashtbl.find_opt].
    - [failwith]: [failwith] inside [lib/]; require a typed exception.
    - [exit]: [exit] inside [lib/]; only binaries may terminate.
    - [missing-mli]: a [lib/**/*.ml] with no sibling [.mli].
    - [mli-doc]: a [lib/**/*.mli] that does not open with a doc comment.
    - [domain-global]: a top-level [let] binding mutable state ([ref],
      [Hashtbl.create], [Atomic.make], ...) in a library whose code runs
      inside {!Phi_runner.Pool} worker domains ([lib/experiments],
      [lib/runner]) — such state is shared across domains and breaks the
      pool's per-job isolation.  Any module-level value binding counts,
      in submodules too, when its right-hand side constructs the state
      outside a nested function.
    - [hot-queue]: any [Queue]/[Stdlib.Queue] use inside the per-packet
      hot-path libraries or the transport ([lib/net], [lib/sim],
      [lib/tcp]) — the stdlib queue allocates a cons cell per element;
      use {!Phi_sim.Ring}.
    - [hot-hashtbl]: any [Hashtbl]/[Stdlib.Hashtbl] use inside the
      per-packet hot-path libraries ([lib/net], [lib/sim]) — every probe
      is a polymorphic hash and compare; index a dense array or a masked
      slot table.  [lib/tcp] is out of scope while the sender's [retx]
      table, whose fold order the benchmark's fingerprints pin, remains.
    - [packet-escape]: violations of the pooled-packet ownership
      contract in the packet-handling layers ([lib/net], [lib/tcp],
      except the pool module itself): constructing a packet through the
      legacy [Packet.data]/[Packet.ack] heap constructors instead of the
      pool's acquire functions, declaring a [mutable] record field of
      type [Packet.handle] (retaining a handle across events dangles it
      once the packet is released; handle-consuming callback fields are
      fine), or mentioning a handle again on the same line after
      [Packet.release] passed it back to the free list.
    - [transport-unified]: library code outside [lib/tcp] / [lib/net]
      that binds flows on [Phi_net.Node] directly or references the
      deleted [Remy_sender] transport — there is exactly one sender
      transport; algorithms are [Phi_tcp.Cc] controllers driven by
      [Phi_tcp.Sender]/[Phi_tcp.Source].
    - [hot-alloc]: an allocation site (closure, tuple/record/
      constructor, boxed-float store, array, or a curated allocating
      stdlib call) in a function reachable from the hot entry points
      (engine loop, link pipeline, per-packet transport handlers)
      through non-cold call-graph edges.  Error paths ([raise] /
      [invalid_arg] arguments), sanitizer-guarded branches
      ([Invariant.enabled ()] / [!Invariant.armed]) and
      [@inline never] cold helpers are excluded.
    - [handle-lifetime]: per-function dataflow over pooled packet
      handles in the [packet-escape] scope — use after
      [Packet.release] (any distance, any control flow), double
      release, and handles acquired but neither released nor
      ownership-transferred on every path.
    - [domain-race]: module-level mutable state referenced by any
      function reachable (through the call graph, cold edges included)
      from a function that fans work out via [Pool.map] /
      [Pool.try_map] / [Pool.fan_out] — reported at the global's definition line.
      Unlike [domain-global] (which polices where pool-adjacent code
      {e lives}), this follows actual reachability from the fan-out
      sites across modules.
    - [interpreted-lookup]: a call to the interpreted decision plane
      ([Rule_table.lookup]/[lookup_index] or [Policy.choice_for]) from a
      hot module ([lib/tcp], the Remy controller [lib/remy/remy_cc.ml],
      the swarm client half [lib/experiments/swarm.ml], or
      [lib/core/phi_client.ml]) — hot paths must take the compiled flat
      forms ([Compiled_table.lookup], [Policy.Compiled.choice_for]);
      only the compilers themselves lower via the interpreted scan. *)

val in_lib : string -> bool
(** Whether a path is under a [lib/] directory, i.e. subject to the
    library-only rules. *)

val in_domain_pool : string -> bool
(** Whether a path is under [lib/experiments/] or [lib/runner/], i.e.
    subject to the [domain-global] rule because its code is executed by
    {!Phi_runner.Pool} worker domains. *)

val in_hot_path : string -> bool
(** Whether a path is under [lib/net/] or [lib/sim/], i.e. subject to
    the [hot-hashtbl] rule because its code runs once (or more) per
    simulated packet. *)

val in_packet_scope : string -> bool
(** Whether a path is subject to the [packet-escape] rule: under
    [lib/net/] or [lib/tcp/] but not the pool module
    ([packet.ml]/[packet.mli]) itself, which is the one place allowed to
    mint and recycle handles. *)

val in_transport_scope : string -> bool
(** Whether a path is subject to the [transport-unified] rule: library
    code outside [lib/tcp/] (the transport) and [lib/net/] (the
    substrate it binds to). *)

val in_decision_scope : string -> bool
(** Whether a path is subject to the [interpreted-lookup] rule: the
    decision-plane hot modules ([lib/tcp/], [lib/remy/remy_cc.ml],
    [lib/experiments/swarm.ml], [lib/core/phi_client.ml]).  The
    compilers ([lib/remy/compiled_table.ml], [lib/core/policy.ml]) are
    deliberately outside — lowering needs the interpreted forms. *)

exception Syntax_error of { file : string; line : int; message : string }
(** A source that does not parse: its path, the line the parser stopped
    at, and the parser's message. *)

val lint_source : path:string -> string -> violation list
(** Every single-file rule (the pattern rules, [domain-global],
    [handle-lifetime], and [mli-doc] for [.mli] paths), with
    [phi-lint: allow] suppressions already applied.  [path] is used for
    diagnostics, to choose the parser ([.mli] is an interface) and to
    decide which scoped rules apply; the source itself is passed as a
    string, so fixtures need no files.
    @raise Syntax_error when the source does not parse. *)

val lint_tree : (string * string) list -> violation list
(** [lint_tree files] parses every [(path, contents)] pair once, runs
    the single-file rules, adds the cross-file [missing-mli] check, and
    runs the cross-module passes ([hot-alloc], [domain-race]) over the
    [lib/] implementations in the set.  Results are sorted by file and
    line.
    @raise Syntax_error on the first source that does not parse. *)

val to_string : violation -> string
(** Renders as [file:line: rule: message] — one diagnostic per line. *)

val json_report : violation list -> Phi_util.Json.t
(** The machine-readable report written by [phi_lint --json]: an object
    with [violations] (file/line/rule/message records, in input order),
    [total], and [by_rule] / [by_file] count objects with keys
    sorted. *)
