(** Project-wide call graph over {!Ast_scan} facts.

    Resolution is by name shape, matching this codebase's conventions:
    references key on their last two dotted components ([Module.f] —
    the conventional [module M = Phi_x.M] aliases keep basenames, and
    module basenames are unique across lib/), with bare names resolved
    inside the referencing module.  Calls through record fields or
    escaping function parameters are not resolved (see {!Ast_scan}). *)

type t

val build : Ast_scan.modinfo list -> t

val funcs : t -> Ast_scan.func list
val globals : t -> Ast_scan.global list

val find : t -> string -> Ast_scan.func list
(** All functions whose id matches the given name's last two dotted
    components — normally zero or one; several only if two modules
    share a basename (the analyses then stay conservative). *)

val resolve_global : t -> caller_module:string -> string -> Ast_scan.global option
(** Resolve a raw reference to a module-level mutable binding as written
    inside [caller_module]: bare names resolve within that module,
    dotted paths by suffix. *)

val caller_module_of : Ast_scan.func -> string
(** The innermost enclosing module of a function id — the module bare
    references inside it resolve against. *)

val reach : t -> roots:Ast_scan.func list -> include_cold:bool -> (string, string list) Hashtbl.t
(** Breadth-first reachability.  Maps each reachable function id to the
    call chain (root first) that first reached it.  With
    [include_cold:false], cold call sites and [@inline never] callees
    are not followed — the hot-path view; with [include_cold:true]
    every edge counts — the race-analysis view. *)
