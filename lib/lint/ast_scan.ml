(* AST fact extraction for the cross-module analyses.

   {!Lint} parses each source once with [Ppxlib.Parse] (the OCaml 5.2
   Parsetree on every supported compiler); one recursive walk over a
   library implementation then distils the per-module facts the
   dataflow passes consume: every module-level function with its
   allocation sites, outgoing references and cold regions, plus every
   module-level binding that constructs mutable state.

   Cold regions — code that cannot run on a steady-state hot path — are
   excluded from the hot-alloc pass at the source:
   - arguments of [raise] / [invalid_arg] / [failwith] (error paths);
   - branches guarded by [Invariant.enabled ()] / [!Invariant.armed]
     (sanitizer-only paths, compiled out of disarmed runs);
   - bodies of functions annotated [@inline never] — the codebase
     convention for out-of-line anomaly handlers (see lib/sim/engine.ml).

   The walk is syntactic: it sees no types, so a handful of judgement
   calls are encoded as tables below (which stdlib entry points
   allocate, which expressions produce a boxed float).  Its
   limitations — calls through record fields (the [Cc] controllers,
   link receivers) and through escaping function parameters are not
   resolved — are documented in the interface; the runtime allocation
   gate and sanitizer remain the backstop for those paths. *)

type alloc_kind = Closure | Block | Boxed_float | Array_alloc | Extern

let kind_to_string = function
  | Closure -> "closure"
  | Block -> "tuple/record/constructor"
  | Boxed_float -> "boxed float"
  | Array_alloc -> "array"
  | Extern -> "allocating stdlib call"

type alloc = { a_line : int; a_kind : alloc_kind; a_what : string; a_cold : bool }

type call = { c_line : int; c_path : string; c_cold : bool }

type func = {
  f_id : string;
  f_file : string;
  f_line : int;
  f_cold : bool;
  f_allocs : alloc list;
  f_calls : call list;
  f_pool_spawn : bool;
}

type global = { g_id : string; g_file : string; g_line : int; g_what : string }

type modinfo = {
  m_name : string;
  m_file : string;
  m_funcs : func list;
  m_globals : global list;
}

let module_name path =
  let base = Filename.remove_extension (Filename.basename path) in
  String.capitalize_ascii base

(* {2 Name tables} *)

let strip_stdlib p =
  let pn = String.length "Stdlib." in
  if String.length p > pn && String.starts_with ~prefix:"Stdlib." p then
    String.sub p pn (String.length p - pn)
  else p

(* Stdlib entry points that allocate on every call (approximate,
   curated: containers that cons, [_opt] lookups that box in [Some],
   formatters, copying operations). *)
let extern_allocates =
  [
    "ref"; "Atomic.make";
    "Hashtbl.create"; "Hashtbl.add"; "Hashtbl.replace"; "Hashtbl.copy";
    "Hashtbl.find_opt"; "Hashtbl.to_seq"; "Hashtbl.fold";
    "Queue.create"; "Queue.push"; "Queue.add"; "Queue.copy"; "Queue.take_opt";
    "Queue.peek_opt";
    "Stack.create"; "Stack.push"; "Stack.pop_opt"; "Stack.top_opt";
    "Array.make"; "Array.create_float"; "Array.init"; "Array.copy"; "Array.append";
    "Array.sub"; "Array.of_list"; "Array.to_list"; "Array.map"; "Array.mapi";
    "Array.make_matrix"; "Array.to_seq";
    "Float.Array.create"; "Float.Array.make"; "Float.Array.copy"; "Float.Array.sub";
    "Bytes.create"; "Bytes.make"; "Bytes.copy"; "Bytes.sub"; "Bytes.of_string";
    "Bytes.to_string";
    "String.make"; "String.init"; "String.sub"; "String.concat"; "String.map";
    "String.split_on_char"; "String.uppercase_ascii"; "String.lowercase_ascii";
    "String.trim"; "^"; "^^";
    "List.map"; "List.mapi"; "List.map2"; "List.init"; "List.append"; "List.concat";
    "List.concat_map"; "List.rev"; "List.rev_append"; "List.rev_map"; "List.sort";
    "List.stable_sort"; "List.fast_sort"; "List.filter"; "List.filter_map";
    "List.partition"; "List.split"; "List.combine"; "List.of_seq"; "List.to_seq";
    "List.cons"; "@"; "List.nth_opt"; "List.assoc_opt"; "List.find_opt";
    "Buffer.create"; "Buffer.contents"; "Buffer.to_bytes";
    "Printf.sprintf"; "Format.sprintf"; "Format.asprintf";
    "Seq.map"; "Seq.filter"; "Seq.cons";
    "string_of_int"; "string_of_float"; "string_of_bool"; "Int.to_string";
    "Float.to_string"; "float_of_string_opt"; "int_of_string_opt"; "Sys.getenv_opt";
  ]

(* Constructors of mutable state, for the module-level global scan. *)
let mutable_ctors =
  [
    "ref"; "Atomic.make"; "Hashtbl.create"; "Queue.create"; "Stack.create";
    "Buffer.create"; "Array.make"; "Array.create_float"; "Array.init";
    "Array.make_matrix"; "Bytes.create"; "Bytes.make"; "Float.Array.create";
    "Float.Array.make"; "Dynarray.create";
  ]

let raise_like = [ "raise"; "raise_notrace"; "invalid_arg"; "failwith"; "exit" ]

let float_ops = [ "+."; "-."; "*."; "/."; "**"; "~-."; "float_of_int"; "float_of_string" ]

(* {2 Parsetree helpers} *)

open Ppxlib

let line_of_loc (loc : Location.t) = loc.loc_start.pos_lnum

let rec flatten_lid (lid : Longident.t) =
  match lid with
  | Lident s -> [ s ]
  | Ldot (l, s) -> flatten_lid l @ [ s ]
  | Lapply (l, _) -> flatten_lid l

let path_of_lid lid = String.concat "." (flatten_lid lid)

(* Apply [f] to every expression directly below [e] (through patterns,
   bindings and module expressions too) without descending further. *)
let iter_children f e =
  (object
     inherit Ast_traverse.iter as super

     method! expression e' = if e' == e then super#expression e' else f e'
  end)
    #expression e

(* The default-argument expressions of a parameter list. *)
let param_defaults params =
  List.filter_map
    (fun p -> match p.pparam_desc with Pparam_val (_, d, _) -> d | Pparam_newtype _ -> None)
    params

let has_inline_never (attrs : attributes) =
  List.exists
    (fun (a : attribute) ->
      a.attr_name.txt = "inline"
      &&
      match a.attr_payload with
      | PStr [ { pstr_desc = Pstr_eval ({ pexp_desc = Pexp_ident { txt = Lident "never"; _ }; _ }, _); _ } ] ->
        true
      | _ -> false)
    attrs

(* A float-producing expression, syntactically: a float literal, an
   application of a float operator, or a [Float.*] call.  Used to spot
   the boxed store [r.field <- <float>] into a mixed record. *)
let rec floatish e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
    let p = strip_stdlib (path_of_lid txt) in
    List.mem p float_ops
    || (String.length p > 6 && String.sub p 0 6 = "Float." && p <> "Float.to_int")
  | Pexp_ifthenelse (_, t, Some e') -> floatish t || floatish e'
  | Pexp_constraint (e', _) -> floatish e'
  | _ -> false

(* {2 The walker} *)

let rec pat_name p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p', _) -> pat_name p'
  | _ -> None

(* [let x = ref e in body] where every use of [x] is a bare [!x] or
   [x := e'] and none sits under a nested function: the compiler's
   lambda-level [eliminate_ref] turns this into a mutable stack
   variable with no allocation (hot loops here are written with index
   refs in exactly this shape).  Any other occurrence — passed, stored,
   returned, captured by a closure — defeats the optimization. *)
let ref_eliminable x body =
  let ok = ref true in
  let rec go ~in_fun e =
    match e.pexp_desc with
    | Pexp_ident { txt = Lident y; _ } when y = x -> ok := false
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Lident ("!" | ":="); _ }; _ },
          (_, { pexp_desc = Pexp_ident { txt = Lident y; _ }; _ }) :: rest )
      when y = x ->
      if in_fun then ok := false;
      List.iter (fun (_, a) -> go ~in_fun a) rest
    | Pexp_function _ -> iter_children (go ~in_fun:true) e
    | Pexp_let (_, vbs, b) ->
      List.iter (fun vb -> go ~in_fun vb.pvb_expr) vbs;
      (* A rebinding of [x] shadows it for the rest of the body. *)
      if not (List.exists (fun vb -> pat_name vb.pvb_pat = Some x) vbs) then go ~in_fun b
    | _ -> iter_children (go ~in_fun) e
  in
  go ~in_fun:false body;
  !ok

type acc = {
  mutable allocs : alloc list;
  mutable calls : call list;
  mutable pool_spawn : bool;
}

let sanitizer_guard ~self cond =
  let found = ref false in
  (object
     inherit Ast_traverse.iter as super

     method! expression e =
       (match e.pexp_desc with
       | Pexp_ident { txt; _ } ->
         let p = path_of_lid txt in
         if
           String.ends_with ~suffix:"Invariant.enabled" p
           || String.ends_with ~suffix:"Invariant.armed" p
           || (self = "Invariant" && (p = "enabled" || p = "armed"))
         then found := true
       | _ -> ());
       super#expression e
  end)
    #expression cond;
  !found

(* Walk one function body, attributing every fact to [acc].  [cold]
   tracks the syntactic cold contexts described above. *)
let walk_body ~self ~acc body =
  let add_alloc ~cold line kind what =
    acc.allocs <- { a_line = line; a_kind = kind; a_what = what; a_cold = cold } :: acc.allocs
  in
  let add_call ~cold line path =
    acc.calls <- { c_line = line; c_path = path; c_cold = cold } :: acc.calls;
    let suffix s = String.ends_with ~suffix:s (strip_stdlib path) in
    if
      suffix "Pool.map" || suffix "Pool.try_map" || suffix "Pool.fan_out" || suffix "Pdes.run"
      || suffix "Pdes.on_drain"
      (* The dynamics-script combinators register engine callbacks: a
         scenario installing them is fanned over pool domains by the
         evaluation matrix, so whatever the callbacks touch is
         pool-reachable too. *)
      || suffix "Dynamics.at" || suffix "Dynamics.every"
    then acc.pool_spawn <- true
  in
  let rec go ~cold e =
    let line = line_of_loc e.pexp_loc in
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> add_call ~cold line (path_of_lid txt)
    | Pexp_function (params, _, body') ->
      add_alloc ~cold line Closure (match params with [] -> "function" | _ -> "fun");
      List.iter (go ~cold) (param_defaults params);
      (match body' with
      | Pfunction_body b -> go ~cold b
      | Pfunction_cases (cases, _, _) -> List.iter (case ~cold) cases)
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
      let p = path_of_lid txt in
      let sp = strip_stdlib p in
      if List.mem sp raise_like then begin
        add_call ~cold line p;
        List.iter (fun (_, a) -> go ~cold:true a) args
      end
      else begin
        add_call ~cold line p;
        if List.mem sp extern_allocates then add_alloc ~cold line Extern sp;
        List.iter (fun (_, a) -> go ~cold a) args
      end
    | Pexp_apply (head, args) ->
      go ~cold head;
      List.iter (fun (_, a) -> go ~cold a) args
    | Pexp_ifthenelse (cond, then_, else_) ->
      let guard = sanitizer_guard ~self cond in
      go ~cold cond;
      go ~cold:(cold || guard) then_;
      Option.iter (go ~cold:(cold || guard)) else_
    | Pexp_tuple es ->
      add_alloc ~cold line Block "tuple";
      List.iter (go ~cold) es
    | Pexp_record (fields, base) ->
      add_alloc ~cold line Block "record";
      List.iter (fun (_, v) -> go ~cold v) fields;
      Option.iter (go ~cold) base
    | Pexp_construct ({ txt; _ }, Some arg) ->
      add_alloc ~cold line Block (path_of_lid txt);
      go ~cold arg
    | Pexp_variant (tag, Some arg) ->
      add_alloc ~cold line Block ("`" ^ tag);
      go ~cold arg
    | Pexp_array es ->
      add_alloc ~cold line Array_alloc "array literal";
      List.iter (go ~cold) es
    | Pexp_setfield (r, _, v) ->
      if floatish v then add_alloc ~cold (line_of_loc v.pexp_loc) Boxed_float "float store into mutable field";
      go ~cold r;
      go ~cold v
    | Pexp_lazy e' ->
      add_alloc ~cold line Block "lazy";
      go ~cold e'
    | Pexp_let (_, vbs, body') ->
      List.iter
        (fun vb ->
          match (pat_name vb.pvb_pat, vb.pvb_expr.pexp_desc) with
          | ( Some x,
              Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, [ (_, arg) ]) )
            when strip_stdlib (path_of_lid txt) = "ref" && ref_eliminable x body' ->
            go ~cold arg
          | _ -> go ~cold vb.pvb_expr)
        vbs;
      go ~cold body'
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      go ~cold scrut;
      List.iter (case ~cold) cases
    | Pexp_open (_, e') | Pexp_letmodule (_, _, e') -> go ~cold e'
    | _ ->
      (* Sequences, loops, constraints, field reads, objects: walk
         children generically so no reference is lost. *)
      iter_children (go ~cold) e
  and case ~cold c =
    Option.iter (go ~cold) c.pc_guard;
    go ~cold c.pc_rhs
  in
  go ~cold:false body

type binding = Value of expression | Body of expression | Cases of case list

(* Strip the curried-parameter spine: [let f a b = e] is one function,
   not a chain of closure allocations.  Locally abstract types and
   constraints are not parameters. *)
let rec peel_params e =
  match e.pexp_desc with
  | Pexp_function (_, _, Pfunction_cases (cases, _, _)) -> Cases cases
  | Pexp_function (params, _, Pfunction_body body) -> (
    let is_val p = match p.pparam_desc with Pparam_val _ -> true | Pparam_newtype _ -> false in
    match peel_params body with
    | Value b when List.exists is_val params -> Body b
    | binding -> binding)
  | Pexp_newtype (_, body) | Pexp_constraint (body, _) -> peel_params body
  | _ -> Value e

(* Does [e] construct mutable state anywhere outside a nested function?
   (State built inside a [fun] is per-call — the isolation the pool
   wants.)  Returns the innermost construction found. *)
let rec find_mutable_ctor e =
  match e.pexp_desc with
  | Pexp_function _ -> None
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
    let p = strip_stdlib (path_of_lid txt) in
    if List.mem p mutable_ctors then Some (line_of_loc e.pexp_loc, p)
    else List.find_map (fun (_, a) -> find_mutable_ctor a) args
  | Pexp_array _ -> Some (line_of_loc e.pexp_loc, "array literal")
  | _ ->
    let found = ref None in
    iter_children (fun e' -> if Option.is_none !found then found := find_mutable_ctor e') e;
    !found

(* Every module-level value binding of [str], nested submodules
   included, with the dotted module path it lives in. *)
let iter_bindings ~mod_path f str =
  let rec items ~mod_path str = List.iter (item ~mod_path) str
  and item ~mod_path si =
    match si.pstr_desc with
    | Pstr_value (_, vbs) -> List.iter (f ~mod_path) vbs
    | Pstr_module mb -> submodule ~mod_path mb
    | Pstr_recmodule mbs -> List.iter (submodule ~mod_path) mbs
    | _ -> ()
  and submodule ~mod_path mb =
    Option.iter (fun sub -> module_expr ~mod_path:(mod_path ^ "." ^ sub) mb.pmb_expr) mb.pmb_name.txt
  and module_expr ~mod_path me =
    match me.pmod_desc with
    | Pmod_structure str -> items ~mod_path str
    | Pmod_constraint (me', _) -> module_expr ~mod_path me'
    | _ -> ()
  in
  items ~mod_path str

let scan ~path str =
  let m_name = module_name path in
  let funcs = ref [] and globals = ref [] in
  let binding ~mod_path vb =
    let line = line_of_loc vb.pvb_loc in
    let name = match pat_name vb.pvb_pat with Some n -> n | None -> Printf.sprintf "_init_%d" line in
    let id = mod_path ^ "." ^ name in
    let func walk =
      let acc = { allocs = []; calls = []; pool_spawn = false } in
      walk acc;
      funcs :=
        {
          f_id = id;
          f_file = path;
          f_line = line;
          f_cold = has_inline_never vb.pvb_attributes;
          f_allocs = List.rev acc.allocs;
          f_calls = List.rev acc.calls;
          f_pool_spawn = acc.pool_spawn;
        }
        :: !funcs
    in
    match peel_params vb.pvb_expr with
    | Value body -> (
      (* A module-level value: the [domain-race] pass cares whether it
         constructs mutable state (anywhere in the right-hand side —
         nested, indented, inside a record). *)
      match find_mutable_ctor body with
      | Some (_, what) -> globals := { g_id = id; g_file = path; g_line = line; g_what = what } :: !globals
      | None -> ())
    | Body body -> func (fun acc -> walk_body ~self:mod_path ~acc body)
    | Cases cases ->
      func (fun acc ->
          List.iter
            (fun c ->
              Option.iter (fun g -> walk_body ~self:mod_path ~acc g) c.pc_guard;
              walk_body ~self:mod_path ~acc c.pc_rhs)
            cases)
  in
  iter_bindings ~mod_path:m_name binding str;
  { m_name; m_file = path; m_funcs = List.rev !funcs; m_globals = List.rev !globals }
