type violation = { file : string; line : int; rule : string; message : string }

let rules =
  [
    ("obj-magic", "Obj.magic defeats the type system; use a typed representation");
    ( "poly-compare",
      "polymorphic compare is unsound on floats (NaN) and float-carrying records, and in \
       lib/sim, lib/net, lib/tcp and lib/core a polymorphic min/max costs a C call per \
       use; use Float.compare / Int.compare / String.compare / Int.min / Float.max or a \
       dedicated comparator" );
    ( "float-equal",
      "(=) or (<>) against a float constant; use Float.equal or an epsilon comparison" );
    ("list-nth", "List.nth is partial and O(n); use List.nth_opt or an array");
    ("hashtbl-find", "Hashtbl.find raises Not_found; use Hashtbl.find_opt");
    ("failwith", "failwith in library code; raise a typed exception or return a result");
    ("exit", "exit in library code; only binaries may terminate the process");
    ("missing-mli", "library module has no .mli interface");
    ("mli-doc", "library interface must open with a (** ... *) doc comment");
    ( "domain-global",
      "top-level mutable state in a pool-driven library is shared across worker domains; \
       allocate it per run (from the seed) or suppress with an explicit justification" );
    ( "hot-queue",
      "Stdlib.Queue allocates one cons cell per element; hot-path simulation and \
       transport code (lib/net, lib/sim, lib/tcp) must use Phi_sim.Ring instead" );
    ( "hot-hashtbl",
      "Stdlib.Hashtbl pays a polymorphic hash and compare (two C calls) on every probe; \
       hot-path simulation code (lib/net, lib/sim) must index a dense array or a masked \
       slot table instead" );
    ( "hot-float-field",
      "a mutable float field in a record that also has non-float fields: OCaml boxes \
       every store into it, and transport and controller state (lib/tcp, lib/remy) is \
       stored per ACK; make the record all-float, which OCaml stores flat, or keep the \
       floats in a floatarray" );
    ( "packet-escape",
      "pooled packet handles die at release: construct packets only through the pool \
       (Packet.acquire_data / Packet.acquire_ack), never store a handle in a mutable \
       field, and never touch one after Packet.release" );
    ( "transport-unified",
      "one sender transport: outside lib/tcp, do not bind flows on Phi_net.Node directly \
       or call legacy Remy_sender entry points; build a Phi_tcp.Cc controller (Remy_cc \
       for Remy) and drive it through Phi_tcp.Sender / Phi_tcp.Source" );
    ( "hot-alloc",
      "allocation on a steady-state hot path: this site is reachable from the engine \
       loop / link pipeline / per-packet transport handlers through the call graph; \
       hoist the allocation to setup, use a pooled or flat representation, or suppress \
       with a justification" );
    ( "handle-lifetime",
      "pooled packet handle misused across control flow: used after Packet.release, \
       double-released, or acquired without a release or ownership transfer on every \
       path" );
    ( "domain-race",
      "module-level mutable state reachable from a Phi_runner.Pool job: worker domains \
       would share it unsynchronized; allocate it per job or suppress with a documented \
       exception" );
    ( "interpreted-lookup",
      "interpreted decision-plane lookup on a hot path: Rule_table.lookup walks the \
       whisker list and Policy.choice_for probes a hashtable on every call; compile \
       once at setup and take the flat form here (Compiled_table.lookup / \
       Policy.Compiled.choice_for)" )
  ]

let path_has_dir path dir =
  let needle = "/" ^ dir ^ "/" in
  let n = String.length path and m = String.length needle in
  let rec scan i = i + m <= n && (String.sub path i m = needle || scan (i + 1)) in
  String.starts_with ~prefix:(dir ^ "/") path || scan 0

(* Directories whose code runs inside Phi_runner.Pool worker domains:
   top-level mutable state there is shared mutable state. *)
let in_domain_pool path = path_has_dir path "lib/experiments" || path_has_dir path "lib/runner"

(* The per-packet hot path: every simulated packet crosses lib/net and
   lib/sim, so container choices there are perf-critical.  [hot-hashtbl]
   stops here: lib/tcp keeps the sender's [retx] table, whose fold order
   the benchmark's fingerprints pin, until it moves onto the scoreboard
   ring. *)
let in_hot_path path = path_has_dir path "lib/net" || path_has_dir path "lib/sim"

(* The hot path plus the transport, whose per-ACK handlers run once per
   packet too: there [hot-queue] applies. *)
let in_transport_path path = in_hot_path path || path_has_dir path "lib/tcp"

(* Where [poly-compare] also covers [min]/[max], each polymorphic use
   being a [caml_lessequal] call: the transport path, and lib/core,
   whose context server runs per message. *)
let in_minmax_scope path = in_transport_path path || path_has_dir path "lib/core"

let in_lib path = path_has_dir path "lib"

(* [hot-float-field] covers the state the per-ACK handlers store into:
   the transport and the controllers.  Implementations only, because
   an interface that exposes a record repeats the declaration its
   implementation already carries. *)
let in_float_field_scope path =
  (path_has_dir path "lib/tcp" || path_has_dir path "lib/remy")
  && Filename.check_suffix path ".ml"

(* [packet-escape] polices the pooled-packet ownership contract in the
   layers that handle live packets (lib/net, lib/tcp).  The pool module
   itself is exempt — it is the one place allowed to mint handles. *)
let in_packet_scope path =
  (path_has_dir path "lib/net" || path_has_dir path "lib/tcp")
  && not (String.ends_with ~suffix:"/packet.ml" path)
  && not (String.ends_with ~suffix:"/packet.mli" path)

(* [transport-unified] polices the single-sender-transport invariant:
   only lib/tcp (the transport itself) and lib/net (the substrate it
   binds to) may touch flow binding; everything above goes through
   Phi_tcp.Sender / Phi_tcp.Source with a Cc controller. *)
let in_transport_scope path =
  in_lib path && not (path_has_dir path "lib/tcp") && not (path_has_dir path "lib/net")

(* [interpreted-lookup] keeps the decision plane compiled where it is
   hot: the per-ack sender paths (lib/tcp, the Remy controller),
   per-connection setup (Cc_select's wiring), and the swarm's
   million-lookup client half.  The compilers themselves (Compiled_table,
   Policy.Compiled) must call the interpreted forms to lower them, and
   live outside this scope. *)
let in_decision_scope path =
  path_has_dir path "lib/tcp"
  || (path_has_dir path "lib/remy"
     && (String.ends_with ~suffix:"/remy_cc.ml" path
        || String.ends_with ~suffix:"/remy_cc.mli" path))
  || (path_has_dir path "lib/experiments"
     && (String.ends_with ~suffix:"/swarm.ml" path
        || String.ends_with ~suffix:"/cc_select.ml" path))

open Ppxlib

(* {2 Parsing}

   Every source is parsed once; the tree and the comment-hosted allow
   directives feed every rule. *)

exception Syntax_error of { file : string; line : int; message : string }

type ast = Impl of structure | Intf of signature

type source = {
  path : string;
  text : string;
  ast : ast;
  allows : (int * string) list;  (* (line, rule) from "phi-lint: allow" comments *)
  facts : Ast_scan.modinfo option;  (* library implementations only *)
}

(* Extract [allow] directives from one comment body. *)
let parse_allows ~line text acc =
  let n = String.length text in
  let directive = "phi-lint:" in
  let dn = String.length directive in
  let is_word c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-' in
  let rec skip_soft i =
    if i < n && (text.[i] = ' ' || text.[i] = '\t' || text.[i] = ',') then skip_soft (i + 1)
    else i
  in
  let read_word i =
    let j = ref i in
    while !j < n && is_word text.[!j] do incr j done;
    (String.sub text i (!j - i), !j)
  in
  let rec find i acc =
    if i + dn > n then acc
    else if String.sub text i dn = directive then begin
      let i = skip_soft (i + dn) in
      let word, i = read_word i in
      if word = "allow" then
        let rec take i acc =
          let i = skip_soft i in
          let word, j = read_word i in
          if word = "" then (acc, i) else take j ((line, word) :: acc)
        in
        let acc, i = take i acc in
        find i acc
      else find i acc
    end
    else find (i + 1) acc
  in
  find 0 acc

let parse (path, text) =
  let lexbuf = Lexing.from_string text in
  Lexing.set_filename lexbuf path;
  let ast =
    try
      if Filename.check_suffix path ".mli" then Intf (Parse.interface lexbuf)
      else Impl (Parse.implementation lexbuf)
    with exn ->
      let line, message =
        match Location.Error.of_exn exn with
        | Some err ->
          ((Location.Error.get_location err).loc_start.pos_lnum, Location.Error.message err)
        | None -> (lexbuf.lex_curr_p.pos_lnum, Printexc.to_string exn)
      in
      raise (Syntax_error { file = path; line; message })
  in
  let allows =
    List.fold_left
      (fun acc (comment, (loc : Location.t)) ->
        parse_allows ~line:loc.loc_start.pos_lnum comment acc)
      [] (Lexer.comments ())
  in
  let facts =
    match ast with Impl str when in_lib path -> Some (Ast_scan.scan ~path str) | _ -> None
  in
  { path; text; ast; allows; facts }

(* {2 Rules} *)

let message_of rule =
  match List.assoc_opt rule rules with Some m -> m | None -> rule

let violation file line rule = { file; line; rule; message = message_of rule }

let float_constants =
  [
    "nan"; "infinity"; "neg_infinity"; "epsilon_float"; "max_float"; "min_float";
    "Float.nan"; "Float.infinity"; "Float.neg_infinity"; "Float.epsilon"; "Float.pi";
    "Float.max_float"; "Float.min_float"
  ]

(* An operand that makes [=] / [<>] a float-equality test. *)
let float_constant e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt; _ } -> List.mem (Ast_scan.path_of_lid txt) float_constants
  | _ -> false

(* The [Packet.handle] a mutable field's type retains.  A handle
   reachable only under an arrow belongs to a handle-consuming callback
   ([Packet.handle -> unit]), which stores a function, not a handle. *)
let rec retained_handle t =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt; loc }, args) ->
    if Ast_scan.path_of_lid txt = "Packet.handle" then Some loc
    else List.find_map retained_handle args
  | Ptyp_tuple ts -> List.find_map retained_handle ts
  | Ptyp_alias (t, _) | Ptyp_poly (_, t) -> retained_handle t
  | _ -> None

let is_float_type t =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, []) ->
    List.mem (Ast_scan.strip_stdlib (Ast_scan.path_of_lid txt)) [ "float"; "Float.t" ]
  | _ -> false

(* The mutable float fields of a record declaration that OCaml cannot
   store flat, because some other field is not a float. *)
let boxed_float_fields lds =
  let is_float ld = is_float_type ld.pld_type in
  if List.for_all is_float lds then []
  else
    List.filter_map
      (fun ld ->
        match ld.pld_mutable with
        | Mutable when is_float ld -> Some ld.pld_name.txt
        | Mutable | Immutable -> None)
      lds

(* The pattern rules: one traversal over identifiers, type
   constructors, module paths and record declarations, on
   implementations and interfaces alike.  Each finding sits at the line
   of the offending identifier or operator. *)
let pattern_violations src =
  let path = src.path in
  let lib = in_lib path in
  let packet_scope = in_packet_scope path in
  let transport_scope = in_transport_scope path in
  let decision_scope = in_decision_scope path in
  let transport_path = in_transport_path path in
  let minmax_scope = in_minmax_scope path in
  let float_field_scope = in_float_field_scope path in
  let out = ref [] in
  let add ?message (loc : Location.t) rule =
    let v = violation path loc.loc_start.pos_lnum rule in
    let v = match message with Some m -> { v with message = m ^ ": " ^ v.message } | None -> v in
    out := (loc.loc_start.pos_cnum, v) :: !out
  in
  let value { txt; loc } =
    match Ast_scan.strip_stdlib (Ast_scan.path_of_lid txt) with
    | "Obj.magic" -> add loc "obj-magic"
    | "compare" -> add loc "poly-compare"
    | "min" | "max" -> if minmax_scope then add loc "poly-compare"
    | "List.nth" -> add loc "list-nth"
    | "Hashtbl.find" -> add loc "hashtbl-find"
    | "failwith" -> if lib then add loc "failwith"
    | "exit" -> if lib then add loc "exit"
    (* The legacy heap-allocating packet constructors: everything must
       go through the pool's acquire_data/acquire_ack. *)
    | "Packet.data" | "Packet.ack" -> if packet_scope then add loc "packet-escape"
    | "Node.bind_flow" | "Phi_net.Node.bind_flow" ->
      if transport_scope then add loc "transport-unified"
    (* Prefix-matched on purpose: [Rule_table.lookup_index] is the same
       list walk.  [Policy.Compiled.choice_for] stays legal. *)
    | "Policy.choice_for" | "Phi.Policy.choice_for" ->
      if decision_scope then add loc "interpreted-lookup"
    | p ->
      if
        decision_scope
        && (String.starts_with ~prefix:"Rule_table.lookup" p
           || String.starts_with ~prefix:"Phi_remy.Rule_table.lookup" p)
      then add loc "interpreted-lookup"
  in
  (* Any path through a module: values, types, constructors, module
     expressions. *)
  let module_path { txt; loc } =
    match Ast_scan.flatten_lid txt with
    | "Queue" :: _ | "Stdlib" :: "Queue" :: _ -> if transport_path then add loc "hot-queue"
    | "Hashtbl" :: _ | "Stdlib" :: "Hashtbl" :: _ -> if in_hot_path path then add loc "hot-hashtbl"
    | "Remy_sender" :: _ | "Phi_remy" :: "Remy_sender" :: _ ->
      if transport_scope then add loc "transport-unified"
    | _ -> ()
  in
  (* Touching a handle after releasing it on the same line: the cheap
     slice of use-after-free (the [handle-lifetime] pass and the
     sanitizer's generation stamps own the cross-line cases).  The
     handle is the release's last bare-identifier argument. *)
  let releases = ref [] and uses = ref [] in
  let iter =
    object
      inherit Ast_traverse.iter as super

      method! longident_loc lid = module_path lid

      method! expression e =
        (match e.pexp_desc with
        | Pexp_ident ({ txt; loc } as lid) -> (
          value lid;
          match txt with Lident x when packet_scope -> uses := (loc, x) :: !uses | _ -> ())
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident ("=" | "<>"); loc }; _ }, args) ->
          if List.exists (fun (_, a) -> float_constant a) args then add loc "float-equal"
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args)
          when packet_scope && Ast_scan.path_of_lid txt = "Packet.release" ->
          let handle =
            List.fold_left
              (fun acc (_, a) ->
                match a.pexp_desc with Pexp_ident { txt = Lident h; loc } -> Some (loc, h) | _ -> acc)
              None args
          in
          Option.iter (fun (hloc, h) -> releases := (loc, hloc, h) :: !releases) handle
        | _ -> ());
        super#expression e

      (* One finding per record type, at its declaration, naming the
         fields whose stores box. *)
      method! type_declaration td =
        (match td.ptype_kind with
        | Ptype_record lds when float_field_scope -> (
          match boxed_float_fields lds with
          | [] -> ()
          | fields ->
            add td.ptype_loc "hot-float-field"
              ~message:
                (Printf.sprintf "record %s stores %s boxed" td.ptype_name.txt
                   (String.concat ", " fields)))
        | _ -> ());
        super#type_declaration td

      (* A [mutable] field of type [Packet.handle] retains a handle
         across events: it dangles the moment the packet is released. *)
      method! label_declaration ld =
        (match ld.pld_mutable with
        | Mutable when packet_scope ->
          Option.iter (fun loc -> add loc "packet-escape") (retained_handle ld.pld_type)
        | Mutable | Immutable -> ());
        super#label_declaration ld
    end
  in
  (match src.ast with Impl str -> iter#structure str | Intf sg -> iter#signature sg);
  List.iter
    (fun ((loc : Location.t), (hloc : Location.t), h) ->
      let reused ((u : Location.t), x) =
        x = h
        && u.loc_start.pos_lnum = loc.loc_start.pos_lnum
        && u.loc_start.pos_cnum >= hloc.loc_end.pos_cnum
      in
      if List.exists reused !uses then add loc "packet-escape")
    !releases;
  List.map snd (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) !out)

let suppressed allows v =
  List.exists (fun (line, rule) -> rule = v.rule && (line = v.line || line = v.line - 1)) allows

let suppressed_anywhere allows rule = List.exists (fun (_, r) -> r = rule) allows

(* [domain-global]: a module-level binding in a pool-driven library
   whose right-hand side constructs mutable state anywhere outside a
   nested [fun] — nested in a record, indented over several lines,
   inside a submodule (see {!Ast_scan}). *)
let domain_global_violations src =
  match src.facts with
  | Some m when in_domain_pool src.path ->
    List.map
      (fun (g : Ast_scan.global) ->
        {
          file = src.path;
          line = g.g_line;
          rule = "domain-global";
          message = Printf.sprintf "%s (binds %s): %s" g.g_id g.g_what (message_of "domain-global");
        })
      m.m_globals
  | _ -> []

(* [handle-lifetime]: the per-function dataflow pass over pooled packet
   handles (see {!Handle_flow}), in the same scope as [packet-escape]. *)
let handle_lifetime_violations src =
  match src.ast with
  | Impl str when in_packet_scope src.path ->
    List.map
      (fun (f : Handle_flow.finding) ->
        { file = src.path; line = f.line; rule = "handle-lifetime"; message = f.message })
      (Handle_flow.check ~path:src.path str)
  | _ -> []

let starts_with_doc_comment src =
  let n = String.length src in
  let i = ref 0 in
  while !i < n && (src.[!i] = ' ' || src.[!i] = '\t' || src.[!i] = '\n' || src.[!i] = '\r') do
    incr i
  done;
  !i + 2 < n && src.[!i] = '(' && src.[!i + 1] = '*' && src.[!i + 2] = '*'

let file_violations src =
  let vs = pattern_violations src @ domain_global_violations src @ handle_lifetime_violations src in
  let vs =
    if
      String.ends_with ~suffix:".mli" src.path
      && in_lib src.path
      && not (starts_with_doc_comment src.text)
    then violation src.path 1 "mli-doc" :: vs
    else vs
  in
  List.filter
    (fun v ->
      if v.rule = "mli-doc" then not (suppressed_anywhere src.allows v.rule)
      else not (suppressed src.allows v))
    vs

let lint_source ~path text = file_violations (parse (path, text))

(* {2 Cross-module passes}

   [hot-alloc] and [domain-race] need the whole library at once: the
   per-file facts feed one call graph, the dataflow passes run on top,
   and each finding is filtered against its own file's allow
   directives (same line or the line above, like every other rule). *)
let cross_module_violations sources =
  match List.filter_map (fun src -> src.facts) sources with
  | [] -> []
  | mods ->
    let graph = Callgraph.build mods in
    let vs =
      List.map
        (fun (f : Effects.finding) ->
          { file = f.file; line = f.line; rule = "hot-alloc"; message = f.message })
        (Effects.violations graph)
      @ List.map
          (fun (f : Race.finding) ->
            { file = f.file; line = f.line; rule = "domain-race"; message = f.message })
          (Race.violations graph)
    in
    let allows_of file =
      match List.find_opt (fun src -> src.path = file) sources with
      | Some src -> src.allows
      | None -> []
    in
    List.filter (fun v -> not (suppressed (allows_of v.file) v)) vs

let lint_tree files =
  let sources = List.map parse files in
  let have path = List.exists (fun src -> src.path = path) sources in
  let missing =
    List.filter_map
      (fun src ->
        if
          String.ends_with ~suffix:".ml" src.path
          && in_lib src.path
          && not (have (src.path ^ "i"))
          && not (suppressed_anywhere src.allows "missing-mli")
        then Some (violation src.path 1 "missing-mli")
        else None)
      sources
  in
  let all = List.concat_map file_violations sources @ missing @ cross_module_violations sources in
  List.sort
    (fun a b ->
      match String.compare a.file b.file with
      | 0 -> Int.compare a.line b.line
      | c -> c)
    all

let to_string v = Printf.sprintf "%s:%d: %s: %s" v.file v.line v.rule v.message

(* {2 Machine-readable report} *)

let json_report vs =
  let module J = Phi_util.Json in
  let bump tbl key =
    Hashtbl.replace tbl key (1 + match Hashtbl.find_opt tbl key with Some c -> c | None -> 0)
  in
  let by_rule = Hashtbl.create 16 and by_file = Hashtbl.create 16 in
  List.iter
    (fun v ->
      bump by_rule v.rule;
      bump by_file v.file)
    vs;
  let counts tbl =
    Hashtbl.fold (fun k c acc -> (k, J.Int c) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  J.Obj
    [
      ( "violations",
        J.List
          (List.map
             (fun v ->
               J.Obj
                 [
                   ("file", J.String v.file);
                   ("line", J.Int v.line);
                   ("rule", J.String v.rule);
                   ("message", J.String v.message);
                 ])
             vs) );
      ("total", J.Int (List.length vs));
      ("by_rule", J.Obj (counts by_rule));
      ("by_file", J.Obj (counts by_file));
    ]
