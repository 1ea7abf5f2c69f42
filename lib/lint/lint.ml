type violation = { file : string; line : int; rule : string; message : string }

let rules =
  [
    ("obj-magic", "Obj.magic defeats the type system; use a typed representation");
    ( "poly-compare",
      "polymorphic compare is unsound on floats (NaN) and float-carrying records, and in \
       lib/sim, lib/net and lib/tcp a polymorphic min/max costs a C call per use; use \
       Float.compare / Int.compare / String.compare / Int.min / Float.max or a dedicated \
       comparator" );
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
      "Stdlib.Queue allocates one cons cell per element; hot-path simulation code \
       (lib/net, lib/sim) must use Phi_sim.Ring instead" );
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

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_ident_start c || is_digit c || c = '\''
let is_op_char c = String.contains "!$%&*+-/<=>@^|~:" c

(* Tokens that may precede [ident = <float>] when the [=] is a binding
   (let, record field, functor arg, optional-argument default) rather
   than a comparison. *)
let binding_context =
  [ "let"; "and"; "rec"; "{"; ";"; ","; "with"; "mutable"; "method"; "val"; "module" ]

let float_constants =
  [
    "nan"; "infinity"; "neg_infinity"; "epsilon_float"; "max_float"; "min_float";
    "Float.nan"; "Float.infinity"; "Float.neg_infinity"; "Float.epsilon"; "Float.pi";
    "Float.max_float"; "Float.min_float"
  ]

let is_float_literal s =
  String.length s > 0
  && is_digit s.[0]
  && (not
        (String.length s > 1
        && s.[0] = '0'
        && (s.[1] = 'x' || s.[1] = 'X' || s.[1] = 'o' || s.[1] = 'O' || s.[1] = 'b'
          || s.[1] = 'B')))
  && (String.contains s '.' || String.contains s 'e' || String.contains s 'E')

let is_floatish s = is_float_literal s || List.mem s float_constants

let path_has_dir path dir =
  let needle = "/" ^ dir ^ "/" in
  let n = String.length path and m = String.length needle in
  let rec scan i = i + m <= n && (String.sub path i m = needle || scan (i + 1)) in
  let prefix = dir ^ "/" in
  (String.length path >= String.length prefix
  && String.sub path 0 (String.length prefix) = prefix)
  || scan 0

(* Directories whose code runs inside Phi_runner.Pool worker domains:
   top-level mutable state there is shared mutable state. *)
let in_domain_pool path = path_has_dir path "lib/experiments" || path_has_dir path "lib/runner"

(* The per-packet hot path: every simulated packet crosses lib/net and
   lib/sim, so container choices there are perf-critical. *)
let in_hot_path path = path_has_dir path "lib/net" || path_has_dir path "lib/sim"

(* Where [poly-compare] also covers [min]/[max]: the simulation core and
   the transport, whose per-event paths would pay a [caml_lessequal]
   call for each polymorphic use. *)
let in_minmax_scope path = in_hot_path path || path_has_dir path "lib/tcp"

let in_lib path =
  let path = if String.length path > 2 && String.sub path 0 2 = "./" then
      String.sub path 2 (String.length path - 2)
    else path
  in
  let starts = String.length path >= 4 && String.sub path 0 4 = "lib/" in
  let contains =
    let n = String.length path in
    let rec scan i = i + 5 <= n && (String.sub path i 5 = "/lib/" || scan (i + 1)) in
    scan 0
  in
  starts || contains

(* {2 Scanner} *)

type scan = {
  tokens : (int * string) array;  (* (line, text), comments and strings stripped *)
  allows : (int * string) list;  (* (line, rule) from "phi-lint: allow" comments *)
}

(* Extract [allow] directives from one comment body. *)
let parse_allows ~line text acc =
  let n = String.length text in
  let directive = "phi-lint:" in
  let dn = String.length directive in
  let is_word c = (c >= 'a' && c <= 'z') || is_digit c || c = '-' in
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

let scan_source src =
  let n = String.length src in
  let tokens = ref [] and allows = ref [] in
  let line = ref 1 and i = ref 0 in
  let emit text = tokens := (!line, text) :: !tokens in
  let bump c = if c = '\n' then incr line in
  let peek k = if !i + k < n then src.[!i + k] else '\000' in
  (* Skip a string literal; [!i] is on the opening quote. *)
  let skip_string () =
    incr i;
    let fin = ref false in
    while (not !fin) && !i < n do
      (match src.[!i] with
      | '\\' -> if !i + 1 < n then (bump src.[!i + 1]; incr i)
      | '"' -> fin := true
      | c -> bump c);
      incr i
    done
  in
  (* Skip a quotation {id|...|id}; [!i] is on '{'. Returns false when it
     is not actually a quotation opener. *)
  let skip_quotation () =
    let j = ref (!i + 1) in
    while !j < n && (src.[!j] >= 'a' && src.[!j] <= 'z' || src.[!j] = '_') do incr j done;
    if !j < n && src.[!j] = '|' then begin
      let id = String.sub src (!i + 1) (!j - !i - 1) in
      let closing = "|" ^ id ^ "}" in
      let cn = String.length closing in
      i := !j + 1;
      let fin = ref false in
      while (not !fin) && !i < n do
        if !i + cn <= n && String.sub src !i cn = closing then begin
          i := !i + cn;
          fin := true
        end
        else begin
          bump src.[!i];
          incr i
        end
      done;
      true
    end
    else false
  in
  (* Skip a (possibly nested) comment; [!i] is on the '('. Collects any
     phi-lint directives found inside. *)
  let skip_comment () =
    let start_line = !line in
    let buf = Buffer.create 64 in
    let depth = ref 0 in
    let fin = ref false in
    while (not !fin) && !i < n do
      if src.[!i] = '(' && peek 1 = '*' then begin
        incr depth;
        i := !i + 2
      end
      else if src.[!i] = '*' && peek 1 = ')' then begin
        decr depth;
        i := !i + 2;
        if !depth = 0 then fin := true
      end
      else if src.[!i] = '"' then begin
        (* String literals inside comments follow string lexing rules. *)
        let s0 = !i in
        skip_string ();
        Buffer.add_string buf (String.sub src s0 (Stdlib.min (!i - s0) (n - s0)))
      end
      else begin
        bump src.[!i];
        Buffer.add_char buf src.[!i];
        incr i
      end
    done;
    allows := parse_allows ~line:start_line (Buffer.contents buf) !allows
  in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '(' && peek 1 = '*' then skip_comment ()
    else if c = '"' then skip_string ()
    else if c = '{' && not (skip_quotation ()) then begin
      emit "{";
      incr i
    end
    else if c = '\'' then begin
      (* Char literal vs. type variable / polymorphic variant tick. *)
      if peek 1 = '\\' then begin
        i := !i + 2;
        while !i < n && src.[!i] <> '\'' do incr i done;
        incr i
      end
      else if peek 2 = '\'' && peek 1 <> '\'' then i := !i + 3
      else incr i
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do incr i done;
      (* Merge dotted access paths (Stdlib.compare, t.field) into one
         token so qualified names can be matched exactly. *)
      while !i + 1 < n && src.[!i] = '.' && is_ident_start src.[!i + 1] do
        incr i;
        while !i < n && is_ident_char src.[!i] do incr i done
      done;
      emit (String.sub src start (!i - start))
    end
    else if is_digit c then begin
      let start = !i in
      while
        !i < n
        && (is_ident_char src.[!i]
           || src.[!i] = '.'
           || ((src.[!i] = '+' || src.[!i] = '-')
              && !i > start
              && (src.[!i - 1] = 'e' || src.[!i - 1] = 'E')))
      do
        incr i
      done;
      emit (String.sub src start (!i - start))
    end
    else if is_op_char c then begin
      let start = !i in
      while !i < n && is_op_char src.[!i] do incr i done;
      emit (String.sub src start (!i - start))
    end
    else begin
      (match c with
      | '(' | ')' | '}' | '[' | ']' | ';' | ',' | '?' | '`' | '#' | '.' ->
        emit (String.make 1 c)
      | _ -> ());
      incr i
    end
  done;
  { tokens = Array.of_list (List.rev !tokens); allows = !allows }

(* {2 Rules} *)

let message_of rule =
  match List.assoc_opt rule rules with Some m -> m | None -> rule

let violation file line rule = { file; line; rule; message = message_of rule }

let starts_with ~prefix s =
  let pn = String.length prefix in
  String.length s >= pn && String.sub s 0 pn = prefix

let ends_with ~suffix s =
  let sn = String.length suffix and n = String.length s in
  n >= sn && String.sub s (n - sn) sn = suffix

(* [packet-escape] polices the pooled-packet ownership contract in the
   layers that handle live packets (lib/net, lib/tcp).  The pool module
   itself is exempt — it is the one place allowed to mint handles. *)
let in_packet_scope path =
  (path_has_dir path "lib/net" || path_has_dir path "lib/tcp")
  && not (ends_with ~suffix:"/packet.ml" path)
  && not (ends_with ~suffix:"/packet.mli" path)

(* [transport-unified] polices the single-sender-transport invariant:
   only lib/tcp (the transport itself) and lib/net (the substrate it
   binds to) may touch flow binding; everything above goes through
   Phi_tcp.Sender / Phi_tcp.Source with a Cc controller. *)
let in_transport_scope path =
  in_lib path && not (path_has_dir path "lib/tcp") && not (path_has_dir path "lib/net")

(* [interpreted-lookup] keeps the decision plane compiled where it is
   hot: the per-ack sender paths (lib/tcp, the Remy controller),
   per-connection setup (Phi_client), and the swarm's million-lookup
   client half.  The compilers themselves (Compiled_table,
   Policy.Compiled) must call the interpreted forms to lower them, and
   live outside this scope. *)
let in_decision_scope path =
  path_has_dir path "lib/tcp"
  || (path_has_dir path "lib/remy"
     && (ends_with ~suffix:"/remy_cc.ml" path || ends_with ~suffix:"/remy_cc.mli" path))
  || (path_has_dir path "lib/experiments" && ends_with ~suffix:"/swarm.ml" path)
  || (path_has_dir path "lib/core" && ends_with ~suffix:"/phi_client.ml" path)

let token_violations ~path { tokens; _ } =
  let lib = in_lib path in
  let hot = in_hot_path path in
  let packet_scope = in_packet_scope path in
  let transport_scope = in_transport_scope path in
  let decision_scope = in_decision_scope path in
  let minmax_scope = in_minmax_scope path in
  let out = ref [] in
  let add line rule = out := violation path line rule :: !out in
  let text k = if k >= 0 && k < Array.length tokens then snd tokens.(k) else "" in
  (* A bare [min]/[max] that names a label, a definition or a record
     field rather than calling the polymorphic function. *)
  let names_something_else k =
    let prev = text (k - 1) and next = text (k + 1) in
    List.mem prev [ "~"; "?"; "let"; "and"; "rec"; "val"; "external"; "mutable" ]
    || ((next = "=" || next = ":") && List.mem prev binding_context)
  in
  Array.iteri
    (fun k (line, tok) ->
      (match tok with
      | "Obj.magic" -> add line "obj-magic"
      | "compare" | "Stdlib.compare" -> add line "poly-compare"
      | "Stdlib.min" | "Stdlib.max" -> if minmax_scope then add line "poly-compare"
      | "min" | "max" ->
        if minmax_scope && not (names_something_else k) then add line "poly-compare"
      | "List.nth" -> add line "list-nth"
      | "Hashtbl.find" -> add line "hashtbl-find"
      | "failwith" | "Stdlib.failwith" -> if lib then add line "failwith"
      | "exit" | "Stdlib.exit" -> if lib then add line "exit"
      (* The legacy heap-allocating packet constructors: everything must
         go through the pool's acquire_data/acquire_ack. *)
      | "Packet.data" | "Packet.ack" -> if packet_scope then add line "packet-escape"
      (* A [mutable f : Packet.handle] record field retains a handle
         across events — it dangles the moment the packet is released.
         A handle-consuming callback field ([...: Packet.handle -> unit])
         stores a function, not a handle, and is fine. *)
      | "Packet.handle" ->
        if
          packet_scope
          && text (k - 1) = ":"
          && text (k - 3) = "mutable"
          && text (k + 1) <> "->"
        then add line "packet-escape"
      (* Touching a handle after releasing it on the same line: the
         cheap lexical slice of use-after-free (the [handle-lifetime]
         AST pass and the sanitizer's generation stamps own the
         cross-line cases).  Argument-shape-aware: [release pool h]
         takes the second argument, the partially applied or
         locally-opened [release h] takes the first. *)
      | "Packet.release" ->
        if packet_scope then begin
          let is_ident s = s <> "" && is_ident_start s.[0] in
          let a1 = text (k + 1) and a2 = text (k + 2) in
          let h, after =
            if is_ident a1 && is_ident a2 then (a2, k + 3)
            else if is_ident a1 then (a1, k + 2)
            else ("", k)
          in
          if h <> "" then begin
            let rec reused j =
              j < Array.length tokens
              && fst tokens.(j) = line
              && (snd tokens.(j) = h || reused (j + 1))
            in
            if reused after then add line "packet-escape"
          end
        end
      | "Node.bind_flow" | "Phi_net.Node.bind_flow" ->
        if transport_scope then add line "transport-unified"
      | _ -> ());
      if
        transport_scope
        && (tok = "Remy_sender"
           || starts_with ~prefix:"Remy_sender." tok
           || tok = "Phi_remy.Remy_sender"
           || starts_with ~prefix:"Phi_remy.Remy_sender." tok)
      then add line "transport-unified";
      (* Prefix-matched on purpose: [Rule_table.lookup_index] is the
         same list walk.  [Policy.Compiled.choice_for] is a different
         dotted token and stays legal. *)
      if
        decision_scope
        && (starts_with ~prefix:"Rule_table.lookup" tok
           || starts_with ~prefix:"Phi_remy.Rule_table.lookup" tok
           || tok = "Policy.choice_for" || tok = "Phi.Policy.choice_for")
      then add line "interpreted-lookup";
      if
        hot
        && (tok = "Queue" || starts_with ~prefix:"Queue." tok || tok = "Stdlib.Queue"
          || starts_with ~prefix:"Stdlib.Queue." tok)
      then add line "hot-queue";
      if tok = "=" || tok = "<>" then begin
        let next = text (k + 1) and prev = text (k - 1) in
        if is_floatish next || is_floatish prev then begin
          (* [ident = <float>] directly after let/field/default syntax is
             a binding, not a comparison. *)
          let before = text (k - 2) in
          let binding =
            List.mem before binding_context || (before = "(" && text (k - 3) = "?")
          in
          if not binding then add line "float-equal"
        end
      end)
    tokens;
  List.rev !out

let suppressed allows v =
  List.exists (fun (line, rule) -> rule = v.rule && (line = v.line || line = v.line - 1)) allows

let suppressed_anywhere allows rule = List.exists (fun (_, r) -> r = rule) allows

(* [domain-global]: a module-level [let] in a pool-driven library that
   binds a value built from a mutable-state constructor.

   Primary detection is the AST engine ({!Ast_scan}): any zero-parameter
   module-level binding whose right-hand side constructs mutable state
   anywhere outside a nested [fun] — nested in a record, indented over
   several lines, inside a submodule.  The lexical scan below remains as
   the fallback for sources that do not parse, with its historical
   limits: column-0 [let], constructor on the same line. *)
let mutable_constructors =
  [
    "ref"; "Hashtbl.create"; "Queue.create"; "Stack.create"; "Buffer.create";
    "Atomic.make"; "Array.make"; "Bytes.create"; "Bytes.make"
  ]

let lexical_domain_global_violations ~path src { tokens; _ } =
  begin
    let by_line = Hashtbl.create 64 in
    Array.iter
      (fun (line, tok) ->
        let prev = match Hashtbl.find_opt by_line line with Some l -> l | None -> [] in
        Hashtbl.replace by_line line (tok :: prev))
      tokens;
    let line_tokens line =
      match Hashtbl.find_opt by_line line with Some l -> List.rev l | None -> []
    in
    let out = ref [] in
    List.iteri
      (fun i0 raw ->
        let line = i0 + 1 in
        if String.length raw >= 4 && String.sub raw 0 4 = "let " then
          match line_tokens line with
          | "let" :: rest ->
            let rest = match rest with "rec" :: r -> r | r -> r in
            (match rest with
            | _name :: next :: _ when next = "=" || next = ":" || next = "," ->
              if List.exists (fun t -> List.mem t mutable_constructors) rest then
                out := violation path line "domain-global" :: !out
            | _ -> ())
          | _ -> ())
      (String.split_on_char '\n' src);
    List.rev !out
  end

let domain_global_violations ~path src scan =
  if not (in_domain_pool path && ends_with ~suffix:".ml" path) then []
  else
    match Ast_scan.scan ~path src with
    | Error _ -> lexical_domain_global_violations ~path src scan
    | Ok m ->
      List.map
        (fun (g : Ast_scan.global) ->
          {
            file = path;
            line = g.g_line;
            rule = "domain-global";
            message = Printf.sprintf "%s (binds %s): %s" g.g_id g.g_what (message_of "domain-global");
          })
        m.m_globals

(* [handle-lifetime]: the per-function dataflow pass over pooled packet
   handles (see {!Handle_flow}), in the same scope as [packet-escape]. *)
let handle_lifetime_violations ~path src =
  if not (in_packet_scope path && ends_with ~suffix:".ml" path) then []
  else
    List.map
      (fun (f : Handle_flow.finding) ->
        { file = path; line = f.line; rule = "handle-lifetime"; message = f.message })
      (Handle_flow.check ~path src)

let starts_with_doc_comment src =
  let n = String.length src in
  let i = ref 0 in
  while !i < n && (src.[!i] = ' ' || src.[!i] = '\t' || src.[!i] = '\n' || src.[!i] = '\r') do
    incr i
  done;
  !i + 2 < n && src.[!i] = '(' && src.[!i + 1] = '*' && src.[!i + 2] = '*'

let lint_source ~path src =
  let scan = scan_source src in
  let vs =
    token_violations ~path scan
    @ domain_global_violations ~path src scan
    @ handle_lifetime_violations ~path src
  in
  let vs =
    if ends_with ~suffix:".mli" path && in_lib path && not (starts_with_doc_comment src)
    then violation path 1 "mli-doc" :: vs
    else vs
  in
  List.filter
    (fun v ->
      if v.rule = "mli-doc" then not (suppressed_anywhere scan.allows v.rule)
      else not (suppressed scan.allows v))
    vs

(* {2 Cross-module passes}

   [hot-alloc] and [domain-race] need the whole library at once: the
   per-file facts feed one call graph, the dataflow passes run on top,
   and each finding is filtered against its own file's allow
   directives (same line or the line above, like every other rule). *)
let cross_module_violations files =
  let mods =
    List.filter_map
      (fun (path, src) ->
        if in_lib path && ends_with ~suffix:".ml" path then
          match Ast_scan.scan ~path src with Ok m -> Some m | Error _ -> None
        else None)
      files
  in
  match mods with
  | [] -> []
  | _ ->
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
    let allows_by_file = Hashtbl.create 16 in
    let allows_of path =
      match Hashtbl.find_opt allows_by_file path with
      | Some a -> a
      | None ->
        let a =
          match List.assoc_opt path files with
          | Some src -> (scan_source src).allows
          | None -> []
        in
        Hashtbl.replace allows_by_file path a;
        a
    in
    List.filter (fun v -> not (suppressed (allows_of v.file) v)) vs

let lint_tree files =
  let paths = List.map fst files in
  let have path = List.mem path paths in
  let missing =
    List.filter_map
      (fun (path, src) ->
        if
          ends_with ~suffix:".ml" path
          && in_lib path
          && not (have (path ^ "i"))
          && not (suppressed_anywhere (scan_source src).allows "missing-mli")
        then Some (violation path 1 "missing-mli")
        else None)
      files
  in
  let all =
    List.concat_map (fun (path, src) -> lint_source ~path src) files
    @ missing
    @ cross_module_violations files
  in
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
