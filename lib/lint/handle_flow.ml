(* handle-lifetime: intraprocedural dataflow over pooled Packet handles.

   Packet handles are generation-stamped ints with single-owner
   semantics: [acquire_*] hands the caller a cell, exactly one owner
   must eventually [release] it, and no read may follow the release.
   [packet-escape] sees only a same-line reuse; this pass runs a small
   abstract interpretation over each function's Parsetree, so the
   release and the offending use (or the leaking early return) can be
   any distance apart and on different control-flow paths.

   The abstraction: each tracked variable maps to a cell; a cell's
   state is Live, Rel (released) or Maybe (released on some path but
   not all — the join of Live and Rel).  [let y = x] aliases y to x's
   cell.  Releasing an untracked variable (e.g. a function parameter)
   creates a tracked Rel cell, so later uses still flag.  Passing a
   tracked handle to anything other than a [Packet.*] accessor
   transfers ownership (the callee or the data structure now owns it) —
   reads through [Packet.*] do not.  Conditionals interpret both arms
   and join pointwise; match cases likewise; loop bodies are
   interpreted once and joined with the entry state (one unrolling is
   enough to see a release inside the loop).

   Violations:
   - use of a Rel cell        -> use-after-release
   - use of a Maybe cell      -> use-after-release (on some path)
   - release of a Rel/Maybe   -> double release
   - acquired, never transferred, Live/Maybe at exit -> leak-on-path

   Purely syntactic, like the rest of phi-lint: handles that escape
   into closures or data structures count as transferred and drop out
   of tracking; the armed sanitizer (PHI_SANITIZE=1) is the dynamic
   backstop there. *)

open Ppxlib

type state = Live | Maybe | Rel

type cell = { id : int; c_line : int; c_acquired : bool; mutable c_transferred : bool }

type finding = { line : int; message : string }

module SMap = Map.Make (String)
module IMap = Map.Make (Int)

let line_of e = e.pexp_loc.Location.loc_start.pos_lnum

let path_of e =
  match e.pexp_desc with Pexp_ident { txt; _ } -> Some (Ast_scan.path_of_lid txt) | _ -> None

(* The three shapes of Packet call the lattice distinguishes. *)
type pkt_call = Acquire | Release | Read | Not_packet

let classify path =
  if
    String.ends_with ~suffix:"Packet.acquire_data" path
    || String.ends_with ~suffix:"Packet.acquire_ack" path
  then Acquire
  else if String.ends_with ~suffix:"Packet.release" path then Release
  else if
    (* Any other Packet.* entry point: accessors and [add_sack] read or
       write fields through the pool without taking ownership. *)
    (not (String.ends_with ~suffix:"Packet.create_pool" path))
    && String.starts_with ~prefix:"Packet." path
  then Read
  else Not_packet

let join a b =
  match (a, b) with
  | Live, Live -> Live
  | Rel, Rel -> Rel
  | _ -> Maybe

let state_to_string = function
  | Rel -> "released"
  | Maybe -> "released on some path"
  | Live -> "live"

type ctx = {
  mutable next_id : int;
  mutable cells : cell list;
  late : (string, cell) Hashtbl.t;
      (* variables first seen at their release site (parameters, outer
         bindings): tracked from that point on *)
  mutable findings : finding list;
  fname : string;
}

let report ctx line fmt = Printf.ksprintf (fun m -> ctx.findings <- { line; message = m } :: ctx.findings) fmt

let fresh ctx ~line ~acquired =
  let c = { id = ctx.next_id; c_line = line; c_acquired = acquired; c_transferred = false } in
  ctx.next_id <- ctx.next_id + 1;
  ctx.cells <- c :: ctx.cells;
  c

let lookup ctx env name =
  match SMap.find_opt name env with
  | Some c -> Some c
  | None -> Hashtbl.find_opt ctx.late name

let state_of st (c : cell) = match IMap.find_opt c.id st with Some s -> s | None -> Live

(* Pointwise join of two branch-exit states.  A cell touched on one
   path only keeps that path's state: joining against the other path's
   implicit entry value is what the caller's sequencing already did. *)
let merge a b =
  IMap.union (fun _ sa sb -> Some (join sa sb)) a b

let use ctx env st line name =
  match lookup ctx env name with
  | None -> ()
  | Some c -> (
    match state_of st c with
    | Live -> ()
    | (Rel | Maybe) as s ->
      report ctx line "handle %s used after release (%s; released at cell from line %d) in %s" name
        (state_to_string s) c.c_line ctx.fname)

let transfer ctx env name =
  match lookup ctx env name with None -> () | Some c -> c.c_transferred <- true

(* The last bare-identifier argument is the handle: [release pool h]
   and single-argument [release h] both resolve, and labels are
   irrelevant. *)
let handle_arg args =
  List.fold_left
    (fun acc (_, a) -> match path_of a with Some p when not (String.contains p '.') -> Some (line_of a, p) | _ -> acc)
    None args

let rec interp ctx env st e =
  let line = line_of e in
  match e.pexp_desc with
  | Pexp_ident { txt = Lident x; _ } ->
    (* A bare tracked identifier outside a [Packet.*] argument position:
       it is being read, returned or stored — a use, and ownership
       leaves this function's hands. *)
    use ctx env st line x;
    transfer ctx env x;
    st
  | Pexp_ident _ | Pexp_constant _ | Pexp_unreachable -> st
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
    match classify (Ast_scan.path_of_lid txt) with
    | Release -> (
      let st = List.fold_left (fun st (_, a) -> match a.pexp_desc with Pexp_ident _ -> st | _ -> interp ctx env st a) st args in
      match handle_arg args with
      | None -> st
      | Some (hline, h) -> (
        match lookup ctx env h with
        | Some c -> (
          match state_of st c with
          | Live -> IMap.add c.id Rel st
          | (Rel | Maybe) as s ->
            report ctx hline "handle %s double-released (already %s; first release traced from line %d) in %s" h
              (state_to_string s) c.c_line ctx.fname;
            IMap.add c.id Rel st)
        | None ->
          (* First sighting at its own release: start tracking so any
             later use of this name flags. *)
          let c = fresh ctx ~line:hline ~acquired:false in
          Hashtbl.replace ctx.late h c;
          IMap.add c.id Rel st))
    | Read ->
      (* Accessor: handles passed here are read through the pool, not
         consumed — but reading a released handle is the bug. *)
      List.fold_left
        (fun st (_, a) ->
          match a.pexp_desc with
          | Pexp_ident { txt = Lident x; _ } ->
            use ctx env st (line_of a) x;
            st
          | _ -> interp ctx env st a)
        st args
    | Acquire | Not_packet ->
      (* Any non-Packet callee takes ownership of handle arguments. *)
      List.fold_left
        (fun st (_, a) ->
          match a.pexp_desc with
          | Pexp_ident { txt = Lident x; _ } ->
            use ctx env st (line_of a) x;
            transfer ctx env x;
            st
          | _ -> interp ctx env st a)
        st args)
  | Pexp_apply (head, args) ->
    let st = interp ctx env st head in
    List.fold_left (fun st (_, a) -> interp ctx env st a) st args
  | Pexp_let (_, vbs, body) ->
    let st, env =
      List.fold_left
        (fun (st, env') vb ->
          let name = Ast_scan.pat_name vb.pvb_pat in
          match (name, vb.pvb_expr.pexp_desc) with
          | Some n, Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
            when classify (Ast_scan.path_of_lid txt) = Acquire ->
            let st = List.fold_left (fun st (_, a) -> interp ctx env st a) st args in
            let c = fresh ctx ~line:(line_of vb.pvb_expr) ~acquired:true in
            (IMap.add c.id Live st, SMap.add n c env')
          | Some n, Pexp_ident { txt = Lident y; _ } -> (
            (* [let n = y]: alias — both names share the cell. *)
            match lookup ctx env y with
            | Some c -> (st, SMap.add n c env')
            | None -> (st, SMap.remove n env'))
          | Some n, _ ->
            let st = interp ctx env st vb.pvb_expr in
            (st, SMap.remove n env')
          | None, _ -> (interp ctx env st vb.pvb_expr, env'))
        (st, env) vbs
    in
    interp ctx env st body
  | Pexp_sequence (a, b) ->
    let st = interp ctx env st a in
    interp ctx env st b
  | Pexp_ifthenelse (cond, then_, else_) ->
    let st = interp ctx env st cond in
    let st_t = interp ctx env st then_ in
    let st_e = match else_ with Some e' -> interp ctx env st e' | None -> st in
    merge st_t st_e
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
    let st = interp ctx env st scrut in
    let exits =
      List.map
        (fun c ->
          let st = match c.pc_guard with Some g -> interp ctx env st g | None -> st in
          interp ctx env st c.pc_rhs)
        cases
    in
    (match exits with [] -> st | first :: rest -> List.fold_left merge first rest)
  | Pexp_while (cond, body) ->
    let st = interp ctx env st cond in
    merge st (interp ctx env st body)
  | Pexp_for (_, lo, hi, _, body) ->
    let st = interp ctx env st lo in
    let st = interp ctx env st hi in
    merge st (interp ctx env st body)
  | Pexp_function (params, _, body) -> (
    (* A nested closure: interpret for uses (a closure reading a
       released handle is still a bug at arm time), but any tracked
       handle it mentions escapes — transferred. *)
    let st = List.fold_left (interp ctx env) st (Ast_scan.param_defaults params) in
    match body with
    | Pfunction_body b -> interp ctx env st b
    | Pfunction_cases (cases, _, _) ->
      List.fold_left
        (fun st c ->
          let st = match c.pc_guard with Some g -> interp ctx env st g | None -> st in
          interp ctx env st c.pc_rhs)
        st cases)
  | Pexp_tuple es | Pexp_array es -> List.fold_left (fun st e' -> interp ctx env st e') st es
  | Pexp_record (fields, base) ->
    let st = List.fold_left (fun st (_, v) -> interp ctx env st v) st fields in
    (match base with Some b -> interp ctx env st b | None -> st)
  | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) -> interp ctx env st a
  | Pexp_construct (_, None) | Pexp_variant (_, None) -> st
  | Pexp_field (e', _) -> interp ctx env st e'
  | Pexp_setfield (r, _, v) ->
    let st = interp ctx env st r in
    interp ctx env st v
  | Pexp_constraint (e', _) | Pexp_coerce (e', _, _) | Pexp_open (_, e') | Pexp_newtype (_, e')
  | Pexp_assert e' | Pexp_lazy e' ->
    interp ctx env st e'
  | Pexp_letmodule (_, _, e') -> interp ctx env st e'
  | _ ->
    (* Remaining forms (objects, extensions): walk children for uses,
       keeping the state unchanged. *)
    Ast_scan.iter_children (fun e' -> ignore (interp ctx env st e')) e;
    st

let check_function ~fname body =
  let ctx = { next_id = 0; cells = []; late = Hashtbl.create 4; findings = []; fname } in
  let exit_st = interp ctx SMap.empty IMap.empty body in
  List.iter
    (fun (c : cell) ->
      if c.c_acquired && not c.c_transferred then
        match state_of exit_st c with
        | Rel -> ()
        | Live ->
          report ctx c.c_line "handle acquired at line %d leaks: never released or transferred in %s"
            c.c_line ctx.fname
        | Maybe ->
          report ctx c.c_line
            "handle acquired at line %d leaks on some path: released on one branch but not the other in %s"
            c.c_line ctx.fname)
    ctx.cells;
  List.rev ctx.findings

let check ~path str =
  let out = ref [] in
  Ast_scan.iter_bindings ~mod_path:(Ast_scan.module_name path)
    (fun ~mod_path vb ->
      let fname = mod_path ^ "." ^ Option.value (Ast_scan.pat_name vb.pvb_pat) ~default:"_" in
      match Ast_scan.peel_params vb.pvb_expr with
      | Value _ -> ()
      | Body body -> out := check_function ~fname body @ !out
      | Cases cases -> List.iter (fun c -> out := check_function ~fname c.pc_rhs @ !out) cases)
    str;
  List.sort (fun (a : finding) b -> Int.compare a.line b.line) !out
