type action = { window_increment : float; window_multiple : float; intersend_s : float }

let clamp lo hi x = Float.max lo (Float.min hi x)

(* [Float.max]/[Float.min] pass NaN through, and an infinity would
   clamp to a bound, so a non-finite field is an error rather than an
   action. *)
let clamp_field name lo hi x =
  if not (Float.is_finite x) then
    invalid_arg (Printf.sprintf "Whisker.clamp_action: %s is not finite (%g)" name x);
  clamp lo hi x

let clamp_action a =
  {
    window_increment = clamp_field "window_increment" (-10.) 32. a.window_increment;
    window_multiple = clamp_field "window_multiple" 0.1 2. a.window_multiple;
    intersend_s = clamp_field "intersend_s" 0.0002 0.5 a.intersend_s;
  }

let default_action = { window_increment = 1.; window_multiple = 1.; intersend_s = 0.001 }

let max_cwnd = 1024.

let apply a ~cwnd =
  clamp 1. max_cwnd ((a.window_multiple *. cwnd) +. a.window_increment)

type box = { lo : float array; hi : float array }

let root_box ~dims = { lo = Array.make dims 0.; hi = Array.make dims 1. }

let contains box point =
  let dims = Array.length box.lo in
  if Array.length point <> dims then invalid_arg "Whisker.contains: dimension mismatch";
  let ok = ref true in
  for i = 0 to dims - 1 do
    let x = point.(i) in
    (* The global upper face (hi = 1) is inclusive so that a point on the
       boundary of the root box always matches some whisker. *)
    let upper_ok = x < box.hi.(i) || (box.hi.(i) >= 1. && x <= box.hi.(i)) in
    if not (x >= box.lo.(i) && upper_ok) then ok := false
  done;
  !ok

let split_box box =
  let dims = Array.length box.lo in
  let mid = Array.init dims (fun i -> (box.lo.(i) +. box.hi.(i)) /. 2.) in
  (* Enumerate the 2^d children by the bitmask of "upper half" choices. *)
  let child mask =
    let lo = Array.copy box.lo and hi = Array.copy box.hi in
    for i = 0 to dims - 1 do
      if mask land (1 lsl i) <> 0 then lo.(i) <- mid.(i) else hi.(i) <- mid.(i)
    done;
    { lo; hi }
  in
  List.init (1 lsl dims) child

type t = { box : box; mutable action : action }

let create box action = { box; action = clamp_action action }

let pp ppf t =
  let dims = Array.length t.box.lo in
  let range i = Printf.sprintf "[%.3f,%.3f)" t.box.lo.(i) t.box.hi.(i) in
  let ranges = String.concat "x" (List.init dims range) in
  Format.fprintf ppf "%s -> inc=%.2f mult=%.3f isend=%.4fs" ranges t.action.window_increment
    t.action.window_multiple t.action.intersend_s

let to_line t =
  let floats a = String.concat "," (List.map (Printf.sprintf "%.17g") (Array.to_list a)) in
  Printf.sprintf "w|%s|%s|%.17g;%.17g;%.17g" (floats t.box.lo) (floats t.box.hi)
    t.action.window_increment t.action.window_multiple t.action.intersend_s

exception Parse_error of string

let of_line line =
  let fail reason = raise (Parse_error (Printf.sprintf "Whisker.of_line: %s: %s" reason line)) in
  let number x =
    match float_of_string_opt x with
    | Some v when Float.is_finite v -> v
    | Some _ -> fail "non-finite field"
    | None -> fail "malformed line"
  in
  let numbers sep s = Array.of_list (List.map number (String.split_on_char sep s)) in
  match String.split_on_char '|' line with
  | [ "w"; lo; hi; action ] -> (
    let lo = numbers ',' lo and hi = numbers ',' hi in
    if Array.length lo <> Array.length hi || Array.length lo = 0 then fail "malformed line";
    Array.iteri
      (fun i l -> if not (0. <= l && l < hi.(i) && hi.(i) <= 1.) then fail "empty or out-of-cube box")
      lo;
    match numbers ';' action with
    | [| inc; mult; isend |] ->
      create { lo; hi } { window_increment = inc; window_multiple = mult; intersend_s = isend }
    | _ -> fail "malformed line")
  | _ -> fail "malformed line"
