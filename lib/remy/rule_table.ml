type t = { dims : int; mutable whiskers : Whisker.t list }

let create ~dims action =
  if dims < 1 then invalid_arg "Rule_table.create: dims must be positive";
  { dims; whiskers = [ Whisker.create (Whisker.root_box ~dims) action ] }

let dims t = t.dims

let whiskers t = t.whiskers

let size t = List.length t.whiskers

let lookup t point =
  if Array.length point <> t.dims then invalid_arg "Rule_table.lookup: dimension mismatch";
  match List.find_opt (fun w -> Whisker.contains w.Whisker.box point) t.whiskers with
  | Some w -> w
  | None -> invalid_arg "Rule_table.lookup: point outside every whisker (broken partition)"

let lookup_index t point =
  if Array.length point <> t.dims then
    invalid_arg "Rule_table.lookup_index: dimension mismatch";
  let rec find i = function
    | [] -> invalid_arg "Rule_table.lookup_index: point outside every whisker (broken partition)"
    | w :: rest -> if Whisker.contains w.Whisker.box point then i else find (i + 1) rest
  in
  find 0 t.whiskers

let set_action t target action =
  if not (List.memq target t.whiskers) then invalid_arg "Rule_table.set_action: unknown whisker";
  target.Whisker.action <- Whisker.clamp_action action

let split t target =
  if not (List.memq target t.whiskers) then invalid_arg "Rule_table.split: unknown whisker";
  let children =
    List.map (fun box -> Whisker.create box target.Whisker.action)
      (Whisker.split_box target.Whisker.box)
  in
  t.whiskers <- List.concat_map (fun w -> if w == target then children else [ w ]) t.whiskers

let split_axis t target ~axis =
  if not (List.memq target t.whiskers) then invalid_arg "Rule_table.split_axis: unknown whisker";
  if axis < 0 || axis >= t.dims then invalid_arg "Rule_table.split_axis: bad axis";
  let box = target.Whisker.box in
  let mid = (box.Whisker.lo.(axis) +. box.Whisker.hi.(axis)) /. 2. in
  let child ~upper =
    let lo = Array.copy box.Whisker.lo and hi = Array.copy box.Whisker.hi in
    if upper then lo.(axis) <- mid else hi.(axis) <- mid;
    Whisker.create { Whisker.lo; hi } target.Whisker.action
  in
  let children = [ child ~upper:false; child ~upper:true ] in
  t.whiskers <- List.concat_map (fun w -> if w == target then children else [ w ]) t.whiskers

let extrude t =
  let lift (w : Whisker.t) =
    let box =
      {
        Whisker.lo = Array.append w.Whisker.box.Whisker.lo [| 0. |];
        hi = Array.append w.Whisker.box.Whisker.hi [| 1. |];
      }
    in
    Whisker.create box w.Whisker.action
  in
  { dims = t.dims + 1; whiskers = List.map lift t.whiskers }

let serialize t =
  let header = Printf.sprintf "remy-table|dims=%d" t.dims in
  String.concat "\n" (header :: List.map Whisker.to_line t.whiskers)

let parse_error msg = raise (Whisker.Parse_error msg)

let deserialize s =
  match String.split_on_char '\n' (String.trim s) with
  | [] -> parse_error "Rule_table.deserialize: empty input"
  | header :: lines -> (
    match String.split_on_char '|' header with
    | [ "remy-table"; dims_field ] -> (
      match String.split_on_char '=' dims_field with
      | [ "dims"; d ] ->
        let dims =
          try int_of_string d
          with Failure _ -> parse_error "Rule_table.deserialize: bad dims"
        in
        let whiskers =
          List.filter_map
            (fun line ->
              let line = String.trim line in
              if line = "" then None else Some (Whisker.of_line line))
            lines
        in
        if whiskers = [] then parse_error "Rule_table.deserialize: no whiskers";
        List.iter
          (fun w ->
            if Array.length w.Whisker.box.Whisker.lo <> dims then
              parse_error "Rule_table.deserialize: whisker dimension mismatch")
          whiskers;
        { dims; whiskers }
      | _ -> parse_error "Rule_table.deserialize: bad header")
    | _ -> parse_error "Rule_table.deserialize: bad header")
