module Table = Phi_util.Table
module Json = Phi_util.Json

type 'r t = {
  header : string option;
  key : string option;
  align : Table.align;
  text : 'r -> string;
  value : 'r -> Json.t;
}

let column header ~key align text value =
  { header = Some header; key = Some key; align; text; value }

let string header ~key get = column header ~key Table.Left get (fun r -> Json.String (get r))

let int header ~key get =
  column header ~key Table.Right (fun r -> string_of_int (get r)) (fun r -> Json.Int (get r))

let bool header ~key get =
  column header ~key Table.Right (fun r -> string_of_bool (get r)) (fun r -> Json.Bool (get r))

let float header ~key fmt get =
  column header ~key Table.Right (fun r -> fmt (get r)) (fun r -> Json.float (get r))

let cell header text =
  { header = Some header; key = None; align = Table.Right; text; value = (fun _ -> Json.Null) }

let field key value =
  { header = None; key = Some key; align = Table.Right; text = (fun _ -> ""); value }

let on f =
  List.map (fun c -> { c with text = (fun a -> c.text (f a)); value = (fun a -> c.value (f a)) })

let mbps bps = Table.fmt_float (bps /. 1e6)
let ms s = Table.fmt_float (1000. *. s) ~decimals:1
let pct x = Table.fmt_float (100. *. x) ^ "%"

(* (header, column) for every shown column, (key, column) for every
   exported one. *)
let shown columns = List.filter_map (fun c -> Option.map (fun h -> (h, c)) c.header) columns
let exported columns = List.filter_map (fun c -> Option.map (fun k -> (k, c)) c.key) columns

let print columns rows =
  let columns = shown columns in
  Table.print
    ~align:(List.map (fun (_, c) -> c.align) columns)
    ~headers:(List.map fst columns)
    (List.map (fun r -> List.map (fun (_, c) -> c.text r) columns) rows)

let print_record (label_header, value_header) columns r =
  Table.print ~align:[ Table.Left ] ~headers:[ label_header; value_header ]
    (List.map (fun (h, c) -> [ h; c.text r ]) (shown columns))

let keys columns = List.map fst (exported columns)
let fields columns r = List.map (fun (k, c) -> (k, c.value r)) (exported columns)

let csv_row columns r =
  List.map
    (fun (_, v) ->
      match v with
      | Json.String s -> s
      | Json.Int n -> string_of_int n
      | Json.Float x -> Phi_util.Csv.float_cell x
      | Json.Bool b -> string_of_bool b
      | Json.Null | Json.List _ | Json.Obj _ -> "")
    (fields columns r)

let select names entries =
  List.map
    (fun name ->
      match List.assoc_opt name entries with
      | Some v -> (name, v)
      | None -> invalid_arg (Printf.sprintf "Columns.select: no entry %S" name))
    names
