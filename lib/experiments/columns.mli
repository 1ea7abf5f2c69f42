(** One column list per row type: the single description from which an
    experiment's text table, CSV file and report entries are derived.

    A column names one value of a row once: its table header, how the
    table shows it, and the key it is exported under, which is both the
    CSV column header and the JSON report key, so no output format can
    drift from another.  A {!cell} column is only shown (a speedup, a
    published reference number); a {!field} column is only exported (a
    raw count, a fingerprint). *)

type 'r t = {
  header : string option;  (** table header; [None] for an export-only column *)
  key : string option;  (** CSV column and report key; [None] for a table-only column *)
  align : Phi_util.Table.align;  (** text left, numbers right *)
  text : 'r -> string;
  value : 'r -> Phi_util.Json.t;
}

val string : string -> key:string -> ('r -> string) -> 'r t
(** [string header ~key get]. *)

val int : string -> key:string -> ('r -> int) -> 'r t
val bool : string -> key:string -> ('r -> bool) -> 'r t

val float : string -> key:string -> (float -> string) -> ('r -> float) -> 'r t
(** [float header ~key fmt get] shows [fmt (get r)] and exports the float. *)

val cell : string -> ('r -> string) -> 'r t
val field : string -> ('r -> Phi_util.Json.t) -> 'r t

val on : ('a -> 'r) -> 'r t list -> 'a t list
(** The same columns over a row that contains an ['r]. *)

val mbps : float -> string
(** Bits per second as Mb/s; {!ms} seconds as milliseconds; {!pct} a
    fraction as a percentage. *)

val ms : float -> string
val pct : float -> string

val print : 'r t list -> 'r list -> unit
(** The text table: a line per row, a column per shown column. *)

val print_record : string * string -> 'r t list -> 'r -> unit
(** One row transposed: a line per shown column, its header under the
    first title and its cell under the second. *)

val keys : 'r t list -> string list
(** The exported keys in order: a CSV header. *)

val csv_row : 'r t list -> 'r -> string list
(** Floats at full precision ([%.17g]), a non-finite float empty. *)

val fields : 'r t list -> 'r -> (string * Phi_util.Json.t) list

val select : string list -> (string * Phi_util.Json.t) list -> (string * Phi_util.Json.t) list
(** The named entries in the order named: a headline's subset of a
    row's {!fields}.  Raises [Invalid_argument] on a missing key. *)
