(** Seeded job fixture. *)

val step : int -> int -> int
