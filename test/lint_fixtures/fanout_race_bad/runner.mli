(** Seeded fan-out fixture. *)

val launch : int list -> (int * int array) list
