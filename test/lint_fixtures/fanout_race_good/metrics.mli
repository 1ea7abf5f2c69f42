(** Pure combiner fixture. *)

val combine : int -> int -> int
