(** Shared metrics fixture. *)

val bump : unit -> unit
