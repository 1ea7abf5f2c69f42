(* Polymorphic min/max: a caml_lessequal C call on every use. *)
let last_child base len = Stdlib.min (base + 7) (len - 1)
let grown cap = max 64 (2 * cap)
