(* Typed min/max compile to an inline comparison; labels and record
   fields named min/max are not calls. *)
let last_child base len = Int.min (base + 7) (len - 1)
let grown cap = Int.max 64 (2 * cap)
type range = { min : int; max : int }
let range ~min:lo ~max:hi = { min = lo; max = hi }
let width r = r.max - r.min
