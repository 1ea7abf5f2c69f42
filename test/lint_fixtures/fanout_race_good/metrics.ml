(* Pure combiner: results merge after the pool joins. *)
let combine a b = a + b
