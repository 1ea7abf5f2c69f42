(* A mutable float beside an int field: every store boxes a fresh float. *)
type estimator = { mutable srtt : float; mutable samples : int }
