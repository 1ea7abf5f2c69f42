(* All floats, so the record is stored flat; the count lives elsewhere. *)
type estimator = { mutable srtt : float; mutable rttvar : float }
