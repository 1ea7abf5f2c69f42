(* Dense ids index an array: one load per forwarded packet. *)
let routes = Array.make 16 (-1)
