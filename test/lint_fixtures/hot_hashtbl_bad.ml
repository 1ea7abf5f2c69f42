(* A polymorphic hash and compare on every forwarded packet. *)
let routes = Hashtbl.create 16
