(* Each seeded job bumps a shared counter. *)
let step group seed =
  Metrics.bump ();
  group + seed
