(** domain-race: mutable module-level state reachable from pool jobs.

    Roots are every function referencing [Pool.map] / [Pool.try_map] /
    [Pool.fan_out];
    reachability includes cold edges (a race in an error path is still
    a race).  One finding per mutable global, reported at the global's
    definition line and naming the accessing function plus the call
    chain from the pool fan-out. *)

type finding = { file : string; line : int; message : string }

val violations : Callgraph.t -> finding list
