(* Fans (group, seed) jobs across worker domains. *)
let launch groups = Pool.fan_out ~seeds:[ 1; 2 ] Work.step groups
