(* Per-job accumulator: state lives and dies inside the job. *)
let step group seed =
  let runs = ref 0 in
  incr runs;
  Metrics.combine (group + seed) !runs
