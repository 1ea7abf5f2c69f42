(* Nested, indented mutable global shared by every seeded job. *)
module Counters = struct
  let runs = ref 0
end

let bump () = incr Counters.runs
