(* Every timing in the benchmark: CLOCK_MONOTONIC nanoseconds through
   bechamel's allocation-free clock_gettime stub. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let to_s ns = float_of_int ns *. 1e-9
