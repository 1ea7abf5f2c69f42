let require_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty sample")

let mean xs =
  require_nonempty "Stats.mean" xs;
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let variance xs =
  require_nonempty "Stats.variance" xs;
  let n = Array.length xs in
  if n = 1 then 0.
  else
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs in
    ss /. float_of_int (n - 1)

let stddev xs = sqrt (variance xs)

let minimum xs =
  require_nonempty "Stats.minimum" xs;
  Array.fold_left Float.min xs.(0) xs

let maximum xs =
  require_nonempty "Stats.maximum" xs;
  Array.fold_left Float.max xs.(0) xs

let percentile xs ~p =
  require_nonempty "Stats.percentile" xs;
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (Float.of_int (int_of_float rank)) in
  let hi = Stdlib.min (lo + 1) (n - 1) in
  let frac = rank -. float_of_int lo in
  sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let median xs = percentile xs ~p:50.

let cdf_at xs ~x =
  require_nonempty "Stats.cdf_at" xs;
  let below = Array.fold_left (fun acc v -> if v <= x then acc + 1 else acc) 0 xs in
  float_of_int below /. float_of_int (Array.length xs)

let fraction_at_least xs ~threshold =
  require_nonempty "Stats.fraction_at_least" xs;
  let above = Array.fold_left (fun acc v -> if v >= threshold then acc + 1 else acc) 0 xs in
  float_of_int above /. float_of_int (Array.length xs)

(* Jain's fairness index: (Σx)² / (n·Σx²).  Degenerate samples — empty,
   or all-zero (Σx² ≤ 0) — are defined as perfectly fair (1.), matching
   the convention the swarm experiment has used since PR 7: a shard map
   that received no traffic is not unfair, it is idle. *)
let jain xs =
  let n = Array.length xs in
  if n = 0 then 1.
  else begin
    let s = ref 0. and s2 = ref 0. in
    for i = 0 to n - 1 do
      let x = Array.unsafe_get xs i in
      s := !s +. x;
      s2 := !s2 +. (x *. x)
    done;
    if !s2 <= 0. then 1. else !s *. !s /. (float_of_int n *. !s2)
  end

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  p25 : float;
  median : float;
  p75 : float;
  p90 : float;
  p99 : float;
  max : float;
}

let summarize xs =
  require_nonempty "Stats.summarize" xs;
  {
    count = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = minimum xs;
    p25 = percentile xs ~p:25.;
    median = median xs;
    p75 = percentile xs ~p:75.;
    p90 = percentile xs ~p:90.;
    p99 = percentile xs ~p:99.;
    max = maximum xs;
  }

type ewma = { alpha : float; mutable value : float; mutable seen : bool }

let ewma ~alpha =
  if alpha <= 0. || alpha > 1. then invalid_arg "Stats.ewma: alpha must be in (0, 1]";
  { alpha; value = 0.; seen = false }

let ewma_update e x =
  if e.seen then e.value <- e.value +. (e.alpha *. (x -. e.value))
  else begin
    e.value <- x;
    e.seen <- true
  end

let ewma_value e = if e.seen then Some e.value else None

let ewma_value_or e ~default = if e.seen then e.value else default

(* A batch of [n] observations coalesced into one step with their mean:
   equivalent to [n] sequential updates of that same value, so the
   retained weight of the old estimate is (1 - alpha)^n. *)
let ewma_next e x ~n =
  if n <= 0 then invalid_arg "Stats.ewma_next: n must be positive";
  if not e.seen then x
  else begin
    let keep = (1. -. e.alpha) ** float_of_int n in
    x +. ((e.value -. x) *. keep)
  end

let ewma_update_n e x ~n =
  let v = ewma_next e x ~n in
  e.value <- v;
  e.seen <- true
