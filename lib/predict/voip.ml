(* Transmission rating 0–93.2: base quality minus delay impairment
   (one-way delay taken as RTT/2 plus a fixed 30 ms of processing and
   jitter buffering) minus the G.711 loss impairment [30 ln (1 + 15 e)]. *)
let r_factor ~rtt_s ~loss_rate =
  let rtt_s = Float.max 0. rtt_s in
  let loss_rate = Float.max 0. (Float.min 1. loss_rate) in
  let one_way_ms = (rtt_s /. 2. *. 1000.) +. 30. in
  let delay_impairment =
    (0.024 *. one_way_ms)
    +. if one_way_ms > 177.3 then 0.11 *. (one_way_ms -. 177.3) else 0.
  in
  let loss_impairment = 30. *. log (1. +. (15. *. loss_rate)) in
  93.2 -. delay_impairment -. loss_impairment

let mos ~rtt_s ~loss_rate =
  let r = r_factor ~rtt_s ~loss_rate in
  let raw =
    if r <= 0. then 1.
    else if r >= 100. then 4.5
    else 1. +. (0.035 *. r) +. (7e-6 *. r *. (r -. 60.) *. (100. -. r))
  in
  Float.max 1. (Float.min 4.5 raw)

let quality_label mos =
  if mos >= 4.0 then "excellent"
  else if mos >= 3.6 then "good"
  else if mos >= 3.1 then "fair"
  else if mos >= 2.6 then "poor"
  else "bad"
