module Stats = Phi_util.Stats

type estimate = { value : float; level : [ `P24 | `P16 | `P8 | `Global ]; samples : int }

(* History required at a level before it is trusted. *)
let min_samples = 8

let levels = [ `P24; `P16; `P8; `Global ]

let estimate history ~prefix24 ~quantile ~field =
  let pick level =
    let samples = History.samples history ~level ~prefix24 in
    let n = List.length samples in
    let enough = n >= min_samples || (level = `Global && n > 0) in
    if not enough then None
    else
      let values = Array.of_list (List.map field samples) in
      Some { value = Stats.percentile values ~p:(quantile *. 100.); level; samples = n }
  in
  List.find_map pick levels

let throughput_bps history ~prefix24 ?(quantile = 0.5) () =
  estimate history ~prefix24 ~quantile ~field:(fun (s : History.sample) -> s.throughput_bps)

let rtt_s history ~prefix24 ?(quantile = 0.5) () =
  estimate history ~prefix24 ~quantile ~field:(fun (s : History.sample) -> s.rtt_s)

let loss_rate history ~prefix24 ?(quantile = 0.5) () =
  estimate history ~prefix24 ~quantile ~field:(fun (s : History.sample) -> s.loss_rate)

let download_time_s history ~prefix24 ~bytes =
  if bytes < 0 then invalid_arg "Predictor.download_time_s: negative size";
  match
    ( throughput_bps history ~prefix24 ~quantile:0.5 (),
      throughput_bps history ~prefix24 ~quantile:0.1 () )
  with
  | Some median, Some p10 when median.value > 0. && p10.value > 0. ->
    let bits = float_of_int (bytes * 8) in
    Some (bits /. median.value, bits /. p10.value)
  | _ -> None

let voip_mos history ~prefix24 =
  match (rtt_s history ~prefix24 (), loss_rate history ~prefix24 ()) with
  | Some rtt, Some loss -> Some (Voip.mos ~rtt_s:rtt.value ~loss_rate:loss.value)
  | _ -> None
