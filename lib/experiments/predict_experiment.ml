module History = Phi_predict.History
module Predictor = Phi_predict.Predictor
module Voip = Phi_predict.Voip
module Prng = Phi_util.Prng
module Dist = Phi_util.Dist
module Stats = Phi_util.Stats

type result = {
  prefixes : int;
  training_samples : int;
  test_samples : int;
  hierarchical_mape : float;
  global_mape : float;
  cold_prefixes_served : int;
  example_mos : (string * float) list;
}

(* Latent ground truth for one /24: a throughput level, an RTT and a loss
   rate, correlated within the /16. *)
type truth = { prefix24 : int; thr : float; rtt : float; loss : float }

(* 8 /16 regions x 32 /24s, ~20 training samples per /24. *)
let n_p16 = 8
let p24_per_p16 = 32
let samples_per_p24 = 20

let build_truths rng =
  List.concat
    (List.init n_p16 (fun r ->
         (* Region-level latent performance. *)
         let region_thr = Dist.lognormal rng ~mu:(log 8e6) ~sigma:0.8 in
         let region_rtt = Dist.uniform rng ~lo:0.02 ~hi:0.25 in
         let region_loss = Dist.uniform rng ~lo:0. ~hi:0.03 in
         List.init p24_per_p16 (fun s ->
             {
               prefix24 = (r lsl 8) lor s;
               thr = region_thr *. Dist.lognormal rng ~mu:0. ~sigma:0.3;
               rtt = Float.max 0.005 (region_rtt *. Dist.lognormal rng ~mu:0. ~sigma:0.15);
               loss = Float.max 0. (region_loss *. Dist.lognormal rng ~mu:0. ~sigma:0.3);
             })))

let observe rng (t : truth) =
  {
    History.throughput_bps = t.thr *. Dist.lognormal rng ~mu:0. ~sigma:0.25;
    rtt_s = t.rtt *. Dist.lognormal rng ~mu:0. ~sigma:0.1;
    loss_rate = Float.min 1. (t.loss *. Dist.lognormal rng ~mu:0. ~sigma:0.3);
  }

let run ~seed () =
  let rng = Prng.create ~seed in
  let truths = build_truths rng in
  let history = History.create () in
  let training = ref 0 in
  let global_samples = ref [] in
  List.iter
    (fun t ->
      (* Skewed coverage: popular prefixes have plenty of history, a third
         are nearly cold (that is where the hierarchy earns its keep). *)
      let n =
        if Prng.int rng ~bound:3 = 0 then Prng.int rng ~bound:3
        else samples_per_p24 + Prng.int rng ~bound:samples_per_p24
      in
      for _ = 1 to n do
        let sample = observe rng t in
        History.add history ~prefix24:t.prefix24 sample;
        global_samples := sample.History.throughput_bps :: !global_samples;
        incr training
      done)
    truths;
  let global_median =
    match !global_samples with
    | [] -> 0.
    | l -> Stats.median (Array.of_list l)
  in
  let hierarchical_errors = ref [] in
  let global_errors = ref [] in
  let cold = ref 0 in
  let tests = ref 0 in
  List.iter
    (fun t ->
      for _ = 1 to 3 do
        let actual = (observe rng t).History.throughput_bps in
        incr tests;
        (match Predictor.throughput_bps history ~prefix24:t.prefix24 () with
        | Some est ->
          if est.Predictor.level <> `P24 then incr cold;
          hierarchical_errors :=
            (Float.abs (est.Predictor.value -. actual) /. actual) :: !hierarchical_errors
        | None -> ());
        if global_median > 0. then
          global_errors := (Float.abs (global_median -. actual) /. actual) :: !global_errors
      done)
    truths;
  let mape l = match l with [] -> nan | _ -> Stats.median (Array.of_list l) in
  let example_mos =
    [
      ("nearby fibre (30ms, 0% loss)", Voip.mos ~rtt_s:0.03 ~loss_rate:0.);
      ("intercontinental (250ms, 1% loss)", Voip.mos ~rtt_s:0.25 ~loss_rate:0.01);
      ("congested (400ms, 5% loss)", Voip.mos ~rtt_s:0.4 ~loss_rate:0.05);
    ]
  in
  {
    prefixes = List.length truths;
    training_samples = !training;
    test_samples = !tests;
    hierarchical_mape = mape !hierarchical_errors;
    global_mape = mape !global_errors;
    cold_prefixes_served = !cold;
    example_mos;
  }
