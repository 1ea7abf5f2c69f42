module Engine = Phi_sim.Engine
module Link = Phi_net.Link
module Prng = Phi_util.Prng

type t =
  | Steady
  | Link_flap of { period_s : float; down_s : float }
  | Rtt_jitter of { period_s : float; magnitude : float }
  | Incast of { period_s : float; fan_in : int; burst_segments : int }
  | Flash_crowd of { at_frac : float; multiplier : int }

let steady = Steady
let default_flap = Link_flap { period_s = 4.0; down_s = 0.25 }
let default_jitter = Rtt_jitter { period_s = 0.5; magnitude = 0.3 }
let default_incast = Incast { period_s = 3.0; fan_in = 8; burst_segments = 64 }
let default_flash_crowd = Flash_crowd { at_frac = 0.5; multiplier = 3 }

let name = function
  | Steady -> "steady"
  | Link_flap _ -> "flap"
  | Rtt_jitter _ -> "jitter"
  | Incast _ -> "incast"
  | Flash_crowd _ -> "flash_crowd"

let names = [ "steady"; "flap"; "jitter"; "incast"; "flash_crowd" ]

let by_name = function
  | "steady" -> steady
  | "flap" -> default_flap
  | "jitter" -> default_jitter
  | "incast" -> default_incast
  | "flash_crowd" -> default_flash_crowd
  | other -> invalid_arg (Printf.sprintf "Dynamics.by_name: unknown regime %S" other)

(* Every field of every regime, checked in one place; each range test
   is written so that NaN fails it. *)
let check t =
  let bad field range x =
    invalid_arg (Printf.sprintf "Dynamics.check: %s %s must be in %s, got %s" (name t) field range x)
  in
  let real field range ok x = if not ok then bad field range (Printf.sprintf "%g" x) in
  let count field n = if n < 1 then bad field ">= 1" (string_of_int n) in
  let period p = real "period_s" "(0, inf)" (0. < p && p < Float.infinity) p in
  match t with
  | Steady -> ()
  | Link_flap { period_s; down_s } ->
    period period_s;
    real "down_s" "(0, period_s)" (0. < down_s && down_s < period_s) down_s
  | Rtt_jitter { period_s; magnitude } ->
    period period_s;
    real "magnitude" "[0, 1)" (0. <= magnitude && magnitude < 1.) magnitude
  | Incast { period_s; fan_in; burst_segments } ->
    period period_s;
    count "fan_in" fan_in;
    count "burst_segments" burst_segments
  | Flash_crowd { at_frac; multiplier } ->
    real "at_frac" "[0, 1)" (0. <= at_frac && at_frac < 1.) at_frac;
    count "multiplier" multiplier

let at engine ~time f =
  if not (Float.is_finite time) || time < 0. then
    invalid_arg "Dynamics.at: time must be finite and non-negative";
  ignore (Engine.schedule_at engine ~time f)

let every engine ~start_s ~period_s ~until_s f =
  if not (Float.is_finite period_s) || period_s <= 0. then
    invalid_arg "Dynamics.every: period must be finite and positive";
  if not (Float.is_finite start_s) || start_s < 0. then
    invalid_arg "Dynamics.every: start must be finite and non-negative";
  (* Each tick schedules its successor, so the heap only ever holds one
     pending tick per script. *)
  let rec tick k time =
    if time <= until_s then
      ignore
        (Engine.schedule_at engine ~time (fun () ->
             f k;
             tick (k + 1) (time +. period_s)))
  in
  tick 0 start_s

let install ~engine ~rng ~bottlenecks ~duration_s t =
  check t;
  match t with
  | Steady | Incast _ | Flash_crowd _ ->
      (* Workload-level regimes: the scenario runner owns the transport,
         so it interprets these itself (through {!at}/{!every}). *)
      ignore rng
  | Link_flap { period_s; down_s } ->
      if Array.length bottlenecks > 0 then
        every engine ~start_s:period_s ~period_s ~until_s:duration_s (fun k ->
            (* Rotate over the contended links so every island sees an
               outage; the link comes back up [down_s] later. *)
            let link = bottlenecks.(k mod Array.length bottlenecks) in
            Link.set_down link;
            at engine ~time:(Engine.now engine +. down_s) (fun () -> Link.set_up link))
  | Rtt_jitter { period_s; magnitude } ->
      let base = Array.map Link.delay_s bottlenecks in
      every engine ~start_s:period_s ~period_s ~until_s:duration_s (fun _ ->
          Array.iteri
            (fun i link ->
              (* Uniform multiplicative jitter around each link's
                 construction-time delay; the seeded rng makes the
                 draw sequence a pure function of the scenario seed. *)
              let u = (2. *. Prng.float rng) -. 1. in
              Link.set_delay_s link (base.(i) *. (1. +. (magnitude *. u))))
            bottlenecks)
