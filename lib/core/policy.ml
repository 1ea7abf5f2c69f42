module Cubic = Phi_tcp.Cubic

type t = (Context.bucket, Cc_algo.t) Hashtbl.t

let create () = Hashtbl.create 32
let learn t bucket choice = Hashtbl.replace t bucket choice
let learned t = Hashtbl.fold (fun b c acc -> (b, c) :: acc) t []

(* The heuristic's severity-tier presets, hoisted to module init (the
   two congested tiers double up for the deep-queue beta variant): the
   fallback path hands out shared values instead of allocating fresh
   Cubic params per call. *)
let quiet_preset =
  Cc_algo.Cubic
    (Cubic.with_knobs ~initial_cwnd:32. ~initial_ssthresh:128. ~beta:0.2 Cubic.default_params)

let light_preset =
  Cc_algo.Cubic
    (Cubic.with_knobs ~initial_cwnd:16. ~initial_ssthresh:64. ~beta:0.2 Cubic.default_params)

let busy_preset =
  Cc_algo.Cubic
    (Cubic.with_knobs ~initial_cwnd:8. ~initial_ssthresh:32. ~beta:0.2 Cubic.default_params)

let busy_deep_preset =
  Cc_algo.Cubic
    (Cubic.with_knobs ~initial_cwnd:8. ~initial_ssthresh:32. ~beta:0.4 Cubic.default_params)

let heavy_preset =
  Cc_algo.Cubic
    (Cubic.with_knobs ~initial_cwnd:2. ~initial_ssthresh:8. ~beta:0.3 Cubic.default_params)

let heavy_deep_preset =
  Cc_algo.Cubic
    (Cubic.with_knobs ~initial_cwnd:2. ~initial_ssthresh:8. ~beta:0.5 Cubic.default_params)

let heuristic ctx =
  let severity = Context.severity ctx in
  let deep_queue = ctx.Context.queue_delay_s > 0.05 in
  if severity < 0.25 then quiet_preset
  else if severity < 0.5 then light_preset
  else if severity < 0.75 then if deep_queue then busy_deep_preset else busy_preset
  else if deep_queue then heavy_deep_preset
  else heavy_preset

let nearest t bucket =
  Hashtbl.fold
    (fun b c best ->
      let d = Context.bucket_distance bucket b in
      match best with
      | Some (best_d, _) when best_d <= d -> best
      | _ -> Some (d, c))
    t None

(* The learned part of the resolution: exact hit, else nearest learned
   bucket within distance 2.  [None] means "fall through to the
   heuristic", which needs the full context, not just the bucket. *)
let resolved t bucket =
  match Hashtbl.find_opt t bucket with
  | Some choice -> Some choice
  | None -> (
    match nearest t bucket with
    | Some (d, choice) when d <= 2 -> Some choice
    | Some _ | None -> None)

let choice_for t ctx =
  match resolved t (Context.bucketize ctx) with
  | Some choice -> choice
  | None -> heuristic ctx

module Compiled = struct
  (* Packed bucket code -> learned resolution; [None] falls through
     to the (preset-backed, allocation-free) heuristic at lookup. *)
  type t = Cc_algo.t option array

  let compile source =
    Array.init Context.bucket_codes (fun code -> resolved source (Context.bucket_of_code code))

  let choice_for t ctx =
    match Array.unsafe_get t (Context.bucket_code ctx) with
    | Some choice -> choice
    | None -> heuristic ctx
end
