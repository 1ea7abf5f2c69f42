type t = {
  utilization : float;
  queue_delay_s : float;
  competing_senders : int;
  loss_rate : float;
}

let empty = { utilization = 0.; queue_delay_s = 0.; competing_senders = 0; loss_rate = 0. }

let clamp01 x = Float.max 0. (Float.min 1. x)

let severity t =
  (* Utilization dominates; queueing and population confirm it.  Each term
     is normalized to [0, 1] before blending. *)
  let u = clamp01 t.utilization in
  let q = clamp01 (t.queue_delay_s /. 0.2) in
  let n = clamp01 (float_of_int t.competing_senders /. 64.) in
  let l = clamp01 (t.loss_rate /. 0.05) in
  clamp01 ((0.45 *. u) +. (0.25 *. q) +. (0.15 *. n) +. (0.15 *. l))

type bucket = { u_bucket : int; n_bucket : int; q_bucket : int }

(* Pure threshold ladders (no module-level arrays: [bucket_code] runs
   inside pool worker domains, so the edges live in code, not state). *)
let u_bucket_of u = if u <= 0.3 then 0 else if u <= 0.6 then 1 else if u <= 0.85 then 2 else 3
let n_bucket_of n = if n <= 2 then 0 else if n <= 8 then 1 else if n <= 32 then 2 else 3
let q_bucket_of q = if q <= 0.01 then 0 else if q <= 0.05 then 1 else if q <= 0.2 then 2 else 3

let bucketize t =
  {
    u_bucket = u_bucket_of t.utilization;
    n_bucket = n_bucket_of t.competing_senders;
    q_bucket = q_bucket_of t.queue_delay_s;
  }

(* 4 buckets per axis, 3 axes: 64 packed codes. *)
let bucket_codes = 64

let pack_bucket b = (b.u_bucket * 16) + (b.n_bucket * 4) + b.q_bucket

let bucket_of_code code =
  if code < 0 || code >= bucket_codes then invalid_arg "Context.bucket_of_code: out of range";
  { u_bucket = code / 16; n_bucket = code / 4 mod 4; q_bucket = code mod 4 }

let bucket_code t =
  (u_bucket_of t.utilization * 16)
  + (n_bucket_of t.competing_senders * 4)
  + q_bucket_of t.queue_delay_s

let bucket_distance a b =
  abs (a.u_bucket - b.u_bucket) + abs (a.n_bucket - b.n_bucket) + abs (a.q_bucket - b.q_bucket)

let pp ppf t =
  Format.fprintf ppf "ctx{u=%.2f q=%.1fms n=%d loss=%.2f%%}" t.utilization
    (1000. *. t.queue_delay_s) t.competing_senders (100. *. t.loss_rate)
