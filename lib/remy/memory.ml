let alpha = 1. /. 8.
let ewma_scale = 0.15

(* All floats, so OCaml stores the record flat and the per-ACK stores
   box nothing (phi-lint [hot-float-field]).  [last_ack_at] is [nan]
   until the first ACK: [now] is always finite, so the sentinel never
   collides with a real arrival. *)
type t = {
  mutable ack_ewma : float;
  mutable send_ewma : float;
  mutable rtt_ratio : float;
  mutable util : float;
  mutable last_ack_at : float;
  mutable last_echo : float;
  mutable min_rtt : float;
}

let create () =
  {
    ack_ewma = 0.;
    send_ewma = 0.;
    rtt_ratio = 1.;
    util = 0.;
    last_ack_at = nan;
    last_echo = 0.;
    min_rtt = infinity;
  }

let dims_remy = 3
let dims_phi = 4

let blend old x = ((1. -. alpha) *. old) +. (alpha *. x)

let on_ack t ~now ~echo_sent_at =
  let rtt = now -. echo_sent_at in
  if rtt > 0. then begin
    if rtt < t.min_rtt then t.min_rtt <- rtt;
    t.rtt_ratio <- Float.max 1. (rtt /. t.min_rtt)
  end;
  if not (Float.is_nan t.last_ack_at) then begin
    t.ack_ewma <- blend t.ack_ewma (Float.max 0. (now -. t.last_ack_at));
    t.send_ewma <- blend t.send_ewma (Float.max 0. (echo_sent_at -. t.last_echo))
  end;
  t.last_ack_at <- now;
  t.last_echo <- echo_sent_at

let set_utilization t u = t.util <- Float.max 0. (Float.min 1. u)

let utilization t = t.util
let ack_ewma t = t.ack_ewma
let send_ewma t = t.send_ewma
let rtt_ratio t = t.rtt_ratio
let min_rtt t = if Float.is_finite t.min_rtt then Some t.min_rtt else None

let squash_ewma x = x /. (x +. ewma_scale)
let squash_ratio r = (r -. 1.) /. r

let to_point t ~dims =
  if dims = dims_remy then
    [| squash_ewma t.send_ewma; squash_ewma t.ack_ewma; squash_ratio t.rtt_ratio |]
  else if dims = dims_phi then
    [| squash_ewma t.send_ewma; squash_ewma t.ack_ewma; squash_ratio t.rtt_ratio; t.util |]
  else invalid_arg "Memory.to_point: dims must be 3 or 4"

let write_point t ~dims (out : floatarray) =
  if Float.Array.length out < dims then invalid_arg "Memory.write_point: scratch too short";
  if dims <> dims_remy && dims <> dims_phi then
    invalid_arg "Memory.write_point: dims must be 3 or 4";
  Float.Array.unsafe_set out 0 (squash_ewma t.send_ewma);
  Float.Array.unsafe_set out 1 (squash_ewma t.ack_ewma);
  Float.Array.unsafe_set out 2 (squash_ratio t.rtt_ratio);
  if dims = dims_phi then Float.Array.unsafe_set out 3 t.util

let reset t =
  t.ack_ewma <- 0.;
  t.send_ewma <- 0.;
  t.rtt_ratio <- 1.;
  t.last_ack_at <- nan;
  t.last_echo <- 0.;
  t.min_rtt <- infinity
