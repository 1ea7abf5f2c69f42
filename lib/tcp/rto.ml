(* Mutable estimator state lives in a flat floatarray: this record also
   carries non-float fields, so [mutable f : float] fields would box a
   fresh float on every store — once per RTT sample on the ACK hot path
   (phi-lint [hot-float-field]).  Floatarray stores are unboxed.  The
   float-taking and float-returning entry points are forced inline, so
   their arguments and results cross no call boundary, which would box
   them. *)

(* Slot layout of [s]. *)
let srtt_i = 0
let rttvar_i = 1
let have_sample_i = 2 (* 0. = no sample yet, 1. = have one *)
let backoff_i = 3

type t = { min_rto : float; max_rto : float; s : floatarray }

let get t i = Float.Array.get t.s i
let set t i v = Float.Array.set t.s i v

let create ?(min_rto = 0.2) ?(max_rto = 60.) () =
  if min_rto <= 0. || max_rto < min_rto then invalid_arg "Rto.create: bad bounds";
  let s = Float.Array.create 4 in
  Float.Array.set s srtt_i 1.;
  Float.Array.set s rttvar_i 0.5;
  Float.Array.set s have_sample_i 0.;
  Float.Array.set s backoff_i 1.;
  { min_rto; max_rto; s }

let[@inline] observe t ~rtt =
  if rtt <= 0. then invalid_arg "Rto.observe: non-positive rtt";
  if get t have_sample_i > 0. then begin
    set t rttvar_i ((0.75 *. get t rttvar_i) +. (0.25 *. Float.abs (get t srtt_i -. rtt)));
    set t srtt_i ((0.875 *. get t srtt_i) +. (0.125 *. rtt))
  end
  else begin
    set t srtt_i rtt;
    set t rttvar_i (rtt /. 2.);
    set t have_sample_i 1.
  end;
  set t backoff_i 1.

let[@inline] current t =
  let base =
    if get t have_sample_i > 0. then get t srtt_i +. (4. *. get t rttvar_i)
    else 1. (* RFC 6298 initial RTO before any sample *)
  in
  Float.min t.max_rto (Float.max t.min_rto base *. get t backoff_i)

let backoff t = set t backoff_i (Float.min (get t backoff_i *. 2.) 64.)

let[@inline] srtt t ~default = if get t have_sample_i > 0. then get t srtt_i else default
