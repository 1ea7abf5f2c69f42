(* Timing wrapper around a congestion controller.

   The wrapper is a copy of the controller's record whose three event
   hooks time the original ones.  The sender calls [cc.on_ack cc ...]
   with the record it holds, so the original hooks receive the wrapper
   and their [cwnd]/[ssthresh]/[pacing_gap_s] writes land where the
   sender reads them.  Controllers keep their private state in their
   closures, which the copy shares. *)

module Cc = Phi_tcp.Cc

type counters = {
  mutable made : int;
  mutable make_ns : int;
  mutable acks : int;
  mutable ack_ns : int;
  mutable losses : int;
  mutable loss_ns : int;
  mutable timeouts : int;
  mutable timeout_ns : int;
}

let counters () =
  { made = 0; make_ns = 0; acks = 0; ack_ns = 0; losses = 0; loss_ns = 0; timeouts = 0; timeout_ns = 0 }

let wrap c (inner : Cc.t) : Cc.t =
  {
    inner with
    on_ack =
      (fun self ~now ~rtt ~sent_at ~newly_acked ->
        let t0 = Clock.now_ns () in
        inner.on_ack self ~now ~rtt ~sent_at ~newly_acked;
        c.ack_ns <- c.ack_ns + (Clock.now_ns () - t0);
        c.acks <- c.acks + 1);
    on_loss =
      (fun self ~now ->
        let t0 = Clock.now_ns () in
        inner.on_loss self ~now;
        c.loss_ns <- c.loss_ns + (Clock.now_ns () - t0);
        c.losses <- c.losses + 1);
    on_timeout =
      (fun self ~now ->
        let t0 = Clock.now_ns () in
        inner.on_timeout self ~now;
        c.timeout_ns <- c.timeout_ns + (Clock.now_ns () - t0);
        c.timeouts <- c.timeouts + 1);
  }

(* A per-connection factory whose construction is timed too. *)
let factory c make () =
  let t0 = Clock.now_ns () in
  let inner = make () in
  c.make_ns <- c.make_ns + (Clock.now_ns () - t0);
  c.made <- c.made + 1;
  wrap c inner

(* Time spent inside the controller, construction included. *)
let busy_ns c = c.make_ns + c.ack_ns + c.loss_ns + c.timeout_ns
