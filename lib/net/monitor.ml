module Engine = Phi_sim.Engine

type t = {
  engine : Engine.t;
  link : Link.t;
  interval_s : float;
  mutable sample_port : Engine.port;
  mutable last_busy_time : float;
  mutable last_clock : float;
  mutable current_utilization : float;
}

(* Periodic sampling rides the engine's port registry, like the link
   pipeline: the handler is registered once at creation and reschedules
   itself by index — no fresh closure per interval. *)
let sample t =
  let now = Engine.now t.engine in
  let busy = Link.busy_time t.link in
  let elapsed = now -. t.last_clock in
  let util = if elapsed > 0. then Float.min 1. ((busy -. t.last_busy_time) /. elapsed) else 0. in
  t.current_utilization <- util;
  t.last_busy_time <- busy;
  t.last_clock <- now;
  Engine.schedule_port_after t.engine ~delay:t.interval_s t.sample_port 0

let create engine link ~interval_s =
  if interval_s <= 0. then invalid_arg "Monitor.create: interval must be positive";
  let t =
    {
      engine;
      link;
      interval_s;
      sample_port = Engine.null_port;
      last_busy_time = Link.busy_time link;
      last_clock = Engine.now engine;
      current_utilization = 0.;
    }
  in
  t.sample_port <- Engine.port engine (fun _ -> sample t);
  Engine.schedule_port_after engine ~delay:interval_s t.sample_port 0;
  t

let current_utilization t = t.current_utilization
