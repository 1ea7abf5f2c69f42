module Engine = Phi_sim.Engine

type t = {
  engine : Engine.t;
  link : Link.t;
  interval_s : float;
  started_at : float;
  mutable sample_port : Engine.port;
  mutable last_busy_time : float;
  mutable last_clock : float;
  mutable current_utilization : float;
  mutable util_series : (float * float) list;  (* reversed *)
  mutable queue_series : (float * int) list;  (* reversed *)
  mutable queue_sample_sum : int;
  mutable queue_sample_count : int;
  mutable running : bool;
}

(* Periodic sampling rides the engine's port registry, like the link
   pipeline: the handler is registered once at creation and reschedules
   itself by index — no fresh closure per interval. *)
let sample t =
  if t.running then begin
    let now = Engine.now t.engine in
    let busy = Link.busy_time t.link in
    let elapsed = now -. t.last_clock in
    let util = if elapsed > 0. then Float.min 1. ((busy -. t.last_busy_time) /. elapsed) else 0. in
    t.current_utilization <- util;
    t.util_series <- (now, util) :: t.util_series;
    let q = Link.queue_length t.link in
    t.queue_series <- (now, q) :: t.queue_series;
    t.queue_sample_sum <- t.queue_sample_sum + q;
    t.queue_sample_count <- t.queue_sample_count + 1;
    t.last_busy_time <- busy;
    t.last_clock <- now;
    Engine.schedule_port_after t.engine ~delay:t.interval_s t.sample_port
  end

let create engine link ~interval_s =
  if interval_s <= 0. then invalid_arg "Monitor.create: interval must be positive";
  let t =
    {
      engine;
      link;
      interval_s;
      started_at = Engine.now engine;
      sample_port = Engine.null_port;
      last_busy_time = Link.busy_time link;
      last_clock = Engine.now engine;
      current_utilization = 0.;
      util_series = [];
      queue_series = [];
      queue_sample_sum = 0;
      queue_sample_count = 0;
      running = true;
    }
  in
  t.sample_port <- Engine.port engine (fun () -> sample t);
  Engine.schedule_port_after engine ~delay:interval_s t.sample_port;
  t

let current_utilization t = t.current_utilization

let current_queue t = Link.queue_length t.link

let mean_utilization t =
  let elapsed = Engine.now t.engine -. t.started_at in
  if elapsed <= 0. then 0. else Float.min 1. (Link.busy_time t.link /. elapsed)

let mean_queue t =
  if t.queue_sample_count = 0 then 0.
  else float_of_int t.queue_sample_sum /. float_of_int t.queue_sample_count

let utilization_series t = Array.of_list (List.rev t.util_series)

let queue_series t = Array.of_list (List.rev t.queue_series)

let stop t = t.running <- false
