module Engine = Phi_sim.Engine
module Invariant = Phi_sim.Invariant
module Fifo = Packet.Fifo

type red_params = {
  min_threshold : int;
  max_threshold : int;
  max_probability : float;
  weight : float;
  mark_ecn : bool;
}

let default_red ?(ecn = false) ~capacity_pkts () =
  let min_threshold = Int.max 5 (capacity_pkts / 12) in
  {
    min_threshold;
    max_threshold = 3 * min_threshold;
    max_probability = 0.1;
    weight = 0.002;
    mark_ecn = ecn;
  }

type discipline = Drop_tail | Red of red_params

type t = {
  engine : Engine.t;
  pool : Packet.pool;
  (* Mutable for the scenario plane's runtime dynamics ({!set_rate_bps},
     {!set_delay_s}): a WAN link can be re-provisioned or jittered
     mid-run.  Constant-parameter runs never write these, so the legacy
     experiments are bit-identical. *)
  mutable bandwidth_bps : float;
  mutable delay_s : float;
  capacity_pkts : int;
  queue : Fifo.t;
  (* A serialized packet propagates as the payload of its delivery
     event: the link keeps no in-flight copy of it. *)
  mutable tx_done_port : Engine.port;
  mutable deliver_port : Engine.port;
  mutable memo_size : int;
  mutable receiver : Packet.handle -> unit;
  (* When set, serialized packets are handed to this function instead of
     entering propagation on this engine — the boundary-link hook for
     cross-island handoff.  The handle is still owned by this link's
     pool; the handoff must consume it (serialize-and-release). *)
  mutable handoff : (Packet.handle -> unit) option;
  mutable busy : bool;
  mutable in_service_size : int;  (* bytes of the packet in service *)
  (* Administrative state for link-flap dynamics.  While down, arrivals
     are dropped (and counted), queued packets freeze in place, and the
     packet in service — plus everything already propagating — still
     completes: serialization and photons in flight don't care about
     control-plane state. *)
  mutable up : bool;
  mutable packets_offered : int;
  mutable packets_delivered : int;
  mutable bytes_offered : int;
  mutable bytes_delivered : int;
  mutable bytes_dropped : int;
  mutable drops : int;
  (* The per-packet float state (see the [fs_*] indices below) lives in
     a [floatarray] rather than mutable float fields: storing a float
     into a mixed record allocates a fresh box on every write, and
     several of these are written for every packet served. *)
  fs : floatarray;
  mutable fault : (Phi_util.Prng.t * float) option;
  mutable discipline : discipline;
  mutable red_rng : Phi_util.Prng.t option;
  mutable ecn_marks : int;
}

(* Serialization time of the packet at the head of [queue], recorded
   when its service starts. *)
let fs_in_service_tx = 0

(* One-entry [tx_time] memo (keyed by [memo_size]).  Traffic on a link
   is dominated by one or two packet sizes (MSS data, 40-byte ACKs), so
   this removes the per-packet division while keeping the exact IEEE
   quotient — multiplying by a precomputed 1/bandwidth would perturb
   event times in the last ulp and break bit-for-bit reproducibility
   against recorded runs. *)
let fs_memo_tx = 1
let fs_busy_time = 2
let fs_total_queue_wait = 3
let fs_red_avg = 4  (* RED's average queue estimate *)

(* Latest scheduled delivery time.  The delivery port's events must keep
   the engine's per-port FIFO contract, so when {!set_delay_s} shrinks
   the delay mid-run a later packet must not be scheduled to land before
   an earlier one — its delivery is clamped to this watermark instead
   (no reordering, only compression of inter-delivery gaps). *)
let fs_last_delivery = 5
let fs_len = 6

let[@inline] fs_get t i = Float.Array.unsafe_get t.fs i
let[@inline] fs_set t i v = Float.Array.unsafe_set t.fs i v

let set_receiver t f = t.receiver <- f
let set_handoff t f = t.handoff <- Some f

let set_fault_injection t ~rng ~drop_probability =
  if drop_probability < 0. || drop_probability > 1. then
    invalid_arg "Link.set_fault_injection: probability out of [0, 1]";
  t.fault <- if Float.equal drop_probability 0. then None else Some (rng, drop_probability)

let[@inline] tx_time t size =
  if size = t.memo_size then fs_get t fs_memo_tx
  else begin
    let tx = float_of_int (size * 8) /. t.bandwidth_bps in
    t.memo_size <- size;
    fs_set t fs_memo_tx tx;
    tx
  end

let queued_bytes t = Fifo.fold (fun acc p -> acc + Packet.size t.pool p) 0 t.queue

(* Sanitizer hook: every packet and byte offered to the link must be
   delivered, dropped, or still queued — nothing may vanish or be
   double-counted.  Checked after each enqueue and each service
   completion when PHI_SANITIZE=1: the per-packet path pays one load of
   [Invariant.armed], inline, and calls the check only when armed. *)
let[@inline never] conservation_check t =
  let now = Engine.now t.engine in
  let queued = Fifo.length t.queue in
  if queued > t.capacity_pkts then
    Invariant.record ~rule:"queue-occupancy" ~time:now
      (Printf.sprintf "Link: queue %d exceeds capacity %d" queued t.capacity_pkts);
  let accounted = t.packets_delivered + t.drops + queued in
  if t.packets_offered <> accounted then
    Invariant.record ~rule:"link-conservation" ~time:now
      (Printf.sprintf
         "Link: %d packets offered <> %d accounted (%d delivered + %d dropped + %d queued)"
         t.packets_offered accounted t.packets_delivered t.drops queued);
  let bytes_accounted = t.bytes_delivered + t.bytes_dropped + queued_bytes t in
  if t.bytes_offered <> bytes_accounted then
    Invariant.record ~rule:"byte-conservation" ~time:now
      (Printf.sprintf
         "Link: %d bytes offered <> %d accounted (%d delivered + %d dropped + %d queued)"
         t.bytes_offered bytes_accounted t.bytes_delivered t.bytes_dropped (queued_bytes t))

let[@inline] check_conservation t = if !Invariant.armed then conservation_check t

(* The self-rescheduling transmit loop.  Serve the head-of-line packet:
   serialization (the [tx_done] port), then propagation (the [deliver]
   port), then start on the next queued packet.  [busy] guards against
   starting two transmissions at once.  Both ports are registered once
   at link creation, so the per-packet path schedules them without
   allocating a single closure; the queue holds pool handles (immediate
   ints) and a propagating packet's handle rides in its delivery event's
   payload, so no packet is ever boxed or copied either. *)
(* Serialize [pkt], the head of the queue.  Its size is kept in the
   link, so the transmit-complete event does not read the packet again
   (by then its cell has usually left the cache). *)
let begin_service t pkt =
  t.busy <- true;
  let size = Packet.size t.pool pkt in
  t.in_service_size <- size;
  let tx = tx_time t size in
  fs_set t fs_in_service_tx tx;
  Engine.schedule_port_after t.engine ~delay:tx t.tx_done_port 0

let start_service t =
  if (not t.up) || Fifo.is_empty t.queue then t.busy <- false
  else begin
    let pkt = Fifo.peek t.queue in
    let now = Engine.now t.engine in
    fs_set t fs_total_queue_wait
      (fs_get t fs_total_queue_wait +. (now -. Packet.enqueued_at t.pool pkt));
    begin_service t pkt
  end

let on_tx_done t =
  let pkt = Fifo.pop t.queue in
  fs_set t fs_busy_time (fs_get t fs_busy_time +. fs_get t fs_in_service_tx);
  t.packets_delivered <- t.packets_delivered + 1;
  t.bytes_delivered <- t.bytes_delivered + t.in_service_size;
  (match t.handoff with
  | None ->
    (* [schedule_port_after] lands at [now +. delay] — the same IEEE
       expression as [due] — so the fast path below is the legacy
       behaviour verbatim; only a mid-run delay {e decrease} can take
       the clamped branch. *)
    let due = Engine.now t.engine +. t.delay_s in
    if due >= fs_get t fs_last_delivery then begin
      fs_set t fs_last_delivery due;
      Engine.schedule_port_after t.engine ~delay:t.delay_s t.deliver_port (pkt :> int)
    end
    else
      Engine.schedule_port_at t.engine ~time:(fs_get t fs_last_delivery) t.deliver_port
        (pkt :> int)
  | Some f -> f pkt);
  check_conservation t;
  start_service t

let create engine pool ~bandwidth_bps ~delay_s ~capacity_pkts =
  if not (Float.is_finite bandwidth_bps && bandwidth_bps > 0.) then
    invalid_arg "Link.create: bandwidth_bps must be finite and positive";
  if not (Float.is_finite delay_s && delay_s >= 0.) then
    invalid_arg "Link.create: delay_s must be finite and non-negative";
  if capacity_pkts < 1 then invalid_arg "Link.create: capacity_pkts must be >= 1";
  let t =
    {
      engine;
      pool;
      bandwidth_bps;
      delay_s;
      capacity_pkts;
      queue = Fifo.create ();
      tx_done_port = Engine.null_port;
      deliver_port = Engine.null_port;
      memo_size = -1;
      receiver = (fun _ -> invalid_arg "Link: receiver not set");
      handoff = None;
      busy = false;
      in_service_size = 0;
      up = true;
      packets_offered = 0;
      packets_delivered = 0;
      bytes_offered = 0;
      bytes_delivered = 0;
      bytes_dropped = 0;
      drops = 0;
      fs = Float.Array.make fs_len 0.;
      fault = None;
      discipline = Drop_tail;
      red_rng = None;
      ecn_marks = 0;
    }
  in
  t.tx_done_port <- Engine.port engine (fun _ -> on_tx_done t);
  t.deliver_port <- Packet.port engine (fun pkt -> t.receiver pkt);
  t

let set_discipline t ~rng discipline =
  (match discipline with
  | Red p ->
    if p.min_threshold < 1 || p.max_threshold <= p.min_threshold then
      invalid_arg "Link.set_discipline: bad RED thresholds";
    if p.max_probability <= 0. || p.max_probability > 1. then
      invalid_arg "Link.set_discipline: bad RED max probability";
    if p.weight <= 0. || p.weight > 1. then invalid_arg "Link.set_discipline: bad RED weight"
  | Drop_tail -> ());
  t.discipline <- discipline;
  t.red_rng <- Some rng;
  fs_set t fs_red_avg (float_of_int (Fifo.length t.queue))

(* RED early-drop/mark decision (simplified: no idle-time correction, no
   between-drop spacing).  With [mark_ecn], band "drops" become CE marks
   on data packets; only forced drops above max_threshold still drop. *)
let red_rejects t p pkt =
  let avg =
    ((1. -. p.weight) *. fs_get t fs_red_avg)
    +. (p.weight *. float_of_int (Fifo.length t.queue))
  in
  fs_set t fs_red_avg avg;
  if avg < float_of_int p.min_threshold then false
  else if avg >= float_of_int p.max_threshold then true
  else begin
    let range = float_of_int (p.max_threshold - p.min_threshold) in
    let drop_p = p.max_probability *. (avg -. float_of_int p.min_threshold) /. range in
    let hit =
      match t.red_rng with Some rng -> Phi_util.Prng.float rng < drop_p | None -> false
    in
    if hit && p.mark_ecn && Packet.is_data t.pool pkt then begin
      Packet.mark_ce t.pool pkt;
      t.ecn_marks <- t.ecn_marks + 1;
      false
    end
    else hit
  end

let discipline_rejects t pkt =
  match t.discipline with Drop_tail -> false | Red p -> red_rejects t p pkt

let faulted t =
  match t.fault with
  | None -> false
  | Some (rng, p) -> Phi_util.Prng.float rng < p

let send t pkt =
  let size = Packet.size t.pool pkt in
  t.packets_offered <- t.packets_offered + 1;
  t.bytes_offered <- t.bytes_offered + size;
  if (not t.up) || Fifo.length t.queue >= t.capacity_pkts || discipline_rejects t pkt
     || faulted t
  then begin
    t.drops <- t.drops + 1;
    t.bytes_dropped <- t.bytes_dropped + size;
    (* A drop is the end of the packet's life: back to the free list. *)
    Packet.release t.pool pkt
  end
  else begin
    Fifo.push t.queue pkt;
    (* An idle link that is up has an empty queue, so it serves the
       packet at once: it waits no time, and the wait it would add to
       [fs_total_queue_wait] is exactly 0. *)
    if t.busy then Packet.set_enqueued_at t.pool pkt (Engine.now t.engine)
    else begin_service t pkt
  end;
  check_conservation t

let bandwidth_bps t = t.bandwidth_bps
let delay_s t = t.delay_s
let capacity_pkts t = t.capacity_pkts
let is_up t = t.up

(* {2 Runtime dynamics} *)

let set_rate_bps t bps =
  if not (Float.is_finite bps) || bps <= 0. then
    invalid_arg "Link.set_rate_bps: rate must be positive";
  t.bandwidth_bps <- bps;
  (* Invalidate the tx-time memo; the packet in service keeps the
     serialization time computed when its service began. *)
  t.memo_size <- -1

let set_delay_s t delay =
  if not (Float.is_finite delay) || delay < 0. then
    invalid_arg "Link.set_delay_s: negative or non-finite delay";
  t.delay_s <- delay

let set_down t = t.up <- false

let set_up t =
  if not t.up then begin
    t.up <- true;
    if not t.busy then start_service t
  end

(* {2 Windowed measurement} *)

type window = {
  w_busy_s : float;
  w_wait_s : float;
  w_delivered : int;
  w_offered : int;
  w_drops : int;
  w_bytes_delivered : int;
}

let window_open t =
  {
    w_busy_s = fs_get t fs_busy_time;
    w_wait_s = fs_get t fs_total_queue_wait;
    w_delivered = t.packets_delivered;
    w_offered = t.packets_offered;
    w_drops = t.drops;
    w_bytes_delivered = t.bytes_delivered;
  }

let window_delivered t w = t.packets_delivered - w.w_delivered
let window_offered t w = t.packets_offered - w.w_offered
let window_drops t w = t.drops - w.w_drops
let window_bytes_delivered t w = t.bytes_delivered - w.w_bytes_delivered
let window_busy_s t w = fs_get t fs_busy_time -. w.w_busy_s

let window_queue_delay_s t w =
  let delivered = window_delivered t w in
  if delivered = 0 then 0.
  else (fs_get t fs_total_queue_wait -. w.w_wait_s) /. float_of_int delivered

let window_loss_rate t w =
  let offered = window_offered t w in
  if offered = 0 then 0. else float_of_int (window_drops t w) /. float_of_int offered

let window_throughput_bps t w ~elapsed_s =
  float_of_int (window_bytes_delivered t w * 8) /. elapsed_s

let window_utilization t w ~elapsed_s = Float.min 1. (window_busy_s t w /. elapsed_s)
let queue_length t = Fifo.length t.queue
let ecn_marks t = t.ecn_marks
let packets_delivered t = t.packets_delivered
let bytes_delivered t = t.bytes_delivered
let drops t = t.drops
let packets_offered t = t.packets_offered
let busy_time t = fs_get t fs_busy_time
let total_queue_wait t = fs_get t fs_total_queue_wait
