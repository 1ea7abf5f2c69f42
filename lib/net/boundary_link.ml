module Engine = Phi_sim.Engine
module Pdes = Phi_sim.Pdes

(* A boundary link replaces an ordinary {!Link} at an island cut.  The
   egress half — queueing and serialization — is a real [Link] on the
   source island's engine, so drop-tail/RED behaviour, counters and the
   conservation sanitizer all apply unchanged.  Propagation, however,
   crosses domains: when the egress link finishes serializing a packet
   (its [set_handoff] hook), the packet's fields are flattened into a
   fixed-capacity SPSC ring of plain ints/floats and the source-pool
   cell is released.  The destination island copies the ring into a
   private pending queue during the between-windows drain phase (see
   [Pdes.on_drain]) and re-materializes each record into its own pool
   when the arrival time comes.

   Two rules keep this deterministic:

   - The consumer never reads the ring mid-window — only in the drain
     phase, with both islands quiescent at a barrier.  (Consuming
     eagerly would make the deliver port's re-arm decisions depend on
     producer progress, i.e. on wall-clock scheduling.)

   - Arrival times are computed on the producer side as
     [now +. delay_s] — the same IEEE expression the serial engine's
     [schedule_port_after] uses — so a partitioned run delivers at
     bit-identical virtual times.

   The ring must never block the producer: the consumer may be parked
   at the window barrier waiting for the producer, so blocking would
   deadlock.  Overflow is therefore a hard failure with a sizing hint —
   capacity bounds the traffic one window can emit, and the default is
   far above what a lookahead-bounded window can serialize. *)

(* Flattened record layout. *)
let ri_flow = 0
let ri_src = 1
let ri_dst = 2
let ri_seq = 3 (* data: segment seq; ack: next_expected *)
let ri_flags = 4
let ri_sack0 = 5 (* lo/hi pairs, [max_sack_blocks] of them *)
let ints_per = ri_sack0 + (2 * Packet.max_sack_blocks)
let rf_arrival = 0
let rf_sent_at = 1
let rf_echo_sent_at = 2
let rf_echo_tx_time = 3
let floats_per = 4

(* [ri_flags] bits. *)
let fl_data = 1
let fl_retransmit = 2
let fl_ce = 4
let fl_has_echo = 8
let fl_ece = 16
let fl_sack_shift = 5

exception Fault of string

type t = {
  egress : Link.t;
  src_engine : Engine.t;
  src_pool : Packet.pool;
  src_island : Pdes.island;
  dst_engine : Engine.t;
  dst_pool : Packet.pool;
  dst_island : Pdes.island;
  delay_s : float;
  (* SPSC ring: producer = source island (inside its window), consumer =
     destination island (drain phase only).  [head]/[tail] are monotonic
     operation counts; slot = count mod capacity.  The consumer's reads
     of the payload arrays are ordered after the producer's writes by
     the [Atomic] tail (and, belt and braces, by the window barrier that
     separates every produce from its consume). *)
  capacity : int;
  ring_ints : int array;
  ring_floats : floatarray;
  head : int Atomic.t;
  tail : int Atomic.t;
  (* Destination-private pending queue (circular, growable); only the
     destination island ever touches it.  Arrivals are nondecreasing —
     the egress link is FIFO and the propagation delay constant — so the
     head entry is always the next delivery. *)
  mutable p_ints : int array;
  mutable p_floats : floatarray;
  mutable p_cap : int;
  mutable p_head : int;
  mutable p_len : int;
  mutable deliver_port : Engine.port;
  mutable armed : bool;
  mutable receiver : Packet.handle -> unit;
  mutable delivered : int;
}

let set_receiver t f = t.receiver <- f
let egress t = t.egress
let delay_s t = t.delay_s
let delivered t = t.delivered
let in_transit t = Atomic.get t.tail - Atomic.get t.head + t.p_len

(* Producer side: runs on the source island inside its window, via the
   egress link's handoff hook.  Allocation-free except on overflow. *)
let handoff t pkt =
  let head = Atomic.get t.head in
  let tail = Atomic.get t.tail in
  if tail - head >= t.capacity then
    raise
      (Fault
         (Printf.sprintf
            "Boundary_link: ring overflow (%d entries); a window emitted more \
             cross-island packets than the ring holds — raise ~ring_capacity"
            t.capacity));
  let bi = tail mod t.capacity * ints_per in
  let bf = tail mod t.capacity * floats_per in
  let pool = t.src_pool in
  Array.unsafe_set t.ring_ints (bi + ri_flow) (Packet.flow pool pkt);
  Array.unsafe_set t.ring_ints (bi + ri_src) (Packet.src pool pkt);
  Array.unsafe_set t.ring_ints (bi + ri_dst) (Packet.dst pool pkt);
  Array.unsafe_set t.ring_ints (bi + ri_seq) (Packet.seq pool pkt);
  let nsack = if Packet.is_data pool pkt then 0 else Packet.sack_count pool pkt in
  let flags =
    (if Packet.is_data pool pkt then fl_data else 0)
    lor (if Packet.is_data pool pkt && Packet.retransmit pool pkt then fl_retransmit else 0)
    lor (if Packet.ce pool pkt then fl_ce else 0)
    lor (if (not (Packet.is_data pool pkt)) && Packet.ack_has_echo pool pkt then fl_has_echo
         else 0)
    lor (if (not (Packet.is_data pool pkt)) && Packet.ack_ece pool pkt then fl_ece else 0)
    lor (nsack lsl fl_sack_shift)
  in
  Array.unsafe_set t.ring_ints (bi + ri_flags) flags;
  for i = 0 to nsack - 1 do
    Array.unsafe_set t.ring_ints (bi + ri_sack0 + (2 * i)) (Packet.sack_lo pool pkt i);
    Array.unsafe_set t.ring_ints (bi + ri_sack0 + (2 * i) + 1) (Packet.sack_hi pool pkt i)
  done;
  (* Same expression as the serial engine's [schedule_port_after]:
     bit-identical arrival times partitioned or not. *)
  Float.Array.unsafe_set t.ring_floats (bf + rf_arrival) (Engine.now t.src_engine +. t.delay_s);
  Float.Array.unsafe_set t.ring_floats (bf + rf_sent_at) (Packet.sent_at pool pkt);
  Float.Array.unsafe_set t.ring_floats (bf + rf_echo_sent_at)
    (if Packet.is_data pool pkt then 0. else Packet.ack_echo_sent_at pool pkt);
  Float.Array.unsafe_set t.ring_floats (bf + rf_echo_tx_time)
    (if Packet.is_data pool pkt then 0. else Packet.ack_echo_tx_time pool pkt);
  Atomic.set t.tail (tail + 1);
  Packet.release pool pkt

(* Destination-private queue helpers. *)

let p_grow t =
  let cap = t.p_cap * 2 in
  let ints = Array.make (cap * ints_per) 0 in
  let floats = Float.Array.make (cap * floats_per) 0. in
  for i = 0 to t.p_len - 1 do
    let src = (t.p_head + i) mod t.p_cap in
    Array.blit t.p_ints (src * ints_per) ints (i * ints_per) ints_per;
    Float.Array.blit t.p_floats (src * floats_per) floats (i * floats_per) floats_per
  done;
  t.p_ints <- ints;
  t.p_floats <- floats;
  t.p_cap <- cap;
  t.p_head <- 0

let p_head_arrival t =
  Float.Array.get t.p_floats ((t.p_head * floats_per) + rf_arrival)

(* Materialize the head pending record into the destination pool and
   hand it to the receiver. *)
let on_deliver t =
  let bi = t.p_head * ints_per in
  let bf = t.p_head * floats_per in
  let flags = t.p_ints.(bi + ri_flags) in
  let flow = t.p_ints.(bi + ri_flow) in
  let src = t.p_ints.(bi + ri_src) in
  let dst = t.p_ints.(bi + ri_dst) in
  let seq = t.p_ints.(bi + ri_seq) in
  let sent_at = Float.Array.get t.p_floats (bf + rf_sent_at) in
  let pkt =
    if flags land fl_data <> 0 then begin
      let h =
        Packet.acquire_data t.dst_pool ~flow ~src ~dst ~seq ~now:sent_at
          ~retransmit:(flags land fl_retransmit <> 0)
      in
      if flags land fl_ce <> 0 then Packet.mark_ce t.dst_pool h;
      h
    end
    else begin
      let h =
        Packet.acquire_ack t.dst_pool ~flow ~src ~dst ~next_expected:seq
          ~has_echo:(flags land fl_has_echo <> 0)
          ~echo_sent_at:(Float.Array.get t.p_floats (bf + rf_echo_sent_at))
          ~echo_tx_time:(Float.Array.get t.p_floats (bf + rf_echo_tx_time))
          ~ece:(flags land fl_ece <> 0) ~now:sent_at
      in
      for i = 0 to (flags lsr fl_sack_shift) - 1 do
        Packet.add_sack t.dst_pool h ~lo:t.p_ints.(bi + ri_sack0 + (2 * i))
          ~hi:t.p_ints.(bi + ri_sack0 + (2 * i) + 1)
      done;
      h
    end
  in
  t.p_head <- (t.p_head + 1) mod t.p_cap;
  t.p_len <- t.p_len - 1;
  t.delivered <- t.delivered + 1;
  t.receiver pkt;
  if t.p_len > 0 then
    Engine.schedule_port_at t.dst_engine ~time:(p_head_arrival t) t.deliver_port
  else t.armed <- false

(* Consumer side: runs in the destination island's drain phase, with
   both islands parked at the window barrier. *)
let drain t =
  let tail = Atomic.get t.tail in
  let head = Atomic.get t.head in
  if tail > head then begin
    (* The conservative bound this whole module exists to maintain:
       everything now in the ring was emitted before the source's
       published horizon, which the window scheme keeps at least level
       with ours. *)
    if Pdes.horizon_s t.src_island < Pdes.horizon_s t.dst_island then
      raise (Fault "Boundary_link: source island horizon behind destination");
    for i = head to tail - 1 do
      if t.p_len = t.p_cap then p_grow t;
      let slot = (t.p_head + t.p_len) mod t.p_cap in
      Array.blit t.ring_ints (i mod t.capacity * ints_per) t.p_ints (slot * ints_per) ints_per;
      Float.Array.blit t.ring_floats
        (i mod t.capacity * floats_per)
        t.p_floats (slot * floats_per) floats_per;
      t.p_len <- t.p_len + 1
    done;
    Atomic.set t.head tail;
    if not t.armed then begin
      t.armed <- true;
      Engine.schedule_port_at t.dst_engine ~time:(p_head_arrival t) t.deliver_port
    end
  end

let create coordinator ~src ~dst ~src_pool ~dst_pool ~bandwidth_bps ~delay_s ~capacity_pkts
    ?(ring_capacity = 1 lsl 14) () =
  if ring_capacity < 1 then invalid_arg "Boundary_link.create: ring_capacity must be >= 1";
  if not (Float.is_finite delay_s) || delay_s <= 0. then
    invalid_arg "Boundary_link.create: delay must be positive (it is the lookahead)";
  if Pdes.index src = Pdes.index dst then
    invalid_arg "Boundary_link.create: source and destination island coincide";
  let src_engine = Pdes.engine src in
  let dst_engine = Pdes.engine dst in
  let egress = Link.create src_engine src_pool ~bandwidth_bps ~delay_s ~capacity_pkts in
  let p_cap = 64 in
  let t =
    {
      egress;
      src_engine;
      src_pool;
      src_island = src;
      dst_engine;
      dst_pool;
      dst_island = dst;
      delay_s;
      capacity = ring_capacity;
      ring_ints = Array.make (ring_capacity * ints_per) 0;
      ring_floats = Float.Array.make (ring_capacity * floats_per) 0.;
      head = Atomic.make 0;
      tail = Atomic.make 0;
      p_ints = Array.make (p_cap * ints_per) 0;
      p_floats = Float.Array.make (p_cap * floats_per) 0.;
      p_cap;
      p_head = 0;
      p_len = 0;
      deliver_port = Engine.null_port;
      armed = false;
      receiver = (fun _ -> invalid_arg "Boundary_link: receiver not set");
      delivered = 0;
    }
  in
  t.deliver_port <- Engine.port dst_engine (fun () -> on_deliver t);
  Link.set_handoff egress (fun pkt -> handoff t pkt);
  Pdes.note_lookahead coordinator delay_s;
  Pdes.on_drain dst (fun () -> drain t);
  t
