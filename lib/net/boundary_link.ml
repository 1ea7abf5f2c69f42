module Engine = Phi_sim.Engine
module Invariant = Phi_sim.Invariant
module Pdes = Phi_sim.Pdes

(* A boundary link replaces an ordinary {!Link} at an island cut.  The
   egress half — queueing and serialization — is a real [Link] on the
   source island's engine, so drop-tail/RED behaviour, counters and the
   conservation sanitizer all apply unchanged.  Propagation, however,
   crosses domains: when the egress link finishes serializing a packet
   (its [set_handoff] hook), the packet's fields are flattened into a
   growable outbox of plain ints/floats and the source-pool cell is
   released.  In the between-windows drain phase (see [Pdes.on_drain])
   the destination island turns every outbox record back into a packet
   in its own pool and schedules the deliver port at the record's
   arrival time with the handle as the event's payload — from there a
   packet waits exactly as on a serial [Link], and the boundary only
   counts it.

   The outbox needs no atomics.  Only the source island appends to it,
   and only inside its window; only the destination's drain reads and
   empties it, between the window's two barriers.  Every party takes
   the barrier's mutex on the way through, so each append happens
   before the drain that reads it, and each drain before the next
   window's appends.  At [--jobs 1] one domain does both, in that
   order.

   Two rules keep this deterministic:

   - The destination never reads the outbox mid-window — only in the
     drain phase, with both islands quiescent at a barrier.  (Consuming
     eagerly would make the deliver port's schedule depend on producer
     progress, i.e. on wall-clock scheduling.)

   - Arrival times are computed on the producer side as
     [now +. delay_s] — the same IEEE expression the serial engine's
     [schedule_port_after] uses — so a partitioned run delivers at
     bit-identical virtual times.

   The outbox never blocks the producer (the consumer may be parked at
   the window barrier, so blocking would deadlock) and never fills: it
   doubles when full and keeps its capacity across windows. *)

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
  (* Outbox: [out_len] records, written by the source island during its
     window and emptied by the destination's drain. *)
  mutable out_ints : int array;
  mutable out_floats : floatarray;
  mutable out_len : int;
  (* Drained packets still propagating: each rides in its delivery
     event's payload, so the boundary keeps only their count. *)
  mutable propagating : int;
  mutable deliver_port : Engine.port;
  mutable receiver : Packet.handle -> unit;
  mutable delivered : int;
}

let set_receiver t f = t.receiver <- f
let egress t = t.egress
let delay_s t = t.delay_s
let delivered t = t.delivered
let in_transit t = t.out_len + t.propagating

let[@inline never] grow_outbox t =
  let cap = Int.max 16 (2 * t.out_len) in
  let ints = Array.make (cap * ints_per) 0 in
  Array.blit t.out_ints 0 ints 0 (t.out_len * ints_per);
  let floats = Float.Array.make (cap * floats_per) 0. in
  Float.Array.blit t.out_floats 0 floats 0 (t.out_len * floats_per);
  t.out_ints <- ints;
  t.out_floats <- floats

(* Producer side: runs on the source island inside its window, via the
   egress link's handoff hook.  Allocation-free except when the outbox
   grows. *)
let handoff t pkt =
  if t.out_len * ints_per = Array.length t.out_ints then grow_outbox t;
  let bi = t.out_len * ints_per in
  let bf = t.out_len * floats_per in
  let pool = t.src_pool in
  Array.unsafe_set t.out_ints (bi + ri_flow) (Packet.flow pool pkt);
  Array.unsafe_set t.out_ints (bi + ri_src) (Packet.src pool pkt);
  Array.unsafe_set t.out_ints (bi + ri_dst) (Packet.dst pool pkt);
  Array.unsafe_set t.out_ints (bi + ri_seq) (Packet.seq pool pkt);
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
  Array.unsafe_set t.out_ints (bi + ri_flags) flags;
  for i = 0 to nsack - 1 do
    Array.unsafe_set t.out_ints (bi + ri_sack0 + (2 * i)) (Packet.sack_lo pool pkt i);
    Array.unsafe_set t.out_ints (bi + ri_sack0 + (2 * i) + 1) (Packet.sack_hi pool pkt i)
  done;
  (* Same expression as the serial engine's [schedule_port_after]:
     bit-identical arrival times partitioned or not. *)
  Float.Array.unsafe_set t.out_floats (bf + rf_arrival) (Engine.now t.src_engine +. t.delay_s);
  Float.Array.unsafe_set t.out_floats (bf + rf_sent_at) (Packet.sent_at pool pkt);
  Float.Array.unsafe_set t.out_floats (bf + rf_echo_sent_at)
    (if Packet.is_data pool pkt then 0. else Packet.ack_echo_sent_at pool pkt);
  Float.Array.unsafe_set t.out_floats (bf + rf_echo_tx_time)
    (if Packet.is_data pool pkt then 0. else Packet.ack_echo_tx_time pool pkt);
  t.out_len <- t.out_len + 1;
  Packet.release pool pkt

(* Outbox record [r] as a fresh packet in the destination pool. *)
let materialize t r =
  let bi = r * ints_per in
  let bf = r * floats_per in
  let flags = t.out_ints.(bi + ri_flags) in
  let flow = t.out_ints.(bi + ri_flow) in
  let src = t.out_ints.(bi + ri_src) in
  let dst = t.out_ints.(bi + ri_dst) in
  let seq = t.out_ints.(bi + ri_seq) in
  let sent_at = Float.Array.get t.out_floats (bf + rf_sent_at) in
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
        ~echo_sent_at:(Float.Array.get t.out_floats (bf + rf_echo_sent_at))
        ~echo_tx_time:(Float.Array.get t.out_floats (bf + rf_echo_tx_time))
        ~ece:(flags land fl_ece <> 0) ~now:sent_at
    in
    for i = 0 to (flags lsr fl_sack_shift) - 1 do
      Packet.add_sack t.dst_pool h ~lo:t.out_ints.(bi + ri_sack0 + (2 * i))
        ~hi:t.out_ints.(bi + ri_sack0 + (2 * i) + 1)
    done;
    h
  end

(* Sanitizer hook, the cross-island twin of [link-conservation]: every
   packet the egress handed off (its delivered counter: with a handoff
   installed, serialization ends in [handoff]) is delivered, still in the
   outbox, or drained and propagating.  Checked at every drain, where
   both islands are parked at the barrier and every counter is
   quiescent. *)
let[@inline never] check_conservation t =
  let handed_off = Link.packets_delivered t.egress in
  let accounted = t.delivered + t.out_len + t.propagating in
  if handed_off <> accounted then
    Invariant.record ~rule:"boundary-conservation" ~time:(Engine.now t.dst_engine)
      (Printf.sprintf
         "Boundary_link: %d packets handed off <> %d accounted (%d delivered + %d in the \
          outbox + %d propagating)"
         handed_off accounted t.delivered t.out_len t.propagating)

(* Consumer side: runs in the destination island's drain phase, with
   both islands parked at the window barrier. *)
let drain t =
  if !Invariant.armed then check_conservation t;
  if t.out_len > 0 then begin
    (* The conservative bound this whole module exists to maintain:
       everything now in the outbox was emitted before the source's
       published horizon, which the window scheme keeps at least level
       with ours. *)
    if Pdes.horizon_s t.src_island < Pdes.horizon_s t.dst_island then
      raise (Fault "Boundary_link: source island horizon behind destination");
    for r = 0 to t.out_len - 1 do
      let pkt = materialize t r in
      Engine.schedule_port_at t.dst_engine
        ~time:(Float.Array.get t.out_floats ((r * floats_per) + rf_arrival))
        t.deliver_port (pkt :> int)
    done;
    t.propagating <- t.propagating + t.out_len;
    t.out_len <- 0
  end

let on_deliver t pkt =
  t.delivered <- t.delivered + 1;
  t.propagating <- t.propagating - 1;
  t.receiver pkt

let create coordinator ~src ~dst ~src_pool ~dst_pool ~bandwidth_bps ~delay_s ~capacity_pkts =
  if not (Float.is_finite delay_s) || delay_s <= 0. then
    invalid_arg "Boundary_link.create: delay must be positive (it is the lookahead)";
  if Pdes.index src = Pdes.index dst then
    invalid_arg "Boundary_link.create: source and destination island coincide";
  let src_engine = Pdes.engine src in
  let dst_engine = Pdes.engine dst in
  let egress = Link.create src_engine src_pool ~bandwidth_bps ~delay_s ~capacity_pkts in
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
      out_ints = [||];
      out_floats = Float.Array.create 0;
      out_len = 0;
      propagating = 0;
      deliver_port = Engine.null_port;
      receiver = (fun _ -> invalid_arg "Boundary_link: receiver not set");
      delivered = 0;
    }
  in
  t.deliver_port <- Packet.port dst_engine (on_deliver t);
  Link.set_handoff egress (fun pkt -> handoff t pkt);
  Pdes.note_lookahead coordinator delay_s;
  Pdes.on_drain dst (fun () -> drain t);
  t
