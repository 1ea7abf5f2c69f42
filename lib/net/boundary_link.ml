module Engine = Phi_sim.Engine
module Invariant = Phi_sim.Invariant
module Pdes = Phi_sim.Pdes

(* A boundary link replaces an ordinary {!Link} at an island cut.  The
   egress half — queueing and serialization — is a real [Link] on the
   source island's engine, so drop-tail/RED behaviour, counters and the
   conservation sanitizer all apply unchanged.  Propagation, however,
   crosses domains: when the egress link finishes serializing a packet
   (its [set_handoff] hook), the packet's cell is exported into a
   growable outbox ({!Packet.export}) next to its arrival time, and the
   source-pool cell is released.  In the between-windows drain phase
   (see [Pdes.on_drain]) the destination island imports every outbox
   cell into its own pool ({!Packet.import}) and schedules the deliver
   port at the cell's arrival time with the handle as the event's
   payload — from there a packet waits exactly as on a serial [Link],
   and the boundary only counts it.

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

exception Fault of string

(* Inside a window the source island writes [out_len] and the
   destination writes [propagating] and [delivered], so the two ends of
   the record hold them, thirteen words apart: the two domains never
   write one cache line. *)
type t = {
  (* Outbox: [out_len] exported cells and their arrival times, written
     by the source island during its window and emptied by the
     destination's drain. *)
  mutable out_len : int;
  mutable out_ints : int array;
  mutable out_floats : floatarray;
  mutable out_arrival : floatarray;
  src_engine : Engine.t;
  src_pool : Packet.pool;
  src_island : Pdes.island;
  delay_s : float;
  egress : Link.t;
  dst_engine : Engine.t;
  dst_pool : Packet.pool;
  dst_island : Pdes.island;
  mutable deliver_port : Engine.port;
  mutable receiver : Packet.handle -> unit;
  (* Drained packets still propagating: each rides in its delivery
     event's payload, so the boundary keeps only their count. *)
  mutable propagating : int;
  mutable delivered : int;
}

let set_receiver t f = t.receiver <- f
let egress t = t.egress
let delivered t = t.delivered
let in_transit t = t.out_len + t.propagating

let[@inline never] grow_outbox t =
  let cap = Int.max 16 (2 * t.out_len) in
  let ints = Array.make (cap * Packet.cell_ints) 0 in
  Array.blit t.out_ints 0 ints 0 (t.out_len * Packet.cell_ints);
  let floats = Float.Array.make (cap * Packet.cell_floats) 0. in
  Float.Array.blit t.out_floats 0 floats 0 (t.out_len * Packet.cell_floats);
  let arrival = Float.Array.make cap 0. in
  Float.Array.blit t.out_arrival 0 arrival 0 t.out_len;
  t.out_ints <- ints;
  t.out_floats <- floats;
  t.out_arrival <- arrival

(* Producer side: runs on the source island inside its window, via the
   egress link's handoff hook.  Allocation-free except when the outbox
   grows. *)
let handoff t pkt =
  let r = t.out_len in
  if r = Float.Array.length t.out_arrival then grow_outbox t;
  Packet.export t.src_pool pkt t.out_ints (r * Packet.cell_ints) t.out_floats
    (r * Packet.cell_floats);
  (* Same expression as the serial engine's [schedule_port_after]:
     bit-identical arrival times partitioned or not. *)
  Float.Array.unsafe_set t.out_arrival r (Engine.now t.src_engine +. t.delay_s);
  t.out_len <- r + 1;
  Packet.release t.src_pool pkt

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
      let pkt =
        Packet.import t.dst_pool t.out_ints (r * Packet.cell_ints) t.out_floats
          (r * Packet.cell_floats)
      in
      Engine.schedule_port_at t.dst_engine ~time:(Float.Array.get t.out_arrival r) t.deliver_port
        (pkt :> int)
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
      out_len = 0;
      out_ints = [||];
      out_floats = Float.Array.create 0;
      out_arrival = Float.Array.create 0;
      src_engine;
      src_pool;
      src_island = src;
      delay_s;
      egress;
      dst_engine;
      dst_pool;
      dst_island = dst;
      deliver_port = Engine.null_port;
      receiver = (fun _ -> invalid_arg "Boundary_link: receiver not set");
      propagating = 0;
      delivered = 0;
    }
  in
  t.deliver_port <- Packet.port dst_engine (on_deliver t);
  Link.set_handoff egress (fun pkt -> handoff t pkt);
  Pdes.note_lookahead coordinator delay_s;
  Pdes.on_drain dst (fun () -> drain t);
  t
