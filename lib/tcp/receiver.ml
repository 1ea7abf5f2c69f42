module Engine = Phi_sim.Engine
module Node = Phi_net.Node
module Packet = Phi_net.Packet

(* [recent] mirrors the cons-list it replaced: a fixed-capacity scratch
   array of recently arrived out-of-order seqs, newest first.  One extra
   slot beyond the retention cap lets [remember_recent] insert before
   truncating, exactly like the old [seq :: take (2 * max) keep]. *)
let recent_capacity = (Packet.max_sack_blocks * 2) + 1

type t = {
  engine : Engine.t;
  node : Node.t;
  pool : Packet.pool;
  flow : int;
  peer : int;
  buffered : (int, unit) Hashtbl.t;  (* received out-of-order segments *)
  recent : int array;  (* recently arrived out-of-order seqs, newest first *)
  mutable n_recent : int;
  mutable next_expected : int;
  mutable segments_received : int;
  mutable duplicate_segments : int;
}

(* Expand the contiguous buffered run containing a seq into a [lo, hi)
   block (two allocation-free int scans). *)
let rec block_lo t lo = if Hashtbl.mem t.buffered (lo - 1) then block_lo t (lo - 1) else lo
let rec block_hi t hi = if Hashtbl.mem t.buffered hi then block_hi t (hi + 1) else hi

(* Compact [recent] in place, keeping (in order) the seqs still above the
   cumulative ACK and distinct from [drop]; returns the new length.
   Pass [drop:min_int] to filter on [next_expected] alone. *)
let rec compact t ~drop i w =
  if i >= t.n_recent then w
  else begin
    let s = t.recent.(i) in
    if s <> drop && s >= t.next_expected then begin
      t.recent.(w) <- s;
      compact t ~drop (i + 1) (w + 1)
    end
    else compact t ~drop (i + 1) w
  end

let remember_recent t seq =
  let kept = compact t ~drop:seq 0 0 in
  let keep = Int.min kept (Packet.max_sack_blocks * 2) in
  for i = keep downto 1 do
    t.recent.(i) <- t.recent.(i - 1)
  done;
  t.recent.(0) <- seq;
  t.n_recent <- keep + 1

(* True when the ack already carries the [lo, hi) block among its first
   [j + 1] SACK ranges. *)
let rec have_block t ack ~lo ~hi j =
  j >= 0
  && ((Packet.sack_lo t.pool ack j = lo && Packet.sack_hi t.pool ack j = hi)
     || have_block t ack ~lo ~hi (j - 1))

(* Write up to [max_sack_blocks] deduplicated blocks straight into the
   ack's inline SACK fields, walking [recent] newest first — the same
   blocks, in the same order, as the old list-building collector. *)
let rec emit_sack_blocks t ack k =
  if k < t.n_recent && Packet.sack_count t.pool ack < Packet.max_sack_blocks then begin
    let seq = t.recent.(k) in
    if seq >= t.next_expected && Hashtbl.mem t.buffered seq then begin
      let lo = block_lo t seq in
      let hi = block_hi t (seq + 1) in
      if not (have_block t ack ~lo ~hi (Packet.sack_count t.pool ack - 1)) then
        Packet.add_sack t.pool ack ~lo ~hi
    end;
    emit_sack_blocks t ack (k + 1)
  end

let send_ack t ~has_echo ~echo_sent_at ~tx_time ~ece =
  let pkt =
    Packet.acquire_ack t.pool ~flow:t.flow ~src:(Node.id t.node) ~dst:t.peer
      ~next_expected:t.next_expected ~has_echo ~echo_sent_at ~echo_tx_time:tx_time ~ece
      ~now:(Engine.now t.engine)
  in
  emit_sack_blocks t pkt 0;
  Node.receive t.node pkt

let handle t pkt =
  if Packet.is_data t.pool pkt then begin
    (* Copy every field out before replying: the handle dies when this
       handler returns. *)
    let seq = Packet.seq t.pool pkt in
    let sent_at = Packet.sent_at t.pool pkt in
    let ece = Packet.ce t.pool pkt in
    let retransmitted = Packet.retransmit t.pool pkt in
    if seq < t.next_expected || Hashtbl.mem t.buffered seq then begin
      (* Already have it: spurious retransmission; still ACK so the sender
         can make progress. *)
      t.duplicate_segments <- t.duplicate_segments + 1;
      send_ack t ~has_echo:false ~echo_sent_at:sent_at ~tx_time:sent_at ~ece
    end
    else begin
      t.segments_received <- t.segments_received + 1;
      if seq = t.next_expected then begin
        t.next_expected <- t.next_expected + 1;
        (* Advance over any previously buffered run. *)
        while Hashtbl.mem t.buffered t.next_expected do
          Hashtbl.remove t.buffered t.next_expected;
          t.next_expected <- t.next_expected + 1
        done;
        t.n_recent <- compact t ~drop:min_int 0 0;
        (* No RTT echo on retransmissions (Karn's algorithm). *)
        send_ack t ~has_echo:(not retransmitted) ~echo_sent_at:sent_at ~tx_time:sent_at ~ece
      end
      else begin
        (* Out-of-order arrival: only reordered/lossy episodes buffer;
           in-order delivery never reaches this branch. *)
        Hashtbl.add t.buffered seq (); (* phi-lint: allow hot-alloc *)
        remember_recent t seq;
        (* Duplicate ACK: cumulative number unchanged, SACK describes the
           hole; no RTT echo. *)
        send_ack t ~has_echo:false ~echo_sent_at:sent_at ~tx_time:sent_at ~ece
      end
    end
  end

let create engine ~node ~flow ~peer =
  let t =
    {
      engine;
      node;
      pool = Node.pool node;
      flow;
      peer;
      buffered = Hashtbl.create 64;
      recent = Array.make recent_capacity 0;
      n_recent = 0;
      next_expected = 0;
      segments_received = 0;
      duplicate_segments = 0;
    }
  in
  Node.bind_flow node ~flow (handle t);
  t

let next_expected t = t.next_expected
let segments_received t = t.segments_received
let duplicate_segments t = t.duplicate_segments
let close t = Node.unbind_flow t.node ~flow:t.flow
