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
  (* The out-of-order segments held, as a sorted array of disjoint,
     non-adjacent runs [\[lo, hi)]: run [i] is [runs.(2i), runs.(2i+1)].
     Every run lies above [next_expected]: the in-order branch of
     [handle] consumes the first run as soon as it becomes contiguous. *)
  mutable runs : int array;
  mutable n_runs : int;
  recent : int array;  (* recently arrived out-of-order seqs, newest first *)
  mutable n_recent : int;
  mutable next_expected : int;
  mutable segments_received : int;
  mutable duplicate_segments : int;
}

let[@inline] run_lo t i = Array.unsafe_get t.runs (2 * i)
let[@inline] run_hi t i = Array.unsafe_get t.runs ((2 * i) + 1)

(* The first run ending above [seq] (binary search; [n_runs] when none
   does): the run holding [seq] if any, else where [seq] would go. *)
let run_after t seq =
  let lo = ref 0 and hi = ref t.n_runs in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if run_hi t mid <= seq then lo := mid + 1 else hi := mid
  done;
  !lo

let[@inline] holds t i seq = i < t.n_runs && run_lo t i <= seq

let[@inline] is_buffered t seq = holds t (run_after t seq) seq

(* Room for one more run, doubling out of line. *)
let[@inline never] grow_runs t =
  let runs = Array.make (Int.max 16 (2 * Array.length t.runs)) 0 in
  Array.blit t.runs 0 runs 0 (2 * t.n_runs);
  t.runs <- runs

(* Drop run [i], shifting the runs above it down. *)
let remove_run t i =
  Array.blit t.runs (2 * (i + 1)) t.runs (2 * i) (2 * (t.n_runs - i - 1));
  t.n_runs <- t.n_runs - 1

(* Insert [lo, hi) as run [i], shifting the runs from [i] up. *)
let insert_run t i ~lo ~hi =
  if 2 * (t.n_runs + 1) > Array.length t.runs then grow_runs t;
  Array.blit t.runs (2 * i) t.runs (2 * (i + 1)) (2 * (t.n_runs - i));
  t.runs.(2 * i) <- lo;
  t.runs.((2 * i) + 1) <- hi;
  t.n_runs <- t.n_runs + 1

(* Buffer [seq], which lies above [next_expected] and outside every
   run, merging it with the runs it touches so they stay maximal. *)
let buffer t seq =
  let i = run_after t seq in
  let joins_left = i > 0 && run_hi t (i - 1) = seq in
  let joins_right = i < t.n_runs && run_lo t i = seq + 1 in
  if joins_left && joins_right then begin
    t.runs.((2 * (i - 1)) + 1) <- run_hi t i;
    remove_run t i
  end
  else if joins_left then t.runs.((2 * (i - 1)) + 1) <- seq + 1
  else if joins_right then t.runs.(2 * i) <- seq
  else insert_run t i ~lo:seq ~hi:(seq + 1)

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
   ack's inline SACK fields, walking [recent] newest first: each block
   is the run holding that seq. *)
let rec emit_sack_blocks t ack k =
  if k < t.n_recent && Packet.sack_count t.pool ack < Packet.max_sack_blocks then begin
    let seq = t.recent.(k) in
    let i = run_after t seq in
    if holds t i seq then begin
      let lo = run_lo t i and hi = run_hi t i in
      if not (have_block t ack ~lo ~hi (Packet.sack_count t.pool ack - 1)) then
        Packet.add_sack t.pool ack ~lo ~hi
    end;
    emit_sack_blocks t ack (k + 1)
  end

(* Forced inline: its float arguments would be boxed at each of the
   three calls in [handle], once per data packet. *)
let[@inline] send_ack t ~has_echo ~echo_sent_at ~tx_time ~ece =
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
    if seq < t.next_expected || is_buffered t seq then begin
      (* Already have it: spurious retransmission; still ACK so the sender
         can make progress. *)
      t.duplicate_segments <- t.duplicate_segments + 1;
      send_ack t ~has_echo:false ~echo_sent_at:sent_at ~tx_time:sent_at ~ece
    end
    else begin
      t.segments_received <- t.segments_received + 1;
      if seq = t.next_expected then begin
        t.next_expected <- t.next_expected + 1;
        (* Advance over the first run once it has become contiguous. *)
        if t.n_runs > 0 && run_lo t 0 = t.next_expected then begin
          t.next_expected <- run_hi t 0;
          remove_run t 0
        end;
        t.n_recent <- compact t ~drop:min_int 0 0;
        (* No RTT echo on retransmissions (Karn's algorithm). *)
        send_ack t ~has_echo:(not retransmitted) ~echo_sent_at:sent_at ~tx_time:sent_at ~ece
      end
      else begin
        (* Out-of-order arrival: only reordered/lossy episodes buffer;
           in-order delivery never reaches this branch. *)
        buffer t seq;
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
      runs = [||];
      n_runs = 0;
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
