module Engine = Phi_sim.Engine
module Invariant = Phi_sim.Invariant
module Node = Phi_net.Node
module Packet = Phi_net.Packet
module Ring = Phi_sim.Ring

let dupthresh = 3

(* Scoreboard flags, one byte per outstanding segment in [board].
   [in_retx] mirrors membership in [retx], so no probe of the table is
   needed: it is set on a lost segment when its retransmission is added
   and cleared wherever the entry is removed. *)
let sacked = 1
let lost = 2
let in_retx = 4

(* Mutable floats live in [fs], one flat floatarray per sender:
   storing into a mutable float field of this mixed record would box a
   fresh float on every write — per ACK for the delivery watermark and
   RTT accounting, per transmission for the pacing clock — while a
   floatarray store is unboxed (same idiom as the engine clock and
   Rto; phi-lint [hot-float-field]). *)
let delivered_tx_high_i = 0
(* latest transmission time echoed by any ACK: everything sent earlier
   has either been delivered or dropped (paths are FIFO) *)

let next_send_at_i = 1 (* earliest paced transmission time *)
let rtt_sum_i = 2
let rtt_min_i = 3
let ecn_reaction_until_i = 4 (* ignore further ECE until this time *)
let started_at_i = 5
let finished_at_i = 6

let retx_min_i = 7
(* a lower bound on the send times in [retx]: set by an add into the
   empty table, tightened to the survivors' minimum by each requeue fold;
   later adds, sent no earlier, keep it a bound *)

let fs_slots = 8

type t = {
  engine : Engine.t;
  node : Node.t;
  pool : Packet.pool;
  flow : int;
  dst : int;
  cc : Cc.t;
  rto : Rto.t;
  total : int;
  source_index : int;
  on_complete : Flow.conn_stats -> unit;
  mutable started : bool;
  mutable completed : bool;
  mutable snd_una : int;  (* first unacknowledged segment *)
  mutable snd_nxt : int;  (* next new segment to send *)
  mutable highest_sent : int;  (* one past the highest segment ever sent *)
  (* SACK scoreboard: every marked seq lies in [snd_una, snd_nxt). *)
  board : Seq_ring.t;  (* [sacked]/[lost]/[in_retx] flags, based at [snd_una] *)
  retx : (int, float) Hashtbl.t;
      (* lost segments retransmitted and not yet cum-acked, mapped to the
         retransmission's send time (used to detect lost
         retransmissions).  A table, not the ring: the order
         [requeue_lost_retransmissions] requeues in is this table's fold
         order, which the benchmark's fingerprints pin.  Membership is
         the [in_retx] flag and [n_retx] its size, so the table is only
         ever added to, removed from, reset and folded — never probed. *)
  retx_queue : Ring.t;  (* lost segments awaiting retransmission *)
  mutable n_sacked : int;
  mutable n_lost : int;
  mutable n_retx : int;
  mutable highest_sacked : int;  (* one past the highest sacked seq, >= snd_una *)
  mutable loss_scan : int;  (* first seq not yet evaluated for loss *)
  fs : floatarray;  (* hot mutable floats; slots above *)
  mutable in_recovery : bool;
  mutable recover : int;  (* recovery ends when snd_una reaches this *)
  mutable send_timer : Engine.handle;  (* pending paced-send wakeup, or null *)
  mutable rto_handle : Engine.handle;  (* pending RTO, or null *)
  mutable rto_cb : unit -> unit;
      (* the RTO and paced-send callbacks, allocated once at create: the
         RTO re-arms on every ACK and a per-arm closure would be a
         per-ACK allocation *)
  mutable send_timer_cb : unit -> unit;
  mutable retransmitted : int;
  mutable timeouts : int;
  mutable rtt_count : int;
  mutable ecn_reductions : int;
  mutable cwnd_bound : float option;
      (* sanitizer upper bound (typically buffer + BDP in packets); None
         disables the upper check *)
  (* The last SACK-carrying ACK's blocks as [merge_sack] clipped them
     to [snd_una, snd_nxt), (0, 0) for none: every seq in them was
     SACKed then and still is, so the next merge skips them (see
     [merge_sack]).  One (lo, hi) pair per [Packet.max_sack_blocks] = 3,
     as plain int fields: no separate block to allocate or follow.  Last
     in the record, so the fields every ACK touches stay together. *)
  mutable merged_lo0 : int;
  mutable merged_hi0 : int;
  mutable merged_lo1 : int;
  mutable merged_hi1 : int;
  mutable merged_lo2 : int;
  mutable merged_hi2 : int;
}

(* Forced inline, like [record_rtt] and [on_ecn_echo]: a float that
   crosses a call boundary is boxed. *)
let[@inline] fget t i = Float.Array.get t.fs i
let[@inline] fset t i v = Float.Array.set t.fs i v

let persistent_total = max_int / 2

let cwnd t = t.cc.Cc.cwnd
let acked_segments t = t.snd_una
let sent_segments t = t.highest_sent
let retransmitted_segments t = t.retransmitted
let timeouts t = t.timeouts
let ecn_reductions t = t.ecn_reductions
let completed t = t.completed

let stats t =
  let finished_at = if t.completed then fget t finished_at_i else Engine.now t.engine in
  (* One record per [stats] call; callers sample at completion or at a
     coarse reporting cadence, never per event. *)
  { (* phi-lint: allow hot-alloc *)
    Flow.flow = t.flow;
    source_index = t.source_index;
    started_at = fget t started_at_i;
    finished_at;
    bytes = t.snd_una * Packet.mss;
    segments = t.snd_una;
    retransmitted_segments = t.retransmitted;
    timeouts = t.timeouts;
    rtt_samples = t.rtt_count;
    min_rtt = (if t.rtt_count > 0 then fget t rtt_min_i else nan);
    mean_rtt =
      (if t.rtt_count > 0 then fget t rtt_sum_i /. float_of_int t.rtt_count else nan);
  }

(* RFC 6675-style pipe: data sent minus data known to have left the
   network (sacked or deemed lost), plus retransmissions in flight. *)
let pipe t = t.snd_nxt - t.snd_una - t.n_sacked - t.n_lost + t.n_retx

let set_cwnd_bound t bound =
  if bound < 1. then invalid_arg "Sender.set_cwnd_bound: bound must be >= 1 packet";
  t.cwnd_bound <- Some bound

(* Sanitizer hook: a congestion window that is NaN, below one packet, or
   above the configured buffer+BDP bound silently corrupts the pacing of
   every later experiment. *)
let check_cwnd t =
  if Invariant.enabled () then begin
    let c = t.cc.Cc.cwnd in
    let now = Engine.now t.engine in
    if Float.is_nan c || c < 1. then
      Invariant.record ~rule:"cwnd-bound" ~time:now
        (Printf.sprintf "Sender flow %d: cwnd %g below 1 packet" t.flow c)
    else
      match t.cwnd_bound with
      | Some bound when c > bound ->
        Invariant.record ~rule:"cwnd-bound" ~time:now
          (Printf.sprintf "Sender flow %d: cwnd %g above bound %g" t.flow c bound)
      | _ -> ()
  end

let cancel_rto t =
  if not (Engine.is_null t.rto_handle) then begin
    Engine.cancel t.engine t.rto_handle;
    t.rto_handle <- Engine.null
  end

let cancel_send_timer t =
  if not (Engine.is_null t.send_timer) then begin
    Engine.cancel t.engine t.send_timer;
    t.send_timer <- Engine.null
  end

(* The [min_cwnd] floor lives here, not in each controller: after a loss
   event both the window and the threshold stay at or above two segments
   (RFC 5681), and after a timeout the window stays at or above one.  The
   [not (_ >= _)] form also repairs NaN from a buggy controller. *)
let clamp_after_loss t =
  let cc = t.cc in
  if not (cc.Cc.cwnd >= Cc.min_cwnd) then cc.Cc.cwnd <- Cc.min_cwnd;
  if not (cc.Cc.ssthresh >= Cc.min_cwnd) then cc.Cc.ssthresh <- Cc.min_cwnd

let clamp_after_timeout t =
  let cc = t.cc in
  if not (cc.Cc.cwnd >= 1.) then cc.Cc.cwnd <- 1.;
  if not (cc.Cc.ssthresh >= Cc.min_cwnd) then cc.Cc.ssthresh <- Cc.min_cwnd

let send_segment t seq =
  let retransmit = seq < t.highest_sent in
  if retransmit then t.retransmitted <- t.retransmitted + 1;
  let pkt =
    Packet.acquire_data t.pool ~flow:t.flow ~src:(Node.id t.node) ~dst:t.dst ~seq
      ~now:(Engine.now t.engine) ~retransmit
  in
  Node.receive t.node pkt;
  if seq >= t.highest_sent then t.highest_sent <- seq + 1

let clear_scoreboard t =
  Seq_ring.clear t.board;
  Hashtbl.reset t.retx;
  Ring.clear t.retx_queue;
  t.n_sacked <- 0;
  t.n_lost <- 0;
  t.n_retx <- 0;
  t.highest_sacked <- t.snd_una;
  t.loss_scan <- t.snd_una;
  (* The remembered SACK blocks name segments no longer marked. *)
  t.merged_lo0 <- 0;
  t.merged_hi0 <- 0;
  t.merged_lo1 <- 0;
  t.merged_hi1 <- 0;
  t.merged_lo2 <- 0;
  t.merged_hi2 <- 0

let mark_sacked t seq =
  if seq >= t.snd_una && seq < t.snd_nxt then begin
    let flags = Seq_ring.get t.board ~base:t.snd_una seq in
    if flags land sacked = 0 then begin
      Seq_ring.set t.board ~base:t.snd_una seq sacked;
      t.n_sacked <- t.n_sacked + 1;
      if flags land lost <> 0 then t.n_lost <- t.n_lost - 1;
      if flags land in_retx <> 0 then begin
        Hashtbl.remove t.retx seq;
        t.n_retx <- t.n_retx - 1
      end;
      if seq + 1 > t.highest_sacked then t.highest_sacked <- seq + 1
    end
  end

(* The end of the remembered block holding [seq], or [seq] when none
   holds it. *)
let[@inline] skip_merged t seq =
  if seq >= t.merged_lo0 && seq < t.merged_hi0 then t.merged_hi0
  else if seq >= t.merged_lo1 && seq < t.merged_hi1 then t.merged_hi1
  else if seq >= t.merged_lo2 && seq < t.merged_hi2 then t.merged_hi2
  else seq

(* The first start of a remembered block above [seq], capped at [hi]. *)
let[@inline] next_merged t seq hi =
  let stop = if t.merged_lo0 > seq && t.merged_lo0 < hi then t.merged_lo0 else hi in
  let stop = if t.merged_lo1 > seq && t.merged_lo1 < stop then t.merged_lo1 else stop in
  if t.merged_lo2 > seq && t.merged_lo2 < stop then t.merged_lo2 else stop

(* Mark [lo, hi) less the remembered blocks: jump over a remembered
   block, else mark up to where the next one starts. *)
let merge_block t lo hi =
  let seq = ref lo in
  while !seq < hi do
    let s = skip_merged t !seq in
    if s > !seq then seq := s
    else begin
      let stop = next_merged t s hi in
      for x = s to stop - 1 do
        mark_sacked t x
      done;
      seq := stop
    end
  done

(* Block [i] of an ACK carrying [n], clipped to [snd_una, snd_nxt) (it
   may come out empty), or the empty block (0, 0) past the last. *)
let[@inline] clipped_lo t pkt n i =
  if i < n then Int.max (Packet.sack_lo t.pool pkt i) t.snd_una else 0

let[@inline] clipped_hi t pkt n i =
  if i < n then Int.min (Packet.sack_hi t.pool pkt i) t.snd_nxt else 0

(* Mark every segment the ACK's inline SACK ranges cover, skipping the
   parts of each block that the previous SACK-carrying ACK's blocks
   already merged: a receiver repeats its blocks ACK after ACK, growing
   the newest by a segment or so, and marking an already SACKed segment
   changes nothing.  Sound because a SACKed seq at or above [snd_una]
   stays SACKed until [clear_scoreboard], which forgets the blocks too:
   [advance_una] clears only seqs below the new [snd_una], which the
   clipping excludes; [snd_nxt] only falls in [on_rto], after the
   clear; and no other path clears [sacked] ([detect_losses] marks only
   unflagged seqs, [try_send] and the requeue touch only lost ones).
   Every block is merged against the remembered ones before any is
   remembered.  An ACK without blocks, the loss-free case, leaves the
   remembered blocks as they are. *)
let merge_sack t pkt =
  let n = Packet.sack_count t.pool pkt in
  if n > 0 then begin
    for i = 0 to n - 1 do
      merge_block t (clipped_lo t pkt n i) (clipped_hi t pkt n i)
    done;
    t.merged_lo0 <- clipped_lo t pkt n 0;
    t.merged_hi0 <- clipped_hi t pkt n 0;
    t.merged_lo1 <- clipped_lo t pkt n 1;
    t.merged_hi1 <- clipped_hi t pkt n 1;
    t.merged_lo2 <- clipped_lo t pkt n 2;
    t.merged_hi2 <- clipped_hi t pkt n 2
  end

(* RACK-style rescue: the paths are FIFO, so once an ACK echoes a
   transmission time later than a retransmission's send time, that
   retransmission either arrived (and would have been SACKed or
   cumulatively ACKed by now) or was dropped.  If its segment is still
   outstanding, re-queue it instead of waiting for the RTO. *)
let requeue_lost_retransmissions t =
  (* Guarded on the table's size, so a loss-free ACK never folds (the
     fold's closure is an allocation), and on [retx_min_i]: while no
     retransmission was sent before the echoed transmission time, the
     fold would find nothing. *)
  if t.n_retx > 0 && fget t retx_min_i < fget t delivered_tx_high_i then begin
    fset t retx_min_i infinity;
    let stale =
      Hashtbl.fold (* phi-lint: allow hot-alloc *)
        (fun seq sent_at acc -> (* phi-lint: allow hot-alloc *)
          if sent_at < fget t delivered_tx_high_i then seq :: acc (* phi-lint: allow hot-alloc *)
          else begin
            if sent_at < fget t retx_min_i then fset t retx_min_i sent_at;
            acc
          end)
        t.retx []
    in
    List.iter
      (fun seq -> (* phi-lint: allow hot-alloc *)
        Hashtbl.remove t.retx seq;
        Seq_ring.set t.board ~base:t.snd_una seq
          (Seq_ring.get t.board ~base:t.snd_una seq land lnot in_retx);
        t.n_retx <- t.n_retx - 1;
        Ring.push t.retx_queue seq)
      stale
  end

(* A segment is deemed lost once the receiver holds data [dupthresh]
   segments above it (the SACK analogue of three duplicate ACKs). *)
let detect_losses t =
  while t.loss_scan < t.highest_sacked - dupthresh + 1 do
    let seq = t.loss_scan in
    if seq >= t.snd_una && Seq_ring.get t.board ~base:t.snd_una seq = 0 then begin
      Seq_ring.set t.board ~base:t.snd_una seq lost;
      t.n_lost <- t.n_lost + 1;
      Ring.push t.retx_queue seq
    end;
    t.loss_scan <- t.loss_scan + 1
  done

(* Drop scoreboard state for segments below the new cumulative ACK.  An
   empty scoreboard, the loss-free steady state, has nothing to drop. *)
let advance_una t new_una =
  if t.n_sacked + t.n_lost + t.n_retx > 0 then
    for seq = t.snd_una to new_una - 1 do
      let flags = Seq_ring.get t.board ~base:t.snd_una seq in
      if flags <> 0 then begin
        if flags land sacked <> 0 then t.n_sacked <- t.n_sacked - 1;
        if flags land lost <> 0 then t.n_lost <- t.n_lost - 1;
        if flags land in_retx <> 0 then begin
          Hashtbl.remove t.retx seq;
          t.n_retx <- t.n_retx - 1
        end;
        Seq_ring.set t.board ~base:t.snd_una seq 0
      end
    done;
  t.snd_una <- new_una;
  if t.highest_sacked < new_una then t.highest_sacked <- new_una;
  if t.loss_scan < new_una then t.loss_scan <- new_una

(* Next eligible lost segment to retransmit, or -1 when the queue holds
   none: a sentinel rather than an option, so the dequeue allocates
   nothing. *)
let rec next_retransmit t =
  if Ring.is_empty t.retx_queue then -1
  else begin
    let seq = Ring.pop t.retx_queue in
    if Seq_ring.get t.board ~base:t.snd_una seq land (lost lor in_retx) = lost then seq
    else next_retransmit t
  end

(* (Re)start the retransmission timer.  Every ACK that advances
   [snd_una] lands here, so the timer moves in place rather than being
   cancelled and scheduled afresh. *)
let rec arm_rto t =
  let delay = Rto.current t.rto in
  t.rto_handle <- Engine.rearm_after t.engine t.rto_handle ~delay t.rto_cb

and on_rto t =
  t.rto_handle <- Engine.null;
  if (not t.completed) && t.snd_una < t.total then begin
    t.timeouts <- t.timeouts + 1;
    Rto.backoff t.rto;
    t.cc.Cc.on_timeout t.cc ~now:(Engine.now t.engine);
    clamp_after_timeout t;
    t.in_recovery <- false;
    (* Conservative go-back-N: assume SACK state reneged, resume from the
       first unacknowledged segment. *)
    clear_scoreboard t;
    t.snd_nxt <- t.snd_una;
    try_send t;
    arm_rto t
  end

and try_send t =
  check_cwnd t;
  let now = Engine.now t.engine in
  let gap = t.cc.Cc.pacing_gap_s in
  let window = int_of_float (Float.max 1. t.cc.Cc.cwnd) in
  let progressed = ref false in
  let blocked = ref false in
  let continue = ref true in
  while !continue && pipe t < window do
    if
      gap > 0.
      && now < fget t next_send_at_i
      && ((not (Ring.is_empty t.retx_queue)) || t.snd_nxt < t.total)
    then begin
      blocked := true;
      continue := false
    end
    else begin
      let seq = next_retransmit t in
      if seq >= 0 then begin
        send_segment t seq;
        Hashtbl.add t.retx seq (Engine.now t.engine); (* phi-lint: allow hot-alloc *)
        (* ^ retransmission bookkeeping: runs only for lost segments,
           never in a loss-free steady state *)
        Seq_ring.set t.board ~base:t.snd_una seq
          (Seq_ring.get t.board ~base:t.snd_una seq lor in_retx);
        if t.n_retx = 0 then fset t retx_min_i (Engine.now t.engine);
        t.n_retx <- t.n_retx + 1;
        progressed := true;
        if gap > 0. then fset t next_send_at_i (Float.max now (fget t next_send_at_i) +. gap)
      end
      else if t.snd_nxt < t.total then begin
        send_segment t t.snd_nxt;
        t.snd_nxt <- t.snd_nxt + 1;
        progressed := true;
        if gap > 0. then fset t next_send_at_i (Float.max now (fget t next_send_at_i) +. gap)
      end
      else continue := false
    end
  done;
  if !progressed && Engine.is_null t.rto_handle then arm_rto t;
  if !blocked && Engine.is_null t.send_timer then begin
    let delay = Float.max 0. (fget t next_send_at_i -. now) in
    t.send_timer <- Engine.schedule_after t.engine ~delay t.send_timer_cb
  end

let complete t =
  t.completed <- true;
  fset t finished_at_i (Engine.now t.engine);
  cancel_rto t;
  cancel_send_timer t;
  Node.unbind_flow t.node ~flow:t.flow;
  let stats = stats t in
  Flow.sanitize stats;
  t.on_complete stats

let[@inline] record_rtt t sample =
  if sample > 0. then begin
    Rto.observe t.rto ~rtt:sample;
    t.rtt_count <- t.rtt_count + 1;
    fset t rtt_sum_i (fget t rtt_sum_i +. sample);
    if sample < fget t rtt_min_i then fset t rtt_min_i sample
  end

(* React to an ECN echo like a loss-based decrease, but at most once per
   RTT and without any retransmission (RFC 3168 semantics). *)
let[@inline] on_ecn_echo t ~now =
  if now >= fget t ecn_reaction_until_i then begin
    t.cc.Cc.on_loss t.cc ~now;
    clamp_after_loss t;
    t.ecn_reductions <- t.ecn_reductions + 1;
    fset t ecn_reaction_until_i (now +. Rto.srtt t.rto ~default:0.2)
  end

(* [pkt] must be an ACK handle; every field is read through the pooled
   accessors and nothing of the packet survives this call. *)
let on_ack t pkt =
  let now = Engine.now t.engine in
  let ack_seq = Packet.seq t.pool pkt in
  let has_echo = Packet.ack_has_echo t.pool pkt in
  let echo_sent_at = Packet.ack_echo_sent_at t.pool pkt in
  let tx_time = Packet.ack_echo_tx_time t.pool pkt in
  if Packet.ack_ece t.pool pkt then on_ecn_echo t ~now;
  if tx_time > fget t delivered_tx_high_i then fset t delivered_tx_high_i tx_time;
  (* A go-back-N controller repairs losses through the RTO alone: ignore
     the receiver's SACK blocks so the scoreboard stays empty and no fast
     retransmit ever fires. *)
  (match t.cc.Cc.recovery with Cc.Sack -> merge_sack t pkt | Cc.Go_back_n -> ());
  requeue_lost_retransmissions t;
  let newly_acked = Int.max 0 (ack_seq - t.snd_una) in
  if newly_acked > 0 then begin
    advance_una t ack_seq;
    if has_echo then record_rtt t (now -. echo_sent_at)
  end;
  detect_losses t;
  if t.in_recovery && t.snd_una >= t.recover then t.in_recovery <- false;
  if (not t.in_recovery) && t.n_lost > 0 then begin
    t.in_recovery <- true;
    t.recover <- t.snd_nxt;
    t.cc.Cc.on_loss t.cc ~now;
    clamp_after_loss t
  end;
  if newly_acked > 0 && not t.in_recovery then begin
    (* nan = no sample (see Cc.on_ack): a sentinel, not a [Some] box. *)
    let rtt = if has_echo then now -. echo_sent_at else Float.nan in
    t.cc.Cc.on_ack t.cc ~now ~rtt ~sent_at:echo_sent_at ~newly_acked
  end;
  if t.snd_una >= t.total then complete t
  else begin
    if newly_acked > 0 then arm_rto t;
    try_send t
  end

let on_packet t pkt =
  (* Senders only consume ACKs. *)
  if (not (Packet.is_data t.pool pkt)) && not t.completed then on_ack t pkt

let nop () = ()

let create engine ~node ~flow ~dst ~cc ~total_segments ?(source_index = 0)
    ?(on_complete = fun _ -> ()) () =
  if total_segments < 1 then invalid_arg "Sender.create: total_segments must be >= 1";
  let fs = Float.Array.create fs_slots in
  Float.Array.set fs delivered_tx_high_i neg_infinity;
  Float.Array.set fs next_send_at_i 0.;
  Float.Array.set fs rtt_sum_i 0.;
  Float.Array.set fs rtt_min_i infinity;
  Float.Array.set fs ecn_reaction_until_i neg_infinity;
  Float.Array.set fs started_at_i (Engine.now engine);
  Float.Array.set fs finished_at_i (Engine.now engine);
  Float.Array.set fs retx_min_i infinity;
  let t =
    {
      engine;
      node;
      pool = Node.pool node;
      flow;
      dst;
      cc;
      rto = Rto.create ();
      total = total_segments;
      source_index;
      on_complete;
      started = false;
      completed = false;
      snd_una = 0;
      snd_nxt = 0;
      highest_sent = 0;
      board = Seq_ring.create ();
      retx = Hashtbl.create 16;
      retx_queue = Ring.create ();
      n_sacked = 0;
      n_lost = 0;
      n_retx = 0;
      highest_sacked = 0;
      loss_scan = 0;
      in_recovery = false;
      recover = 0;
      fs;
      send_timer = Engine.null;
      rto_handle = Engine.null;
      rto_cb = nop;
      send_timer_cb = nop;
      retransmitted = 0;
      timeouts = 0;
      rtt_count = 0;
      ecn_reductions = 0;
      cwnd_bound = None;
      merged_lo0 = 0;
      merged_hi0 = 0;
      merged_lo1 = 0;
      merged_hi1 = 0;
      merged_lo2 = 0;
      merged_hi2 = 0;
    }
  in
  (* Allocate the timer callbacks once here; arming only stores them. *)
  t.rto_cb <- (fun () -> on_rto t);
  t.send_timer_cb <-
    (fun () ->
      t.send_timer <- Engine.null;
      if not t.completed then try_send t);
  Node.bind_flow node ~flow (on_packet t);
  t

let start t =
  if not t.started then begin
    t.started <- true;
    fset t started_at_i (Engine.now t.engine);
    try_send t
  end

let abort t =
  if not t.completed then begin
    t.completed <- true;
    fset t finished_at_i (Engine.now t.engine);
    cancel_rto t;
    cancel_send_timer t;
    Node.unbind_flow t.node ~flow:t.flow
  end

let in_retx_flag = in_retx

type scoreboard = {
  una : int;
  nxt : int;
  flags : int array;
  n_sacked : int;
  n_lost : int;
  n_retx : int;
  highest_sacked : int;
  retx : (int * float) list;
}

let scoreboard (t : t) =
  {
    una = t.snd_una;
    nxt = t.snd_nxt;
    flags =
      Array.init (Int.max 0 (t.snd_nxt - t.snd_una)) (fun i ->
          Seq_ring.get t.board ~base:t.snd_una (t.snd_una + i));
    n_sacked = t.n_sacked;
    n_lost = t.n_lost;
    n_retx = t.n_retx;
    highest_sacked = t.highest_sacked;
    retx = List.rev (Hashtbl.fold (fun seq sent_at acc -> (seq, sent_at) :: acc) t.retx []);
  }
