module Engine = Phi_sim.Engine
module Invariant = Phi_sim.Invariant
module Node = Phi_net.Node
module Packet = Phi_net.Packet
module Ring = Phi_sim.Ring

let dupthresh = 3

(* Scoreboard flags, one byte per outstanding segment in [board]. *)
let sacked = 1
let lost = 2

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
  board : Seq_ring.t;  (* [sacked]/[lost] flags, based at [snd_una] *)
  retx : (int, float) Hashtbl.t;
      (* lost segments retransmitted and not yet cum-acked, mapped to the
         retransmission's send time (used to detect lost
         retransmissions).  A table, not the ring: the order
         [requeue_lost_retransmissions] requeues in is this table's fold
         order, which the benchmark's fingerprints pin.  [n_retx] is its
         size, so every probe sits behind [n_retx > 0]. *)
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
}

(* Forced inline, like [record_rtt] and [on_ecn_echo]: a float that
   crosses a call boundary is boxed. *)
let[@inline] fget t i = Float.Array.get t.fs i
let[@inline] fset t i v = Float.Array.set t.fs i v

let persistent_total = max_int / 2

let cwnd t = t.cc.Cc.cwnd
let in_recovery t = t.in_recovery
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
  t.loss_scan <- t.snd_una

let mark_sacked t seq =
  if seq >= t.snd_una && seq < t.snd_nxt then begin
    let flags = Seq_ring.get t.board ~base:t.snd_una seq in
    if flags land sacked = 0 then begin
      Seq_ring.set t.board ~base:t.snd_una seq sacked;
      t.n_sacked <- t.n_sacked + 1;
      if flags land lost <> 0 then t.n_lost <- t.n_lost - 1;
      if t.n_retx > 0 && Hashtbl.mem t.retx seq then begin
        Hashtbl.remove t.retx seq;
        t.n_retx <- t.n_retx - 1
      end;
      if seq + 1 > t.highest_sacked then t.highest_sacked <- seq + 1
    end
  end

(* Mark every segment the ACK's inline SACK ranges cover. *)
let merge_sack t pkt =
  for i = 0 to Packet.sack_count t.pool pkt - 1 do
    let lo = Int.max (Packet.sack_lo t.pool pkt i) t.snd_una
    and hi = Int.min (Packet.sack_hi t.pool pkt i) t.snd_nxt in
    for seq = lo to hi - 1 do
      mark_sacked t seq
    done
  done

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
        Seq_ring.set t.board ~base:t.snd_una seq 0
      end;
      if t.n_retx > 0 && Hashtbl.mem t.retx seq then begin
        Hashtbl.remove t.retx seq;
        t.n_retx <- t.n_retx - 1
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
    if
      Seq_ring.get t.board ~base:t.snd_una seq land lost <> 0
      && not (t.n_retx > 0 && Hashtbl.mem t.retx seq)
    then seq
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
