module Engine = Phi_sim.Engine
module Invariant = Phi_sim.Invariant
module Stats = Phi_util.Stats

(* {2 Per-path committed state}

   The utilization window is a ring of per-epoch byte buckets instead of
   a pruned report list: a report's bytes are spread uniformly over the
   epochs its transfer interval covers, and the windowed rate is the
   overlap-weighted sum of the buckets inside [now - window_s, now].
   Nothing is ever pruned with an allocation — expiry is the ring slot
   being overwritten or weighted to zero. *)

type path_state = {
  mutable active : int;
  mutable win_newest : int;  (* newest epoch represented in [win] *)
  win : floatarray;  (* bytes per epoch, indexed by [epoch mod n_buckets] *)
  q_ewma : Stats.ewma;
  loss_ewma : Stats.ewma;
  mutable learned_capacity : float;
  mutable last_touch : int;  (* epoch of the last flush that touched this path *)
}

(* {2 Per-shard pending aggregation}

   Reports and connection-start registrations coalesce here between
   epoch flushes; nothing touches [path_state] per message.  An [agg]
   lives for one flush interval and is dropped wholesale at the flush —
   in particular, lookup-only traffic on prefixes that never report
   leaves no committed state behind. *)

type agg = {
  mutable p_active : int;  (* lookups minus reports since the last flush *)
  p_created : int;  (* epoch the aggregate was opened (scan decay clock) *)
  mutable p_reports : int;
  mutable p_report_epoch : int;  (* epoch of this batch's reports, -1 if none *)
  mutable p_win_newest : int;
  p_win : floatarray;
  mutable p_q_sum : float;
  mutable p_q_n : int;
  mutable p_loss_sum : float;
  mutable p_loss_n : int;
}

type shard = {
  paths : (string, path_state) Hashtbl.t;
  pending : (string, agg) Hashtbl.t;
  mutable epoch : int;  (* epoch through which reports are committed *)
  mutable next_sweep : int;  (* next TTL sweep, in epochs *)
  mutable s_lookups : int;
  mutable s_reports : int;
  mutable s_evictions : int;
  mutable s_flushes : int;
}

type shard_stat = {
  lookups : int;
  reports : int;
  resident : int;
  evictions : int;
  flushes : int;
}

type t = {
  engine : Engine.t;
  capacity_bps : float option;
  window_s : float;
  epoch_s : float;
  n_buckets : int;
  shards : shard array;
  max_paths : int;  (* per shard *)
  ttl_epochs : int;
  mutable lookups : int;
  mutable reports : int;
}

let create engine ?capacity_bps ?(window_s = 10.) ?(epoch_s = 1.) ?(shards = 1)
    ?(max_paths_per_shard = 65536) ?(ttl_epochs = 600) () =
  if window_s <= 0. then invalid_arg "Context_server.create: window must be positive";
  if epoch_s <= 0. then invalid_arg "Context_server.create: epoch must be positive";
  if shards < 1 then invalid_arg "Context_server.create: need at least one shard";
  if max_paths_per_shard < 1 then invalid_arg "Context_server.create: need path capacity";
  if ttl_epochs < 1 then invalid_arg "Context_server.create: ttl must be positive";
  (match capacity_bps with
  | Some c when c <= 0. -> invalid_arg "Context_server.create: capacity must be positive"
  | _ -> ());
  let n_buckets = int_of_float (Float.ceil (window_s /. epoch_s)) + 1 in
  let shard () =
    {
      paths = Hashtbl.create 64;
      pending = Hashtbl.create 64;
      epoch = 0;
      next_sweep = ttl_epochs;
      s_lookups = 0;
      s_reports = 0;
      s_evictions = 0;
      s_flushes = 0;
    }
  in
  {
    engine;
    capacity_bps;
    window_s;
    epoch_s;
    n_buckets;
    shards = Array.init shards (fun _ -> shard ());
    max_paths = max_paths_per_shard;
    ttl_epochs;
    lookups = 0;
    reports = 0;
  }

let shard_count t = Array.length t.shards

(* FNV-1a over the prefix, reduced mod the shard count: stable across
   runs and processes (the swarm's jobs-invariance rests on it). *)
let prefix_hash path =
  let h = ref 0x811c9dc5 in
  String.iter (fun ch -> h := (!h lxor Char.code ch) * 0x01000193 land 0xffffffff) path;
  !h

let shard_of t path =
  let n = Array.length t.shards in
  if n = 1 then t.shards.(0) else t.shards.(prefix_hash path mod n)

let current_epoch t = int_of_float (Engine.now t.engine /. t.epoch_s)

(* {2 Epoch-bucket rings} *)

(* Advance a ring so [to_e] is representable, zeroing the slots the
   window slides over.  Returns the new newest epoch. *)
let ring_advance t slots ~newest ~to_e =
  if to_e > newest then begin
    if to_e - newest >= t.n_buckets then Float.Array.fill slots 0 t.n_buckets 0.
    else
      for e = newest + 1 to to_e do
        Float.Array.set slots (e mod t.n_buckets) 0.
      done;
    to_e
  end
  else newest

(* Attribute [bytes] uniformly over the transfer interval
   [finished_at - duration_s, finished_at], clipped to the epochs the
   ring still holds.  The ring must already be advanced to [now_e]. *)
let ring_add t slots ~now_e ~finished_at ~bytes ~duration_s =
  let lo = finished_at -. duration_s in
  let oldest = Stdlib.max 0 (now_e - t.n_buckets + 1) in
  let e_lo = Stdlib.max oldest (int_of_float (lo /. t.epoch_s)) in
  let fbytes = float_of_int bytes in
  for e = e_lo to now_e do
    let b_lo = float_of_int e *. t.epoch_s and b_hi = float_of_int (e + 1) *. t.epoch_s in
    let o_lo = Float.max lo b_lo and o_hi = Float.min finished_at b_hi in
    if o_hi > o_lo then begin
      let i = e mod t.n_buckets in
      Float.Array.set slots i
        (Float.Array.get slots i +. (fbytes *. ((o_hi -. o_lo) /. duration_s)))
    end
  done

(* Overlap-weighted bytes of the ring inside [now - window_s, now]. *)
let ring_window_bytes t slots ~newest ~now =
  let lo = now -. t.window_s in
  let acc = ref 0. in
  for i = 0 to t.n_buckets - 1 do
    let e = newest - i in
    if e >= 0 then begin
      let v = Float.Array.get slots (e mod t.n_buckets) in
      if v > 0. then begin
        let b_lo = float_of_int e *. t.epoch_s and b_hi = float_of_int (e + 1) *. t.epoch_s in
        let o_lo = Float.max b_lo lo and o_hi = Float.min b_hi now in
        if o_hi > o_lo then acc := !acc +. (v *. ((o_hi -. o_lo) /. t.epoch_s))
      end
    end
  done;
  !acc

(* {2 Flush: commit a shard's pending batch} *)

(* [epoch] seeds only the LRU clock; the window ring starts at 0 so its
   advancement (and thus committed window content) is a function of
   report epochs alone, not of when the path first got flushed. *)
let fresh_state t ~epoch =
  {
    active = 0;
    win_newest = 0;
    win = Float.Array.make t.n_buckets 0.;
    q_ewma = Stats.ewma ~alpha:0.2;
    loss_ewma = Stats.ewma ~alpha:0.2;
    learned_capacity = 0.;
    last_touch = epoch;
  }

(* Commit one pending batch into committed state.  Everything here is a
   function of the batch's own timestamps, never of when the flush runs:
   a shard's flush schedule depends on its co-resident paths, and the
   committed state per path must not (that is the sharding-transparency
   property the test suite holds against a single-shard reference). *)
let merge_agg t ~now_e st agg =
  st.active <- Stdlib.max 0 (st.active + agg.p_active);
  st.last_touch <- now_e;
  if agg.p_reports > 0 then begin
    st.win_newest <-
      ring_advance t st.win ~newest:st.win_newest
        ~to_e:(Stdlib.max st.win_newest agg.p_report_epoch);
    let floor_e = st.win_newest - t.n_buckets + 1 in
    for i = 0 to t.n_buckets - 1 do
      let e = agg.p_win_newest - i in
      if e >= 0 && e >= floor_e then begin
        let v = Float.Array.get agg.p_win (e mod t.n_buckets) in
        if v > 0. then begin
          let j = e mod t.n_buckets in
          Float.Array.set st.win j (Float.Array.get st.win j +. v)
        end
      end
    done;
    (* Without a configured capacity, the peak windowed rate is the best
       available capacity estimate — evaluated at the close of the
       batch's epoch, not at flush time. *)
    (match t.capacity_bps with
    | Some _ -> ()
    | None ->
      let eval_now = float_of_int (agg.p_report_epoch + 1) *. t.epoch_s in
      let rate =
        ring_window_bytes t st.win ~newest:st.win_newest ~now:eval_now *. 8. /. t.window_s
      in
      st.learned_capacity <- Float.max st.learned_capacity rate)
  end;
  if agg.p_q_n > 0 then Stats.ewma_update_n st.q_ewma (agg.p_q_sum /. float_of_int agg.p_q_n) ~n:agg.p_q_n;
  if agg.p_loss_n > 0 then
    Stats.ewma_update_n st.loss_ewma (agg.p_loss_sum /. float_of_int agg.p_loss_n) ~n:agg.p_loss_n

(* Decay/LRU eviction.  A TTL pass drops prefixes idle for more than
   [ttl_epochs]; if the shard is still over its path budget, the
   least-recently-touched prefixes go next (ties broken by name so
   eviction is deterministic). *)
let evict t shard ~now_e =
  shard.next_sweep <- now_e + t.ttl_epochs;
  let dead =
    Hashtbl.fold
      (fun path st acc -> if now_e - st.last_touch > t.ttl_epochs then path :: acc else acc)
      shard.paths []
  in
  List.iter (fun path -> Hashtbl.remove shard.paths path) dead;
  shard.s_evictions <- shard.s_evictions + List.length dead;
  let over = Hashtbl.length shard.paths - t.max_paths in
  if over > 0 then begin
    let arr =
      Array.of_list (Hashtbl.fold (fun path st acc -> (st.last_touch, path) :: acc) shard.paths [])
    in
    Array.sort
      (fun (ta, pa) (tb, pb) ->
        match Int.compare ta tb with 0 -> String.compare pa pb | c -> c)
      arr;
    let n = Stdlib.min over (Array.length arr) in
    for i = 0 to n - 1 do
      Hashtbl.remove shard.paths (snd arr.(i))
    done;
    shard.s_evictions <- shard.s_evictions + n
  end

let flush_shard t shard =
  let now_e = current_epoch t in
  if Hashtbl.length shard.pending > 0 then begin
    shard.s_flushes <- shard.s_flushes + 1;
    let carry = ref [] in
    Hashtbl.iter
      (fun path agg ->
        match Hashtbl.find_opt shard.paths path with
        | Some st -> merge_agg t ~now_e st agg
        | None ->
          if agg.p_reports > 0 then begin
            let st = fresh_state t ~epoch:now_e in
            merge_agg t ~now_e st agg;
            Hashtbl.add shard.paths path st
          end
          else if agg.p_active > 0 && now_e - agg.p_created <= t.ttl_epochs then
            (* An unknown prefix with open connections but no report yet:
               keep it pending (its eventual report closes the loop) —
               but never commit it.  Past the ttl it is a scan, not a
               connection, and is dropped: lookups on never-reported
               prefixes must not grow any table without bound. *)
            carry := (path, agg) :: !carry)
      shard.pending;
    Hashtbl.reset shard.pending;
    List.iter (fun (path, agg) -> Hashtbl.add shard.pending path agg) !carry
  end;
  shard.epoch <- now_e;
  if now_e >= shard.next_sweep || Hashtbl.length shard.paths > t.max_paths then
    evict t shard ~now_e

let flush t = Array.iter (fun shard -> flush_shard t shard) t.shards

(* Commit the shard when its snapshot is older than the caller
   tolerates: staleness 0 flushes at every epoch boundary, staleness k
   lets k epochs of reports pool up in the batch buffer. *)
let refresh t shard ~max_staleness =
  if current_epoch t - shard.epoch > Stdlib.max 0 max_staleness then flush_shard t shard

(* {2 Context views} *)

let pending_agg t shard path =
  match Hashtbl.find_opt shard.pending path with
  | Some agg -> agg
  | None ->
    let agg =
      {
        p_active = 0;
        p_created = current_epoch t;
        p_reports = 0;
        p_report_epoch = -1;
        p_win_newest = current_epoch t;
        p_win = Float.Array.make t.n_buckets 0.;
        p_q_sum = 0.;
        p_q_n = 0;
        p_loss_sum = 0.;
        p_loss_n = 0;
      }
    in
    Hashtbl.add shard.pending path agg;
    agg

let merged_rate t ~now st_opt agg_opt =
  let bytes =
    (match st_opt with
    | Some st -> ring_window_bytes t st.win ~newest:st.win_newest ~now
    | None -> 0.)
    +.
    match agg_opt with
    | Some agg when agg.p_reports > 0 ->
      ring_window_bytes t agg.p_win ~newest:agg.p_win_newest ~now
    | Some _ | None -> 0.
  in
  bytes *. 8. /. t.window_s

(* The freshness-0 view: committed state overlaid with the shard's
   pending batch for this prefix, computed without committing either. *)
let merged_context t ~now st_opt agg_opt =
  let utilization =
    let rate = merged_rate t ~now st_opt agg_opt in
    let cap =
      match t.capacity_bps with
      | Some c -> c
      | None ->
        let learned = match st_opt with Some st -> st.learned_capacity | None -> 0. in
        let learned = Float.max learned rate in
        if learned > 0. then learned else infinity
    in
    if not (Float.is_finite cap) then 0. else Float.min 1. (rate /. cap)
  in
  let preview ewma_of sum n =
    let mean = sum /. float_of_int n in
    match st_opt with
    | Some st -> Stats.ewma_next (ewma_of st) mean ~n
    | None -> mean
  in
  let queue_delay_s =
    match agg_opt with
    | Some agg when agg.p_q_n > 0 -> preview (fun st -> st.q_ewma) agg.p_q_sum agg.p_q_n
    | Some _ | None -> (
      match st_opt with
      | Some st -> Stats.ewma_value_or st.q_ewma ~default:0.
      | None -> 0.)
  in
  let loss_rate =
    match agg_opt with
    | Some agg when agg.p_loss_n > 0 ->
      preview (fun st -> st.loss_ewma) agg.p_loss_sum agg.p_loss_n
    | Some _ | None -> (
      match st_opt with
      | Some st -> Stats.ewma_value_or st.loss_ewma ~default:0.
      | None -> 0.)
  in
  let committed_active = match st_opt with Some st -> st.active | None -> 0 in
  let pending_active = match agg_opt with Some agg -> agg.p_active | None -> 0 in
  {
    Context.utilization;
    queue_delay_s;
    competing_senders = Stdlib.max 0 (committed_active + pending_active);
    loss_rate;
  }

(* The committed-only view served to staleness-tolerant lookups: no
   pending overlay, so the answer reflects exactly the data committed
   through the shard's epoch (the window itself still slides to [now]). *)
let committed_context t ~now st = merged_context t ~now (Some st) None

(* {2 The service API} *)

let lookup_epoch ?(max_staleness = 0) t ~path =
  t.lookups <- t.lookups + 1;
  let shard = shard_of t path in
  shard.s_lookups <- shard.s_lookups + 1;
  refresh t shard ~max_staleness;
  let now = Engine.now t.engine in
  let answer =
    if max_staleness <= 0 then
      ( merged_context t ~now
          (Hashtbl.find_opt shard.paths path)
          (Hashtbl.find_opt shard.pending path),
        current_epoch t )
    else
      match Hashtbl.find_opt shard.paths path with
      | Some st -> (committed_context t ~now st, shard.epoch)
      | None -> (Context.empty, shard.epoch)
  in
  (* Register the connection start; committed with the next flush. *)
  let agg = pending_agg t shard path in
  agg.p_active <- agg.p_active + 1;
  answer

let lookup ?max_staleness t ~path = fst (lookup_epoch ?max_staleness t ~path)

(* Sanitizer hook: reject-and-record NaN/Inf or out-of-range metrics
   before they reach the aggregation buffers.  The guards in [report]
   below already skip such values silently; with PHI_SANITIZE=1 the skip
   becomes a recorded violation.  A min/mean RTT pair that is entirely
   NaN is the legitimate "no RTT samples" sentinel. *)
let sanitize_report t ~path ~bytes ~duration_s ~min_rtt ~mean_rtt ~retransmitted ~segments =
  if Invariant.enabled () then begin
    let now = Engine.now t.engine in
    let bad rule detail = Invariant.record ~rule ~time:now detail in
    if bytes < 0 then bad "metric-range" (Printf.sprintf "report on %s: %d bytes" path bytes);
    if retransmitted < 0 || segments < 0 then
      bad "metric-range" (Printf.sprintf "report on %s: negative segment counts" path);
    if not (Float.is_finite duration_s) || duration_s < 0. then
      bad "metric-finite" (Printf.sprintf "report on %s: duration %g" path duration_s);
    match (Float.is_nan min_rtt, Float.is_nan mean_rtt) with
    | true, true -> ()
    | false, false ->
      if not (Float.is_finite min_rtt && Float.is_finite mean_rtt) then
        bad "metric-finite"
          (Printf.sprintf "report on %s: rtt min=%g mean=%g" path min_rtt mean_rtt)
      else if min_rtt -. mean_rtt > 1e-9 *. min_rtt then
        (* Tolerance: a mean over n equal samples can round an ulp or two
           below the min; only a materially smaller mean is a violation. *)
        bad "metric-range"
          (Printf.sprintf "report on %s: mean rtt %g below min %g" path mean_rtt min_rtt)
    | _ ->
      bad "metric-finite"
        (Printf.sprintf "report on %s: rtt pair min=%g mean=%g" path min_rtt mean_rtt)
  end

let report t ~path ~bytes ~duration_s ~min_rtt ~mean_rtt ~retransmitted ~segments =
  sanitize_report t ~path ~bytes ~duration_s ~min_rtt ~mean_rtt ~retransmitted ~segments;
  t.reports <- t.reports + 1;
  let shard = shard_of t path in
  shard.s_reports <- shard.s_reports + 1;
  refresh t shard ~max_staleness:0;
  let now = Engine.now t.engine in
  let now_e = current_epoch t in
  let agg = pending_agg t shard path in
  agg.p_active <- agg.p_active - 1;
  agg.p_reports <- agg.p_reports + 1;
  agg.p_report_epoch <- now_e;
  if bytes > 0 && duration_s > 0. then begin
    agg.p_win_newest <- ring_advance t agg.p_win ~newest:agg.p_win_newest ~to_e:now_e;
    ring_add t agg.p_win ~now_e ~finished_at:now ~bytes ~duration_s
  end;
  let queueing = mean_rtt -. min_rtt in
  if Float.is_finite queueing && queueing >= 0. then begin
    agg.p_q_sum <- agg.p_q_sum +. queueing;
    agg.p_q_n <- agg.p_q_n + 1
  end;
  if segments > 0 then begin
    (* Retransmissions can outnumber delivered segments (multiple copies
       of one segment); as a loss-rate proxy the ratio is clamped. *)
    agg.p_loss_sum <-
      agg.p_loss_sum +. Float.min 1. (float_of_int retransmitted /. float_of_int segments);
    agg.p_loss_n <- agg.p_loss_n + 1
  end

let report_stats t ~path (stats : Phi_tcp.Flow.conn_stats) =
  report t ~path ~bytes:stats.bytes
    ~duration_s:(Phi_tcp.Flow.duration stats)
    ~min_rtt:stats.min_rtt ~mean_rtt:stats.mean_rtt
    ~retransmitted:stats.retransmitted_segments ~segments:stats.segments

let peek t ~path =
  let shard = shard_of t path in
  refresh t shard ~max_staleness:0;
  merged_context t ~now:(Engine.now t.engine)
    (Hashtbl.find_opt shard.paths path)
    (Hashtbl.find_opt shard.pending path)

let handle t req =
  match req with
  | Context_wire.Lookup { path; max_staleness } ->
    let ctx, epoch = lookup_epoch t ~max_staleness ~path in
    Context_wire.Context_of { ctx; epoch }
  | Context_wire.Report { path; bytes; duration_s; min_rtt; mean_rtt; retransmitted; segments }
    ->
    report t ~path ~bytes ~duration_s ~min_rtt ~mean_rtt ~retransmitted ~segments;
    Context_wire.Accepted { epoch = (shard_of t path).epoch }

let active_connections t ~path =
  let shard = shard_of t path in
  refresh t shard ~max_staleness:0;
  let committed =
    match Hashtbl.find_opt shard.paths path with Some st -> st.active | None -> 0
  in
  let pending =
    match Hashtbl.find_opt shard.pending path with Some agg -> agg.p_active | None -> 0
  in
  Stdlib.max 0 (committed + pending)

let lookup_count t = t.lookups

let report_count t = t.reports

let learned_capacity_bps t ~path =
  match t.capacity_bps with
  | Some _ -> None
  | None ->
    let shard = shard_of t path in
    refresh t shard ~max_staleness:0;
    let st_opt = Hashtbl.find_opt shard.paths path in
    let rate = merged_rate t ~now:(Engine.now t.engine) st_opt (Hashtbl.find_opt shard.pending path) in
    let learned =
      Float.max rate (match st_opt with Some st -> st.learned_capacity | None -> 0.)
    in
    if learned > 0. then Some learned else None

(* {2 Introspection (benchmarks, eviction tests, the swarm harness)} *)

let resident_paths t =
  Array.fold_left (fun acc shard -> acc + Hashtbl.length shard.paths) 0 t.shards

let pending_paths t =
  Array.fold_left (fun acc shard -> acc + Hashtbl.length shard.pending) 0 t.shards

let eviction_count t =
  Array.fold_left (fun acc shard -> acc + shard.s_evictions) 0 t.shards

let flush_count t = Array.fold_left (fun acc shard -> acc + shard.s_flushes) 0 t.shards

let shard_stats t =
  Array.map
    (fun shard ->
      {
        lookups = shard.s_lookups;
        reports = shard.s_reports;
        resident = Hashtbl.length shard.paths;
        evictions = shard.s_evictions;
        flushes = shard.s_flushes;
      })
    t.shards
