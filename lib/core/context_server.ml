module Engine = Phi_sim.Engine
module Invariant = Phi_sim.Invariant
module Stats = Phi_util.Stats

type shard_stat = {
  lookups : int;
  reports : int;
  resident : int;
  evictions : int;
  flushes : int;
}

(* {2 Per-prefix entries}

   A shard keeps one table keyed by prefix.  Its entry holds the
   prefix's committed state and its open batch: the reports and
   connection-start registrations that coalesce between epoch flushes,
   so nothing touches the committed half per message.

   The utilization window is a ring of per-epoch byte buckets instead of
   a pruned report list: a report's bytes are spread uniformly over the
   epochs its transfer interval covers, and the windowed rate is the
   overlap-weighted sum of the buckets inside [now - window_s, now].
   Nothing is ever pruned with an allocation — expiry is the ring slot
   being overwritten or weighted to zero.  The batch has a ring of its
   own, merged into the committed one at the flush.

   An entry is [resident] once a flush has committed a report for it.
   Until then its committed half is untouched (zero rings and counts,
   unseen EWMAs), so every view reads it as "nothing committed" — in
   particular, lookup-only traffic on prefixes that never report leaves
   no committed state behind.  An entry is [batch_open] while its batch is
   open; a closed batch holds no registrations and no reports. *)

type entry = {
  key : string;
  mutable resident : bool;
  (* committed state *)
  mutable active : int;
  mutable win_newest : int;  (* newest epoch represented in [win] *)
  win : floatarray;  (* bytes per epoch, indexed by [epoch mod n_buckets] *)
  q_ewma : Stats.ewma;
  loss_ewma : Stats.ewma;
  mutable learned_capacity : float;
  mutable last_touch : int;  (* epoch of the last flush that touched this prefix *)
  (* the open batch *)
  mutable batch_open : bool;  (* the entry is on its shard's dirty list *)
  mutable p_active : int;  (* lookups minus reports since the last flush *)
  mutable p_created : int;  (* epoch the batch was opened (scan decay clock) *)
  mutable p_reports : int;
  mutable p_report_epoch : int;  (* epoch of this batch's reports, -1 if none *)
  mutable p_win_newest : int;
  p_win : floatarray;
  mutable p_q_sum : float;
  mutable p_q_n : int;
  mutable p_loss_sum : float;
  mutable p_loss_n : int;
}

module Table = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type shard = {
  table : entry Table.t;
  mutable dirty : entry list;  (* the entries with an open batch *)
  mutable n_resident : int;
  mutable epoch : int;  (* epoch through which reports are committed *)
  mutable next_sweep : int;  (* next TTL sweep, in epochs *)
  mutable s_lookups : int;
  mutable s_reports : int;
  mutable s_evictions : int;
  mutable s_flushes : int;
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

let check_positive_finite field v =
  if not (v > 0. && Float.is_finite v) then
    invalid_arg
      (Printf.sprintf "Context_server.create: %s must be positive and finite, got %g" field v)

(* Every prefix holds two window rings of [window_s / epoch_s] + 2
   buckets at most; every configuration here spans at most 10 epochs. *)
let max_window_epochs = 1024

let create engine ?capacity_bps ?(window_s = 10.) ?(epoch_s = 1.) ?(shards = 1)
    ?(max_paths_per_shard = 65536) ?(ttl_epochs = 600) () =
  check_positive_finite "window_s" window_s;
  check_positive_finite "epoch_s" epoch_s;
  (* Checked on the float ratio, before [int_of_float]: a ratio past
     2^62 has no int, and one past the cap would size each prefix's
     rings from it. *)
  if window_s /. epoch_s > float_of_int max_window_epochs then
    invalid_arg
      (Printf.sprintf
         "Context_server.create: window_s / epoch_s must be at most %d epochs, got window_s %g \
          over epoch_s %g"
         max_window_epochs window_s epoch_s);
  if shards < 1 then invalid_arg "Context_server.create: need at least one shard";
  if max_paths_per_shard < 1 then invalid_arg "Context_server.create: need path capacity";
  if ttl_epochs < 1 then invalid_arg "Context_server.create: ttl must be positive";
  Option.iter (check_positive_finite "capacity_bps") capacity_bps;
  let n_buckets = int_of_float (Float.ceil (window_s /. epoch_s)) + 1 in
  let shard () =
    {
      table = Table.create 64;
      dirty = [];
      n_resident = 0;
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
  for i = 0 to String.length path - 1 do
    h := (!h lxor Char.code (String.unsafe_get path i)) * 0x01000193 land 0xffffffff
  done;
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
  let oldest = Int.max 0 (now_e - t.n_buckets + 1) in
  let e_lo = Int.max oldest (int_of_float (lo /. t.epoch_s)) in
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

(* {2 Batches} *)

(* A new entry: nothing committed, and an open empty batch.  The
   committed window ring starts at epoch 0, so its advancement (and thus
   committed window content) is a function of report epochs alone, not
   of when the prefix first got flushed. *)
let new_entry t shard key =
  let now_e = current_epoch t in
  let e =
    {
      key;
      resident = false;
      active = 0;
      win_newest = 0;
      win = Float.Array.make t.n_buckets 0.;
      q_ewma = Stats.ewma ~alpha:0.2;
      loss_ewma = Stats.ewma ~alpha:0.2;
      learned_capacity = 0.;
      last_touch = now_e;
      batch_open = true;
      p_active = 0;
      p_created = now_e;
      p_reports = 0;
      p_report_epoch = -1;
      p_win_newest = now_e;
      p_win = Float.Array.make t.n_buckets 0.;
      p_q_sum = 0.;
      p_q_n = 0;
      p_loss_sum = 0.;
      p_loss_n = 0;
    }
  in
  Table.add shard.table key e;
  shard.dirty <- e :: shard.dirty;
  e

(* The entry for [path] with its batch open: the message's one table
   probe. *)
let open_entry t shard path =
  match Table.find shard.table path with
  | exception Not_found -> new_entry t shard path
  | e ->
    if not e.batch_open then begin
      let now_e = current_epoch t in
      e.batch_open <- true;
      e.p_created <- now_e;
      e.p_win_newest <- now_e;
      shard.dirty <- e :: shard.dirty
    end;
    e

(* Empty the batch after its merge; a report-free batch left its ring
   untouched. *)
let close_batch t e =
  if e.p_reports > 0 then Float.Array.fill e.p_win 0 t.n_buckets 0.;
  e.batch_open <- false;
  e.p_active <- 0;
  e.p_reports <- 0;
  e.p_report_epoch <- -1;
  e.p_q_sum <- 0.;
  e.p_q_n <- 0;
  e.p_loss_sum <- 0.;
  e.p_loss_n <- 0

(* Commit the open batch into the committed state.  Everything here is
   a function of the batch's own timestamps, never of when the flush
   runs: a shard's flush schedule depends on its co-resident paths, and
   the committed state per path must not (that is the
   sharding-transparency property the test suite holds against a
   single-shard reference). *)
let merge_batch t ~now_e e =
  e.active <- Int.max 0 (e.active + e.p_active);
  e.last_touch <- now_e;
  if e.p_reports > 0 then begin
    e.win_newest <-
      ring_advance t e.win ~newest:e.win_newest ~to_e:(Int.max e.win_newest e.p_report_epoch);
    let floor_e = e.win_newest - t.n_buckets + 1 in
    for i = 0 to t.n_buckets - 1 do
      let ep = e.p_win_newest - i in
      if ep >= 0 && ep >= floor_e then begin
        let v = Float.Array.get e.p_win (ep mod t.n_buckets) in
        if v > 0. then begin
          let j = ep mod t.n_buckets in
          Float.Array.set e.win j (Float.Array.get e.win j +. v)
        end
      end
    done;
    (* Without a configured capacity, the peak windowed rate is the best
       available capacity estimate — evaluated at the close of the
       batch's epoch, not at flush time. *)
    match t.capacity_bps with
    | Some _ -> ()
    | None ->
      let eval_now = float_of_int (e.p_report_epoch + 1) *. t.epoch_s in
      let rate =
        ring_window_bytes t e.win ~newest:e.win_newest ~now:eval_now *. 8. /. t.window_s
      in
      e.learned_capacity <- Float.max e.learned_capacity rate
  end;
  if e.p_q_n > 0 then Stats.ewma_update_n e.q_ewma (e.p_q_sum /. float_of_int e.p_q_n) ~n:e.p_q_n;
  if e.p_loss_n > 0 then
    Stats.ewma_update_n e.loss_ewma (e.p_loss_sum /. float_of_int e.p_loss_n) ~n:e.p_loss_n

(* Decay/LRU eviction over the resident entries.  A TTL pass drops
   prefixes idle for more than [ttl_epochs]; if the shard is still over
   its path budget, the least-recently-touched prefixes go next (ties
   broken by name so eviction is deterministic).  It runs right after a
   flush closed every resident batch, so it never drops an open one. *)
let evict t shard ~now_e =
  shard.next_sweep <- now_e + t.ttl_epochs;
  let resident_where keep =
    Table.fold (fun _ e acc -> if e.resident && keep e then e :: acc else acc) shard.table []
  in
  let drop e =
    Table.remove shard.table e.key;
    shard.n_resident <- shard.n_resident - 1;
    shard.s_evictions <- shard.s_evictions + 1
  in
  List.iter drop (resident_where (fun e -> now_e - e.last_touch > t.ttl_epochs));
  let over = shard.n_resident - t.max_paths in
  if over > 0 then begin
    let arr = Array.of_list (resident_where (fun _ -> true)) in
    Array.sort
      (fun a b ->
        match Int.compare a.last_touch b.last_touch with 0 -> String.compare a.key b.key | c -> c)
      arr;
    for i = 0 to over - 1 do
      drop arr.(i)
    done
  end

(* Close one open batch.  A resident entry, or one whose batch holds a
   report, commits it.  An unknown prefix with open connections but no
   report yet stays open with its [p_created] (its eventual report
   closes the loop) but is never committed; past the ttl it is a scan,
   not a connection, and is dropped: lookups on never-reported prefixes
   must not grow any table without bound. *)
let flush_entry t shard ~now_e e =
  if e.resident || e.p_reports > 0 then begin
    if not e.resident then begin
      e.resident <- true;
      shard.n_resident <- shard.n_resident + 1
    end;
    merge_batch t ~now_e e;
    close_batch t e
  end
  else if e.p_active > 0 && now_e - e.p_created <= t.ttl_epochs then
    shard.dirty <- e :: shard.dirty
  else Table.remove shard.table e.key

let flush_shard t shard =
  let now_e = current_epoch t in
  (match shard.dirty with
  | [] -> ()
  | batches ->
    shard.s_flushes <- shard.s_flushes + 1;
    shard.dirty <- [];
    List.iter (fun e -> flush_entry t shard ~now_e e) batches);
  shard.epoch <- now_e;
  if now_e >= shard.next_sweep || shard.n_resident > t.max_paths then evict t shard ~now_e

let flush t = Array.iter (fun shard -> flush_shard t shard) t.shards

(* Commit the shard when its snapshot is older than the caller
   tolerates: staleness 0 flushes at every epoch boundary, staleness k
   lets k epochs of reports pool up in the batch buffer. *)
let refresh t shard ~max_staleness =
  if current_epoch t - shard.epoch > Int.max 0 max_staleness then flush_shard t shard

(* {2 Context views}

   [overlay] selects the freshness-0 view: committed state overlaid with
   the open batch, computed without committing either.  Without it the
   view reflects exactly the data committed through the shard's epoch
   (the window itself still slides to [now]).  A closed batch is empty,
   so overlaying it changes nothing. *)

let window_rate t ~now ~overlay e =
  let bytes =
    ring_window_bytes t e.win ~newest:e.win_newest ~now
    +.
    if overlay && e.p_reports > 0 then ring_window_bytes t e.p_win ~newest:e.p_win_newest ~now
    else 0.
  in
  bytes *. 8. /. t.window_s

(* The EWMA as it would read after the batch's [n] samples of mean
   [sum / n] were committed. *)
let blend ~overlay ewma sum n =
  if overlay && n > 0 then Stats.ewma_next ewma (sum /. float_of_int n) ~n
  else Stats.ewma_value_or ewma ~default:0.

let view t ~now ~overlay e =
  let rate = window_rate t ~now ~overlay e in
  let cap =
    match t.capacity_bps with
    | Some c -> c
    | None ->
      let learned = Float.max e.learned_capacity rate in
      if learned > 0. then learned else infinity
  in
  {
    Context.utilization = (if not (Float.is_finite cap) then 0. else Float.min 1. (rate /. cap));
    queue_delay_s = blend ~overlay e.q_ewma e.p_q_sum e.p_q_n;
    competing_senders = Int.max 0 (e.active + if overlay then e.p_active else 0);
    loss_rate = blend ~overlay e.loss_ewma e.p_loss_sum e.p_loss_n;
  }

(* {2 The service API} *)

(* Answer a lookup and register the connection start, committed with
   the next flush.  The answer's epoch is {!answer_epoch}. *)
let lookup_in t shard ~max_staleness path =
  t.lookups <- t.lookups + 1;
  shard.s_lookups <- shard.s_lookups + 1;
  refresh t shard ~max_staleness;
  let e = open_entry t shard path in
  let ctx =
    if max_staleness <= 0 then view t ~now:(Engine.now t.engine) ~overlay:true e
    else if e.resident then view t ~now:(Engine.now t.engine) ~overlay:false e
    else Context.empty
  in
  e.p_active <- e.p_active + 1;
  ctx

let answer_epoch t shard ~max_staleness =
  if max_staleness <= 0 then current_epoch t else shard.epoch

let lookup_epoch ?(max_staleness = 0) t ~path =
  let shard = shard_of t path in
  let ctx = lookup_in t shard ~max_staleness path in
  (ctx, answer_epoch t shard ~max_staleness)

let lookup ?(max_staleness = 0) t ~path = lookup_in t (shard_of t path) ~max_staleness path

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

let report_in t shard ~path ~bytes ~duration_s ~min_rtt ~mean_rtt ~retransmitted ~segments =
  sanitize_report t ~path ~bytes ~duration_s ~min_rtt ~mean_rtt ~retransmitted ~segments;
  t.reports <- t.reports + 1;
  shard.s_reports <- shard.s_reports + 1;
  refresh t shard ~max_staleness:0;
  let now = Engine.now t.engine in
  let now_e = current_epoch t in
  let e = open_entry t shard path in
  e.p_active <- e.p_active - 1;
  e.p_reports <- e.p_reports + 1;
  e.p_report_epoch <- now_e;
  if bytes > 0 && duration_s > 0. then begin
    e.p_win_newest <- ring_advance t e.p_win ~newest:e.p_win_newest ~to_e:now_e;
    ring_add t e.p_win ~now_e ~finished_at:now ~bytes ~duration_s
  end;
  let queueing = mean_rtt -. min_rtt in
  if Float.is_finite queueing && queueing >= 0. then begin
    e.p_q_sum <- e.p_q_sum +. queueing;
    e.p_q_n <- e.p_q_n + 1
  end;
  if segments > 0 then begin
    (* Retransmissions can outnumber delivered segments (multiple copies
       of one segment); as a loss-rate proxy the ratio is clamped. *)
    e.p_loss_sum <-
      e.p_loss_sum +. Float.min 1. (float_of_int retransmitted /. float_of_int segments);
    e.p_loss_n <- e.p_loss_n + 1
  end

let report t ~path ~bytes ~duration_s ~min_rtt ~mean_rtt ~retransmitted ~segments =
  report_in t (shard_of t path) ~path ~bytes ~duration_s ~min_rtt ~mean_rtt ~retransmitted
    ~segments

let report_stats t ~path (stats : Phi_tcp.Flow.conn_stats) =
  report t ~path ~bytes:stats.bytes
    ~duration_s:(Phi_tcp.Flow.duration stats)
    ~min_rtt:stats.min_rtt ~mean_rtt:stats.mean_rtt
    ~retransmitted:stats.retransmitted_segments ~segments:stats.segments

let handle t req =
  match req with
  | Context_wire.Lookup { path; max_staleness } ->
    let shard = shard_of t path in
    let ctx = lookup_in t shard ~max_staleness path in
    Context_wire.Context_of { ctx; epoch = answer_epoch t shard ~max_staleness }
  | Context_wire.Report { path; bytes; duration_s; min_rtt; mean_rtt; retransmitted; segments }
    ->
    let shard = shard_of t path in
    report_in t shard ~path ~bytes ~duration_s ~min_rtt ~mean_rtt ~retransmitted ~segments;
    Context_wire.Accepted { epoch = shard.epoch }

(* {2 Read-only views (monitoring, tests)} *)

(* The shard of [path], refreshed as a staleness-0 lookup would be, and
   the prefix's entry if it has one. *)
let find_fresh t ~path =
  let shard = shard_of t path in
  refresh t shard ~max_staleness:0;
  Table.find_opt shard.table path

let peek t ~path =
  match find_fresh t ~path with
  | Some e -> view t ~now:(Engine.now t.engine) ~overlay:true e
  | None -> Context.empty

let active_connections t ~path =
  match find_fresh t ~path with Some e -> Int.max 0 (e.active + e.p_active) | None -> 0

let lookup_count t = t.lookups

let report_count t = t.reports

let learned_capacity_bps t ~path =
  match t.capacity_bps with
  | Some _ -> None
  | None ->
    let learned =
      match find_fresh t ~path with
      | Some e ->
        Float.max (window_rate t ~now:(Engine.now t.engine) ~overlay:true e) e.learned_capacity
      | None -> 0.
    in
    if learned > 0. then Some learned else None

(* {2 Introspection (benchmarks, eviction tests, the swarm harness)} *)

let resident_paths t = Array.fold_left (fun acc shard -> acc + shard.n_resident) 0 t.shards

let pending_paths t =
  Array.fold_left (fun acc shard -> acc + List.length shard.dirty) 0 t.shards

let eviction_count t =
  Array.fold_left (fun acc shard -> acc + shard.s_evictions) 0 t.shards

let flush_count t = Array.fold_left (fun acc shard -> acc + shard.s_flushes) 0 t.shards

let shard_stats t =
  Array.map
    (fun shard ->
      {
        lookups = shard.s_lookups;
        reports = shard.s_reports;
        resident = shard.n_resident;
        evictions = shard.s_evictions;
        flushes = shard.s_flushes;
      })
    t.shards
