(* Allocation-free two-tier event core.

   Every event carries a (time, seq) key, seq being a global scheduling
   counter, so keys are unique and fix one total firing order.  The
   queue splits the events into two tiers, each yielding its own events
   in (time, seq) order; [step] and [run] take whichever tier's root is
   earlier, so the merged sequence is exactly that of one heap holding
   every event.

   - Tier 1, lanes: port events (see below).  A lane is a FIFO ring of
     (time, seq, port, payload) entries whose times never decrease, so
     it is sorted by (time, seq) by construction and only its head needs
     to sit in a heap.  [schedule_port_after ~delay] appends to the one
     shared lane for that exact delay value: the clock never goes back
     and IEEE addition is monotonic, so [now +. delay] cannot decrease
     within the lane, whichever ports share it.  [schedule_port_at]
     appends to the port's own lane, sorted by the port's FIFO contract.
     A link's transmit-complete and delivery ports each reuse a handful
     of delays, so an engine has a few lanes (6 on the paper dumbbell,
     about 11 on the WAN mesh) and the lane heap holds only their
     heads: a busy lane's head is replaced at the root with one short
     sift, and a port that empties no longer re-enters a deep heap from
     its bottom.

   - Tier 2, cells: cancellable closure events (timers, sources,
     dynamics) on a heap of their own, so the many rarely-firing RTO
     timers of a large simulation no longer deepen the packet path's
     heap.  Cancelled entries and re-seats of re-armed timers happen
     inside this heap; they never fire and never move the clock.

   Both heaps are structure-of-arrays 4-ary min-heaps ordered by (time,
   seq): [xt.(i)] holds entry [i]'s timestamp in a [floatarray]
   (unboxed), and [xm] interleaves the seq ([xm.(2i)]) with the payload
   key ([xm.(2i+1)], a lane or a cell index) so both land on the same
   cache line.  The heap is inlined here rather than kept as a generic
   module: without flambda, a cross-module [pop] call and the
   [Some (time, seq, v)] tuple it would allocate (including a freshly
   boxed float) cost about 2x on the event-churn microbenchmark (the
   bench's [micro] experiment).  The (time, seq) keys are unique, so the
   arity changes only the cost of a pop, never its order.

   - Cancellable events live in a slab of reusable cells in parallel
     arrays.  A handle packs a cell's index with its generation counter,
     [(generation << idx_bits) | index] — an immediate, so scheduling
     allocates nothing.  The cell heap's key is the cell index: the
     entry stands for the cell only while its seq equals [cell_hseq].
     Cancellation bumps the generation, clears [cell_hseq] (the entry
     still in the heap becomes stale and is skipped when popped) and
     recycles the cell through a free list.  A stale handle — cancelled,
     fired, re-armed, or pointing at a recycled cell — always fails the
     generation check, so cancel-after-recycle is safe.

   - {!rearm_after} is [cancel] then [schedule_after] without leaving a
     dead entry behind.  When the new time is no earlier than the cell's
     heap entry, it bumps the generation and stores the new due time and
     the seq a fresh schedule would take in the cell, leaving the entry
     where it is; when that entry reaches the root it is re-seated at
     the cell's (due, seq) with one sift, and fires only once it is the
     minimum there.  A TCP sender re-arms its RTO on every ACK, so this
     is what keeps dead timers out of the heap.

   - Hot paths that fire the same logical event over and over (a link's
     transmit-complete and propagation-delivery) pre-register their
     handler once as a {!port}: an index into a per-engine registry,
     carried in the lane entries with the int the handler is called
     with, so a link's delivery event carries its packet handle and the
     link keeps no copy of it.  Lanes and their rings are created at
     first use and grow out of line.  Each port caches the last two
     lanes its [schedule_port_after] used, so finding a lane is a float
     compare or two (a link's transmit time alternates between data and
     ACK sizes); on a miss an open-addressing index keyed by the delay's
     bits finds it.
     Dynamics that redraw a link's delay would mint a lane per value, so
     past [max_shared_lanes] a new delay goes to the port's own lane —
     valid because a port's times never decrease — which the port's
     cache then serves.  An armed [port-fifo] clamp likewise goes to the
     port's own lane: the clamped time would break a shared lane's
     order.

   Timestamps are compared with raw [<] / [=] rather than
   [Float.compare]: {!checked_time} / {!checked_delay} guarantee every
   queued time is finite (strict mode raises on NaN/infinite input, the
   armed sanitizer clamps to the current clock, itself always finite),
   and on finite floats the raw comparisons agree with [Float.compare]'s
   total order up to -0. = 0. — a tie the seq number then breaks in
   scheduling order, which is exactly the documented FIFO contract.

   The clock moves only when an event fires: popping a cancelled entry
   or re-seating a re-armed one leaves it where it is. *)

type handle = int

(* Real handles pack a non-negative generation and index, so every one
   is >= 0: any negative int is recognizably no handle at all.  [live]'s
   bounds-then-generation check already rejects it. *)
let null : handle = -1

let is_null (h : handle) = h < 0

type port = int

let null_port : port = -1

(* 2^25 simultaneous cells is far beyond any simulation here; the
   remaining 38 bits of generation would take ~2.7e11 reuses of one cell
   to wrap. *)
let idx_bits = 25
let idx_mask = (1 lsl idx_bits) - 1

(* Shared lanes per engine.  The paper's topologies use about a dozen
   delays; the cap only binds under dynamics that keep redrawing link
   delays.  The index has twice as many slots, so a probe stays short. *)
let max_shared_lanes = 64
let index_bits = 7
let index_slots = 1 lsl index_bits

let nop () = ()
let nop_port (_ : int) = ()

(* A lane: a ring of (time, seq, port, payload) entries, oldest first,
   whose capacity is a power of two (0 until the first append). *)
type lane = {
  mutable qt : floatarray;
  mutable qm : int array;  (* qm.(3i) = seq, qm.(3i+1) = port, qm.(3i+2) = payload *)
  mutable qh : int;  (* head slot *)
  mutable qn : int;  (* entries *)
}

type t = {
  (* The clock and the scratch slots live in [floatarray]s rather than
     mutable float fields: storing a float into a mixed record allocates
     a fresh box on every write (one per event for the clock), while a
     [floatarray] store is an unboxed write.  [tscratch.(0)] carries the
     in-flight timestamp to the sifts and appends, and [tscratch.(1)] a
     delay to the lane index, without a float argument, which the
     non-flambda compiler would box at the call. *)
  clock : floatarray;
  tscratch : floatarray;
  (* Tier 1: 4-ary min-heap of lane heads, keyed by lane. *)
  mutable lt : floatarray;
  mutable lm : int array;  (* lm.(2i) = seq, lm.(2i+1) = lane *)
  mutable llen : int;
  (* Tier 2: 4-ary min-heap of cell entries, keyed by cell index. *)
  mutable ct : floatarray;
  mutable cm : int array;  (* cm.(2i) = seq, cm.(2i+1) = cell *)
  mutable clen : int;
  mutable next_seq : int;
  mutable n_exec : int;
  (* Event-cell slab (struct of arrays) plus its free list.  Every cell
     is at all times either live (scheduled, counted by [n_live]) or on
     the free list — the [cell-accounting] sanitizer rule checks this.
     A live cell fires at ([cell_due], [cell_seq]); its heap entry sits
     at ([cell_htime], [cell_hseq]), earlier once the cell has been
     re-armed in place.  [cell_hseq] is -1 on a free cell. *)
  mutable cell_gen : int array;
  mutable cell_act : (unit -> unit) array;
  mutable cell_due : floatarray;
  mutable cell_seq : int array;
  mutable cell_htime : floatarray;
  mutable cell_hseq : int array;
  mutable free : int array;
  mutable free_len : int;
  mutable n_live : int;
  (* Pre-registered port handlers; never unregistered.  Per port: the
     time of its latest event, the last two lanes its
     [schedule_port_after] used (packed into one int, see
     [newest_lane]) and its own lane (-1 until first used).  Four words
     per port, as many as registration allocated before lanes. *)
  mutable ports : (int -> unit) array;
  mutable port_last : floatarray;
  mutable port_lane : int array;
  mutable port_own : int array;
  mutable n_ports : int;
  (* Lanes, shared and own.  [lane_delay] is a shared lane's delay; on
     an own lane it is the delay the port's cache last routed there
     (nan before), which no other port reads.  [lane_index] maps a
     delay's bits to its shared lane by linear probing, -1 marking an
     empty slot; it is allocated with the first shared lane. *)
  mutable lanes : lane array;
  mutable lane_delay : floatarray;
  mutable n_lanes : int;
  mutable n_shared : int;
  mutable lane_index : int array;
  no_lane : lane;
}

let create () =
  {
    clock = Float.Array.make 1 0.;
    tscratch = Float.Array.make 2 0.;
    lt = Float.Array.create 0;
    lm = [||];
    llen = 0;
    ct = Float.Array.create 0;
    cm = [||];
    clen = 0;
    next_seq = 0;
    n_exec = 0;
    cell_gen = [||];
    cell_act = [||];
    cell_due = Float.Array.create 0;
    cell_seq = [||];
    cell_htime = Float.Array.create 0;
    cell_hseq = [||];
    free = [||];
    free_len = 0;
    n_live = 0;
    ports = [||];
    port_last = Float.Array.create 0;
    port_lane = [||];
    port_own = [||];
    n_ports = 0;
    lanes = [||];
    lane_delay = Float.Array.create 0;
    n_lanes = 0;
    n_shared = 0;
    lane_index = [||];
    no_lane = { qt = Float.Array.create 0; qm = [||]; qh = 0; qn = 0 };
  }

let[@inline] now t = Float.Array.unsafe_get t.clock 0
let[@inline] set_clock t v = Float.Array.unsafe_set t.clock 0 v

(* {2 Heap primitives}

   Hole-style sifts over one tier's arrays: keep the moving element in
   registers, shift entries over it, write it once at its final slot.
   Each takes the tier's arrays as arguments, hoisted out of the loop,
   and its timestamp through [ts] ([tscratch]): the callers read it out
   of a [floatarray] (or compute it), and a float argument would be
   boxed at the call.  The unsafe accessors are justified by the loop
   bounds: indices stay within the heap's length, and the arrays are
   not replaced while a sift runs. *)

(* Array growth is amortized doubling, out of line: a sized [create]
   pre-allocates and never grows. *)
let[@inline never] resized a n fill =
  let na = Array.make n fill in
  Array.blit a 0 na 0 (Array.length a);
  na

let[@inline never] resized_float a n =
  let na = Float.Array.make n 0. in
  Float.Array.blit a 0 na 0 (Float.Array.length a);
  na

let sift_up ts xt (xm : int array) i0 (seq : int) key =
  let time = Float.Array.unsafe_get ts 0 in
  let i = ref i0 in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) lsr 2 in
    let pt = Float.Array.unsafe_get xt parent in
    if time < pt || (time = pt && seq < Array.unsafe_get xm (2 * parent)) then begin
      Float.Array.unsafe_set xt !i pt;
      Array.unsafe_set xm (2 * !i) (Array.unsafe_get xm (2 * parent));
      Array.unsafe_set xm ((2 * !i) + 1) (Array.unsafe_get xm ((2 * parent) + 1));
      i := parent
    end
    else continue := false
  done;
  Float.Array.unsafe_set xt !i time;
  Array.unsafe_set xm (2 * !i) seq;
  Array.unsafe_set xm ((2 * !i) + 1) key

(* Seat [(time, seq, key)] at the root of a heap of [len] entries and
   sift it down: the former last entry after the minimum was removed,
   or the minimum's successor taking over its slot. *)
let sift_down ts xt (xm : int array) len (seq : int) key =
  let time = Float.Array.unsafe_get ts 0 in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let base = (4 * !i) + 1 in
    if base >= len then continue := false
    else begin
      (* Find the smallest of the up-to-four children. *)
      let last = if base + 3 < len then base + 3 else len - 1 in
      let m = ref base in
      let mt = ref (Float.Array.unsafe_get xt base) in
      let ms = ref (Array.unsafe_get xm (2 * base)) in
      for j = base + 1 to last do
        let jt = Float.Array.unsafe_get xt j in
        if jt < !mt || (jt = !mt && Array.unsafe_get xm (2 * j) < !ms) then begin
          m := j;
          mt := jt;
          ms := Array.unsafe_get xm (2 * j)
        end
      done;
      if !mt < time || (!mt = time && !ms < seq) then begin
        Float.Array.unsafe_set xt !i !mt;
        Array.unsafe_set xm (2 * !i) !ms;
        Array.unsafe_set xm ((2 * !i) + 1) (Array.unsafe_get xm ((2 * !m) + 1));
        i := !m
      end
      else continue := false
    end
  done;
  Float.Array.unsafe_set xt !i time;
  Array.unsafe_set xm (2 * !i) seq;
  Array.unsafe_set xm ((2 * !i) + 1) key

(* The root was removed from a heap now [len] entries long: re-seat its
   former last entry, at [len], from the root. *)
let[@inline] refill_root ts xt (xm : int array) len =
  if len > 0 then begin
    Float.Array.unsafe_set ts 0 (Float.Array.unsafe_get xt len);
    sift_down ts xt xm len (Array.unsafe_get xm (2 * len)) (Array.unsafe_get xm ((2 * len) + 1))
  end

let[@inline never] grow_lane_heap t =
  let ncap = Int.max 16 (2 * Float.Array.length t.lt) in
  t.lt <- resized_float t.lt ncap;
  t.lm <- resized t.lm (2 * ncap) 0

let[@inline never] grow_cell_heap t =
  let ncap = Int.max 64 (2 * Float.Array.length t.ct) in
  t.ct <- resized_float t.ct ncap;
  t.cm <- resized t.cm (2 * ncap) 0

(* Both pushes take their timestamp through [tscratch]. *)
let push_lane t ~seq lane =
  if t.llen = Float.Array.length t.lt then grow_lane_heap t;
  let i = t.llen in
  t.llen <- i + 1;
  sift_up t.tscratch t.lt t.lm i seq lane

let push_cell t ~seq idx =
  if t.clen = Float.Array.length t.ct then grow_cell_heap t;
  let i = t.clen in
  t.clen <- i + 1;
  sift_up t.tscratch t.ct t.cm i seq idx

(* {2 Event cells} *)

let grow_slab t =
  let cap = Array.length t.cell_gen in
  let ncap = Int.max 64 (2 * cap) in
  if ncap > idx_mask + 1 then invalid_arg "Engine: event slab exceeds 2^25 cells";
  t.cell_gen <- resized t.cell_gen ncap 0;
  t.cell_act <- resized t.cell_act ncap nop;
  t.cell_due <- resized_float t.cell_due ncap;
  t.cell_seq <- resized t.cell_seq ncap 0;
  t.cell_htime <- resized_float t.cell_htime ncap;
  t.cell_hseq <- resized t.cell_hseq ncap (-1);
  t.free <- resized t.free ncap 0;
  (* Hand out low indices first: the busiest cells stay clustered. *)
  for i = ncap - 1 downto cap do
    t.free.(t.free_len) <- i;
    t.free_len <- t.free_len + 1
  done

(* Return a cell to the free list and invalidate every outstanding
   handle/heap entry for it.  Runs before the action fires, so a handler
   cancelling itself is a no-op, exactly like the old [live] flag.

   The fire path deliberately leaves the fired closure in [cell_act]:
   overwriting it with [nop] costs a write barrier per event, and the
   cell is reused (overwriting the slot anyway) as soon as the next
   event is scheduled.  [cancel] does pay for the [nop] store — a
   cancelled closure may capture a packet that would otherwise be
   pinned until the cell's next reuse, and cancellation is off the
   per-event hot path. *)
let consume t idx =
  Array.unsafe_set t.cell_gen idx (Array.unsafe_get t.cell_gen idx + 1);
  Array.unsafe_set t.cell_hseq idx (-1);
  Array.unsafe_set t.free t.free_len idx;
  t.free_len <- t.free_len + 1;
  t.n_live <- t.n_live - 1

let check_cells t =
  let cap = Array.length t.cell_gen in
  if t.n_live < 0 || t.free_len + t.n_live <> cap then
    Invariant.record ~rule:"cell-accounting" ~time:(now t)
      (Printf.sprintf "Engine: %d live + %d free cells <> %d slab capacity" t.n_live
         t.free_len cap)

(* Scheduling-time anomalies either raise (strict mode) or, with the
   sanitizer armed, are recorded and clamped so that one broken
   timestamp does not abort the whole run.  The anomaly handlers stay
   out of line so the checks themselves inline into the per-event
   scheduling path. *)
let[@inline never] bad_time t time =
  let msg = Printf.sprintf "Engine.schedule_at: non-finite time %g" time in
  if Invariant.enabled () then begin
    Invariant.record ~rule:"non-finite-time" ~time:(now t) msg;
    now t
  end
  else invalid_arg msg

let[@inline never] past_time t time =
  let msg = Printf.sprintf "Engine.schedule_at: time %g is before now %g" time (now t) in
  if Invariant.enabled () then begin
    Invariant.record ~rule:"time-in-past" ~time:(now t) msg;
    now t
  end
  else invalid_arg msg

let[@inline never] bad_delay t delay =
  let rule, what =
    if Float.is_finite delay then ("negative-delay", "negative")
    else ("non-finite-time", "non-finite")
  in
  let msg = Printf.sprintf "Engine.schedule_after: %s delay %g" what delay in
  if Invariant.enabled () then begin
    Invariant.record ~rule ~time:(now t) msg;
    0.
  end
  else invalid_arg msg

let[@inline] checked_time t time =
  if not (Float.is_finite time) then bad_time t time
  else if time < now t then past_time t time
  else time

(* NaN fails both comparisons. *)
let[@inline] checked_delay t delay =
  if delay >= 0. && delay < Float.infinity then delay else bad_delay t delay

(* The enqueue path hands timestamps to [push_cell] through [tscratch]
   and is forced inline so the timestamp never crosses a call boundary
   as a float argument (which would box it, once per scheduled
   event). *)
let[@inline] enqueue t action =
  if t.free_len = 0 then grow_slab t;
  t.free_len <- t.free_len - 1;
  let idx = Array.unsafe_get t.free t.free_len in
  t.cell_act.(idx) <- action;
  t.n_live <- t.n_live + 1;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let time = Float.Array.unsafe_get t.tscratch 0 in
  Float.Array.unsafe_set t.cell_due idx time;
  Array.unsafe_set t.cell_seq idx seq;
  Float.Array.unsafe_set t.cell_htime idx time;
  Array.unsafe_set t.cell_hseq idx seq;
  push_cell t ~seq idx;
  (Array.unsafe_get t.cell_gen idx lsl idx_bits) lor idx

let[@inline] schedule_at t ~time f =
  Float.Array.unsafe_set t.tscratch 0 (checked_time t time);
  enqueue t f

let[@inline] schedule_after t ~delay f =
  Float.Array.unsafe_set t.tscratch 0 (now t +. checked_delay t delay);
  enqueue t f

(* {2 Cancellation and re-arming} *)

let[@inline] live t handle =
  let idx = handle land idx_mask in
  idx < Array.length t.cell_gen && Array.unsafe_get t.cell_gen idx = handle lsr idx_bits

let cancel t handle =
  if live t handle then begin
    let idx = handle land idx_mask in
    consume t idx;
    t.cell_act.(idx) <- nop
  end

let cancelled t handle = not (live t handle)

(* [rearm_after] with its new time in [tscratch].  In place, the cell
   takes the generation and seq that [cancel] + [schedule_after] would
   have given it: [cancel] pushes the index onto the free list and the
   schedule pops it straight back. *)
let rearm t handle f =
  let idx = handle land idx_mask in
  let time = Float.Array.unsafe_get t.tscratch 0 in
  if live t handle && time >= Float.Array.unsafe_get t.cell_htime idx then begin
    let gen = Array.unsafe_get t.cell_gen idx + 1 in
    Array.unsafe_set t.cell_gen idx gen;
    (* A timer re-armed with its own callback skips the write barrier. *)
    if Array.unsafe_get t.cell_act idx != f then t.cell_act.(idx) <- f;
    Float.Array.unsafe_set t.cell_due idx time;
    Array.unsafe_set t.cell_seq idx t.next_seq;
    t.next_seq <- t.next_seq + 1;
    (gen lsl idx_bits) lor idx
  end
  else begin
    cancel t handle;
    enqueue t f
  end

let[@inline] rearm_after t handle ~delay f =
  Float.Array.unsafe_set t.tscratch 0 (now t +. checked_delay t delay);
  rearm t handle f

(* A re-armed cell's entry reached the root: move it to the cell's due
   (time, seq).  Nothing fires and the clock stays put. *)
let reseat t idx =
  let seq = Array.unsafe_get t.cell_seq idx in
  let due = Float.Array.unsafe_get t.cell_due idx in
  Float.Array.unsafe_set t.cell_htime idx due;
  Array.unsafe_set t.cell_hseq idx seq;
  Float.Array.unsafe_set t.tscratch 0 due;
  sift_down t.tscratch t.ct t.cm t.clen seq idx

(* {2 Ports and lanes} *)

let grow_ports t =
  let ncap = Int.max 8 (2 * Array.length t.ports) in
  t.ports <- resized t.ports ncap nop_port;
  t.port_last <- resized_float t.port_last ncap;
  t.port_lane <- resized t.port_lane ncap 0;
  t.port_own <- resized t.port_own ncap (-1)

let port t f =
  if t.n_ports = Array.length t.ports then grow_ports t;
  let id = t.n_ports in
  t.ports.(id) <- f;
  t.n_ports <- id + 1;
  id

(* A port's lane cache packs its last two lanes into one int, each as
   [lane + 1] in 32 bits (0 for none), the newest in the low half. *)
let lane_bits = 32
let lane_mask = (1 lsl lane_bits) - 1
let[@inline] newest_lane cache = (cache land lane_mask) - 1
let[@inline] older_lane cache = (cache lsr lane_bits) - 1

(* A fresh, empty lane tagged with [delay]; its ring is allocated by its
   first append. *)
let[@inline never] new_lane t delay =
  if t.n_lanes = Array.length t.lanes then begin
    let ncap = Int.max 8 (2 * t.n_lanes) in
    t.lanes <- resized t.lanes ncap t.no_lane;
    t.lane_delay <- resized_float t.lane_delay ncap
  end;
  let l = t.n_lanes in
  t.lanes.(l) <- { qt = Float.Array.create 0; qm = [||]; qh = 0; qn = 0 };
  Float.Array.set t.lane_delay l delay;
  t.n_lanes <- l + 1;
  l

let[@inline never] new_own_lane t id =
  let l = new_lane t Float.nan in
  t.port_own.(id) <- l;
  l

let[@inline] own_lane t id =
  let l = Array.unsafe_get t.port_own id in
  if l >= 0 then l else new_own_lane t id

(* Fibonacci hashing of the delay's bits: the top [index_bits] bits of
   their product with an odd constant. *)
let[@inline] index_slot delay =
  (Int64.to_int (Int64.bits_of_float delay) * 0x1E3779B97F4A7C15) lsr (63 - index_bits)

(* The lane for port [id]'s [schedule_port_after] with the delay in
   [tscratch.(1)], when the port's cache missed: the shared lane for
   that delay, created if there is room, else the port's own lane.  The
   answer enters the port's cache as its newest lane. *)
let[@inline never] find_lane t id =
  let delay = Float.Array.get t.tscratch 1 in
  if Array.length t.lane_index = 0 then t.lane_index <- Array.make index_slots (-1);
  let index = t.lane_index in
  (* The index is at most half full, so the probe ends at an empty slot. *)
  let i = ref (index_slot delay) in
  while index.(!i) >= 0 && not (Float.Array.get t.lane_delay index.(!i) = delay) do
    i := (!i + 1) land (index_slots - 1)
  done;
  let l =
    if index.(!i) >= 0 then index.(!i)
    else if t.n_shared < max_shared_lanes then begin
      let l = new_lane t delay in
      index.(!i) <- l;
      t.n_shared <- t.n_shared + 1;
      l
    end
    else begin
      let l = own_lane t id in
      Float.Array.set t.lane_delay l delay;
      l
    end
  in
  t.port_lane.(id) <- ((t.port_lane.(id) land lane_mask) lsl lane_bits) lor (l + 1);
  l

(* Double a full lane's ring (the first growth allocates it), moving the
   entries to the front in order. *)
let[@inline never] grow_lane q =
  let cap = Float.Array.length q.qt in
  let ncap = Int.max 16 (2 * cap) in
  let qt = Float.Array.create ncap and qm = Array.make (3 * ncap) 0 in
  for i = 0 to q.qn - 1 do
    let j = (q.qh + i) land (cap - 1) in
    Float.Array.unsafe_set qt i (Float.Array.unsafe_get q.qt j);
    Array.unsafe_set qm (3 * i) (Array.unsafe_get q.qm (3 * j));
    Array.unsafe_set qm ((3 * i) + 1) (Array.unsafe_get q.qm ((3 * j) + 1));
    Array.unsafe_set qm ((3 * i) + 2) (Array.unsafe_get q.qm ((3 * j) + 2))
  done;
  q.qt <- qt;
  q.qm <- qm;
  q.qh <- 0

(* Append the event in [tscratch] for port [id], carrying [payload], to
   [lane]; a lane that was empty puts its new head in the lane heap. *)
let[@inline] append t lane id payload =
  let q = Array.unsafe_get t.lanes lane in
  let n = q.qn in
  if n = Float.Array.length q.qt then grow_lane q;
  let slot = (q.qh + n) land (Float.Array.length q.qt - 1) in
  let seq = t.next_seq in
  Float.Array.unsafe_set q.qt slot (Float.Array.unsafe_get t.tscratch 0);
  Array.unsafe_set q.qm (3 * slot) seq;
  Array.unsafe_set q.qm ((3 * slot) + 1) id;
  Array.unsafe_set q.qm ((3 * slot) + 2) payload;
  q.qn <- n + 1;
  if n = 0 then push_lane t ~seq lane

let[@inline never] port_out_of_order t id =
  let time = Float.Array.unsafe_get t.tscratch 0 in
  let last = Float.Array.unsafe_get t.port_last id in
  let msg =
    Printf.sprintf "Engine.schedule_port: time %g is before the port's pending event at %g" time
      last
  in
  if Invariant.enabled () then begin
    Invariant.record ~rule:"port-fifo" ~time:(now t) msg;
    Float.Array.unsafe_set t.tscratch 0 last
  end
  else invalid_arg msg

let[@inline] check_port t id =
  if id < 0 || id >= t.n_ports then
    invalid_arg "Engine.schedule_port: port is not registered on this engine"

(* The event in [tscratch] is queued on [lane]; record it as the port's
   latest and consume its seq. *)
let[@inline] commit_port t lane id payload =
  append t lane id payload;
  Float.Array.unsafe_set t.port_last id (Float.Array.unsafe_get t.tscratch 0);
  t.next_seq <- t.next_seq + 1

let[@inline] schedule_port_at t ~time id payload =
  Float.Array.unsafe_set t.tscratch 0 (checked_time t time);
  check_port t id;
  if Float.Array.unsafe_get t.tscratch 0 < Float.Array.unsafe_get t.port_last id then
    port_out_of_order t id;
  commit_port t (own_lane t id) id payload

let[@inline] schedule_port_after t ~delay id payload =
  let delay = checked_delay t delay in
  Float.Array.unsafe_set t.tscratch 0 (now t +. delay);
  check_port t id;
  if Float.Array.unsafe_get t.tscratch 0 < Float.Array.unsafe_get t.port_last id then begin
    port_out_of_order t id;
    commit_port t (own_lane t id) id payload
  end
  else begin
    let cache = Array.unsafe_get t.port_lane id in
    let l = newest_lane cache in
    let l =
      if l >= 0 && Float.Array.unsafe_get t.lane_delay l = delay then l
      else begin
        let l = older_lane cache in
        if l >= 0 && Float.Array.unsafe_get t.lane_delay l = delay then l
        else begin
          Float.Array.unsafe_set t.tscratch 1 delay;
          find_lane t id
        end
      end
    in
    commit_port t l id payload
  end

(* {2 Running} *)

let pending t = t.llen + t.clen
let executed t = t.n_exec

let[@inline never] record_nonmonotonic t time =
  Invariant.record ~rule:"event-time-monotonic" ~time:(now t)
    (Printf.sprintf "Engine.step: popped event at %g behind clock %g" time (now t))

(* Whether the next entry is the lane heap's root: the cell heap is
   empty or its root comes later in (time, seq). *)
let[@inline] lane_next t =
  t.llen > 0
  && (t.clen = 0
     ||
     let lt = Float.Array.unsafe_get t.lt 0 and ct = Float.Array.unsafe_get t.ct 0 in
     lt < ct || (lt = ct && Array.unsafe_get t.lm 0 < Array.unsafe_get t.cm 0))

(* Fire the lane heap's root: pop its lane's head, whose successor (if
   any) takes over the root with one sift, and call the head's port with
   its payload. *)
let fire_lane t =
  let time = Float.Array.unsafe_get t.lt 0 in
  let lane = Array.unsafe_get t.lm 1 in
  let q = Array.unsafe_get t.lanes lane in
  let h = q.qh in
  let id = Array.unsafe_get q.qm ((3 * h) + 1) in
  let payload = Array.unsafe_get q.qm ((3 * h) + 2) in
  let n = q.qn - 1 in
  q.qn <- n;
  let h = (h + 1) land (Float.Array.length q.qt - 1) in
  q.qh <- h;
  if n = 0 then begin
    t.llen <- t.llen - 1;
    refill_root t.tscratch t.lt t.lm t.llen
  end
  else begin
    Float.Array.unsafe_set t.tscratch 0 (Float.Array.unsafe_get q.qt h);
    sift_down t.tscratch t.lt t.lm t.llen (Array.unsafe_get q.qm (3 * h)) lane
  end;
  if time < now t then record_nonmonotonic t time else set_clock t time;
  t.n_exec <- t.n_exec + 1;
  (Array.unsafe_get t.ports id) payload

(* Pop the cell heap's root: fire it, skip it if it was cancelled, or
   re-seat a re-armed event at its new time. *)
let step_cell t =
  let time = Float.Array.unsafe_get t.ct 0 in
  let seq = Array.unsafe_get t.cm 0 in
  (* Cell indices in heap keys were valid at enqueue time and the slab
     never shrinks, so the unsafe reads are in bounds. *)
  let idx = Array.unsafe_get t.cm 1 in
  if Array.unsafe_get t.cell_hseq idx <> seq then begin
    (* cancelled *)
    t.clen <- t.clen - 1;
    refill_root t.tscratch t.ct t.cm t.clen
  end
  else if Array.unsafe_get t.cell_seq idx <> seq then reseat t idx
  else begin
    let action = Array.unsafe_get t.cell_act idx in
    t.clen <- t.clen - 1;
    refill_root t.tscratch t.ct t.cm t.clen;
    consume t idx;
    if time < now t then record_nonmonotonic t time else set_clock t time;
    t.n_exec <- t.n_exec + 1;
    if !Invariant.armed then check_cells t;
    action ()
  end

let step t =
  if lane_next t then begin
    fire_lane t;
    true
  end
  else if t.clen > 0 then begin
    step_cell t;
    true
  end
  else false

(* Without a horizon the limit is infinite, which no queued (finite)
   time exceeds. *)
let run ?until t =
  let limit =
    match until with
    | None -> Float.infinity
    | Some limit ->
      if not (Float.is_finite limit) then invalid_arg "Engine.run: until must be finite";
      limit
  in
  let continue = ref true in
  while !continue do
    if lane_next t then begin
      if Float.Array.unsafe_get t.lt 0 > limit then continue := false else fire_lane t
    end
    else if t.clen > 0 then begin
      if Float.Array.unsafe_get t.ct 0 > limit then continue := false else step_cell t
    end
    else continue := false
  done;
  match until with Some limit when limit > now t -> set_clock t limit | _ -> ()
