(* Allocation-free event core.

   The previous engine allocated, per scheduled event: a [handle] record,
   an [event] record, the action closure, and a boxed float inside the
   heap entry.  At ~10 events per simulated packet that allocation (and
   the GC work to collect it) dominated the per-packet cost.

   This version keeps everything in flat arrays, and its heap holds at
   most one entry per port plus one per live timer (and the entries of
   cancelled timers until they are popped):

   - The event queue is a structure-of-arrays 4-ary min-heap ordered by
     (time, seq): [hp.(i)] holds entry [i]'s timestamp in a [floatarray]
     (unboxed), and [hm] interleaves the FIFO tie-break sequence number
     ([hm.(2i)]) with the payload key ([hm.(2i+1)]) so both land on the
     same cache line.  The heap is inlined here rather than kept as a
     generic module: without flambda, a cross-module [pop] call and the
     [Some (time, seq, v)] tuple it would allocate (including a freshly
     boxed float) cost about 2x on the event-churn microbenchmark (the
     bench's [micro] experiment).

     Arity 4 fits a shallow heap.  Since ports and in-place re-arming,
     the heap holds one entry per port and per live timer (about 120 on
     the paper dumbbell), so a pop sifts down three or four levels, and
     scanning four children per level costs less than the level that
     eight children would save.  The (time, seq) keys are unique, so
     the arity changes only the cost of a pop, never its order.

   - Cancellable events live in a slab of reusable cells in parallel
     arrays.  A handle packs a cell's index with its generation counter,
     [(generation << idx_bits) | index] — an immediate, so scheduling
     allocates nothing.  The cell's heap key is its index alone: the
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
     carried in the heap key with tag bit 0 set.  A port's events are
     scheduled in nondecreasing time, so they fire in scheduling order
     and only the earliest sits in the heap; the rest wait in the port's
     FIFO with the (time, seq) they were scheduled with, and when the
     head fires the next one takes over the root with one sift.  A FIFO
     is allocated the first time its port queues an event behind its
     heap entry, so registering a port costs no per-port allocation.

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

let nop () = ()

(* The events queued behind a port's heap entry, oldest first: a
   circular buffer of (time, seq) pairs whose capacity is a power of
   two. *)
type fifo = { ft : floatarray; fs : int array; mutable fh : int }

type t = {
  (* The clock and the sift scratch cell live in one-slot [floatarray]s
     rather than mutable float fields: storing a float into a mixed
     record allocates a fresh box on every write (one per event for the
     clock), while a [floatarray] store is an unboxed write.  The same
     reasoning moves the in-flight sift timestamp into [tscratch]: it
     lets [push]/[step] hand a timestamp to the sifts without a float
     argument, which the non-flambda compiler would box at the call. *)
  clock : floatarray;
  tscratch : floatarray;
  (* 4-ary min-heap over (time, seq, key). *)
  mutable hp : floatarray;
  mutable hm : int array;  (* hm.(2i) = seq, hm.(2i+1) = key *)
  mutable hlen : int;
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
     number of pending events (the heap entry included), the time of
     the latest one, and the FIFO behind the heap entry — [no_fifo], of
     capacity 0, until the port first queues an event there. *)
  mutable ports : (unit -> unit) array;
  mutable port_n : int array;
  mutable port_last : floatarray;
  mutable port_q : fifo array;
  mutable n_ports : int;
  no_fifo : fifo;
}

let create () =
  {
    clock = Float.Array.make 1 0.;
    tscratch = Float.Array.make 1 0.;
    hp = Float.Array.create 0;
    hm = [||];
    hlen = 0;
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
    port_n = [||];
    port_last = Float.Array.create 0;
    port_q = [||];
    n_ports = 0;
    no_fifo = { ft = Float.Array.create 0; fs = [||]; fh = 0 };
  }

let[@inline] now t = Float.Array.unsafe_get t.clock 0
let[@inline] set_clock t v = Float.Array.unsafe_set t.clock 0 v

(* {2 Heap primitives}

   Hole-style sifts: keep the moving element in registers, shift
   entries over it, write it once at its final slot.  The unsafe
   accessors are justified by the loop bounds: indices stay within
   [0, hlen) and the arrays never shrink. *)

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

let grow_heap t =
  let ncap = Int.max 64 (2 * Float.Array.length t.hp) in
  t.hp <- resized_float t.hp ncap;
  t.hm <- resized t.hm (2 * ncap) 0

(* [hp]/[hm] are hoisted into locals in both sifts: they are mutable
   record fields, so the compiler would otherwise reload them after
   every array store in the loop.  Safe because the arrays cannot be
   replaced (no grow) while a sift is running. *)
(* Both sifts take their timestamp through [tscratch] rather than a
   float parameter: their callers read it out of a [floatarray] (or
   compute it), and a float argument would be boxed at the call. *)
let sift_up t i0 seq key =
  let time = Float.Array.unsafe_get t.tscratch 0 in
  let hp = t.hp and hm = t.hm in
  let i = ref i0 in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) lsr 2 in
    let pt = Float.Array.unsafe_get hp parent in
    if time < pt || (time = pt && seq < Array.unsafe_get hm (2 * parent)) then begin
      Float.Array.unsafe_set hp !i pt;
      Array.unsafe_set hm (2 * !i) (Array.unsafe_get hm (2 * parent));
      Array.unsafe_set hm ((2 * !i) + 1) (Array.unsafe_get hm ((2 * parent) + 1));
      i := parent
    end
    else continue := false
  done;
  Float.Array.unsafe_set hp !i time;
  Array.unsafe_set hm (2 * !i) seq;
  Array.unsafe_set hm ((2 * !i) + 1) key

(* [push] takes its timestamp through [tscratch] (see the sifts). *)
let push t ~seq key =
  if t.hlen = Float.Array.length t.hp then grow_heap t;
  let i = t.hlen in
  t.hlen <- i + 1;
  sift_up t i seq key

(* Seat [(time, seq, key)] at the root and sift it down: the former last
   entry after the minimum was removed, or the minimum's successor
   taking over its slot. *)
let sift_down t seq key =
  let time = Float.Array.unsafe_get t.tscratch 0 in
  let hp = t.hp and hm = t.hm in
  let len = t.hlen in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let base = (4 * !i) + 1 in
    if base >= len then continue := false
    else begin
      (* Find the smallest of the up-to-four children. *)
      let last = if base + 3 < len then base + 3 else len - 1 in
      let m = ref base in
      let mt = ref (Float.Array.unsafe_get hp base) in
      let ms = ref (Array.unsafe_get hm (2 * base)) in
      for j = base + 1 to last do
        let jt = Float.Array.unsafe_get hp j in
        if jt < !mt || (jt = !mt && Array.unsafe_get hm (2 * j) < !ms) then begin
          m := j;
          mt := jt;
          ms := Array.unsafe_get hm (2 * j)
        end
      done;
      if !mt < time || (!mt = time && !ms < seq) then begin
        Float.Array.unsafe_set hp !i !mt;
        Array.unsafe_set hm (2 * !i) !ms;
        Array.unsafe_set hm ((2 * !i) + 1) (Array.unsafe_get hm ((2 * !m) + 1));
        i := !m
      end
      else continue := false
    end
  done;
  Float.Array.unsafe_set hp !i time;
  Array.unsafe_set hm (2 * !i) seq;
  Array.unsafe_set hm ((2 * !i) + 1) key

(* Remove the root entry. *)
let[@inline] pop_root t =
  let len = t.hlen - 1 in
  t.hlen <- len;
  if len > 0 then begin
    Float.Array.unsafe_set t.tscratch 0 (Float.Array.unsafe_get t.hp len);
    sift_down t (Array.unsafe_get t.hm (2 * len)) (Array.unsafe_get t.hm ((2 * len) + 1))
  end

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

(* The enqueue path hands timestamps to [push] through [tscratch] and is
   forced inline so the timestamp never crosses a call boundary as a
   float argument (which would box it, once per scheduled event). *)
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
  push t ~seq (idx lsl 1);
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
let reseat t idx key =
  let seq = Array.unsafe_get t.cell_seq idx in
  let due = Float.Array.unsafe_get t.cell_due idx in
  Float.Array.unsafe_set t.cell_htime idx due;
  Array.unsafe_set t.cell_hseq idx seq;
  Float.Array.unsafe_set t.tscratch 0 due;
  sift_down t seq key

(* {2 Ports} *)

let grow_ports t =
  let ncap = Int.max 8 (2 * Array.length t.ports) in
  t.ports <- resized t.ports ncap nop;
  t.port_n <- resized t.port_n ncap 0;
  t.port_last <- resized_float t.port_last ncap;
  t.port_q <- resized t.port_q ncap t.no_fifo

let port t f =
  if t.n_ports = Array.length t.ports then grow_ports t;
  let id = t.n_ports in
  t.ports.(id) <- f;
  t.n_ports <- id + 1;
  id

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

(* Double port [id]'s FIFO, which is full with [len] events (the first
   growth replaces [no_fifo]). *)
let[@inline never] grow_fifo t id q len =
  let cap = Array.length q.fs in
  let ncap = Int.max 8 (2 * cap) in
  let ft = Float.Array.create ncap and fs = Array.make ncap 0 in
  for i = 0 to len - 1 do
    let j = (q.fh + i) land (cap - 1) in
    Float.Array.unsafe_set ft i (Float.Array.unsafe_get q.ft j);
    Array.unsafe_set fs i (Array.unsafe_get q.fs j)
  done;
  let q = { ft; fs; fh = 0 } in
  t.port_q.(id) <- q;
  q

(* Queue the event in [tscratch] behind port [id]'s heap entry; [len]
   events already wait there. *)
let queue_behind t id len =
  if Float.Array.unsafe_get t.tscratch 0 < Float.Array.unsafe_get t.port_last id then
    port_out_of_order t id;
  let q = Array.unsafe_get t.port_q id in
  let q = if len = Array.length q.fs then grow_fifo t id q len else q in
  let slot = (q.fh + len) land (Array.length q.fs - 1) in
  Float.Array.unsafe_set q.ft slot (Float.Array.unsafe_get t.tscratch 0);
  Array.unsafe_set q.fs slot t.next_seq

let[@inline] push_port t id =
  if id < 0 || id >= t.n_ports then
    invalid_arg "Engine.schedule_port: port is not registered on this engine";
  let n = Array.unsafe_get t.port_n id in
  if n = 0 then push t ~seq:t.next_seq ((id lsl 1) lor 1) else queue_behind t id (n - 1);
  Array.unsafe_set t.port_n id (n + 1);
  Float.Array.unsafe_set t.port_last id (Float.Array.unsafe_get t.tscratch 0);
  t.next_seq <- t.next_seq + 1

let[@inline] schedule_port_at t ~time id =
  Float.Array.unsafe_set t.tscratch 0 (checked_time t time);
  push_port t id

let[@inline] schedule_port_after t ~delay id =
  Float.Array.unsafe_set t.tscratch 0 (now t +. checked_delay t delay);
  push_port t id

(* {2 Running} *)

let pending t = t.hlen
let executed t = t.n_exec

let[@inline never] record_nonmonotonic t time =
  Invariant.record ~rule:"event-time-monotonic" ~time:(now t)
    (Printf.sprintf "Engine.step: popped event at %g behind clock %g" time (now t))

let step t =
  if t.hlen = 0 then false
  else begin
    let time = Float.Array.unsafe_get t.hp 0 in
    let seq = Array.unsafe_get t.hm 0 in
    let key = Array.unsafe_get t.hm 1 in
    if key land 1 = 1 then begin
      let id = key lsr 1 in
      let n = Array.unsafe_get t.port_n id - 1 in
      Array.unsafe_set t.port_n id n;
      if n = 0 then pop_root t
      else begin
        (* The port's next event takes over the root. *)
        let q = Array.unsafe_get t.port_q id in
        let h = q.fh in
        q.fh <- (h + 1) land (Array.length q.fs - 1);
        Float.Array.unsafe_set t.tscratch 0 (Float.Array.unsafe_get q.ft h);
        sift_down t (Array.unsafe_get q.fs h) key
      end;
      if time < now t then record_nonmonotonic t time else set_clock t time;
      t.n_exec <- t.n_exec + 1;
      (Array.unsafe_get t.ports id) ()
    end
    else begin
      (* Cell indices in heap keys were valid at enqueue time and the
         slab never shrinks, so the unsafe reads are in bounds. *)
      let idx = key lsr 1 in
      if Array.unsafe_get t.cell_hseq idx <> seq then pop_root t (* cancelled *)
      else if Array.unsafe_get t.cell_seq idx <> seq then reseat t idx key
      else begin
        let action = Array.unsafe_get t.cell_act idx in
        pop_root t;
        consume t idx;
        if time < now t then record_nonmonotonic t time else set_clock t time;
        t.n_exec <- t.n_exec + 1;
        if !Invariant.armed then check_cells t;
        action ()
      end
    end;
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
    if not (Float.is_finite limit) then invalid_arg "Engine.run: until must be finite";
    while t.hlen > 0 && not (Float.Array.unsafe_get t.hp 0 > limit) do
      ignore (step t : bool)
    done;
    if limit > now t then set_clock t limit
