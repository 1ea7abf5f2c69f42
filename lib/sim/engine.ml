(* Allocation-free event core.

   The previous engine allocated, per scheduled event: a [handle] record,
   an [event] record, the action closure, and a boxed float inside the
   heap entry.  At ~10 events per simulated packet that allocation (and
   the GC work to collect it) dominated the per-packet cost.

   This version keeps everything in flat arrays:

   - The event queue is a structure-of-arrays 8-ary min-heap ordered by
     (time, seq): [hp.(i)] holds entry [i]'s timestamp in a [floatarray]
     (unboxed), and [hm] interleaves the FIFO tie-break sequence number
     ([hm.(2i)]) with the payload key ([hm.(2i+1)]) so both land on the
     same cache line.  The heap is inlined here rather than reusing the
     generic {!Heap}: without flambda, [Heap.pop]'s cross-module call
     and the [Some (time, seq, v)] tuple it allocates (including a
     freshly boxed float) cost about 2x on the event-churn
     microbenchmark (the bench's [micro] experiment).

   - Cancellable events live in a slab of reusable cells in parallel
     arrays.  A cell is identified by its index and a generation
     counter; the packed [((generation << idx_bits) | index) << 1] int
     is both the heap payload and the cancellation handle — an
     immediate, so scheduling allocates nothing.  Cancellation bumps the
     cell's generation (entries already in the heap become stale and are
     skipped when popped) and recycles the cell through a free list.  A
     stale handle — cancelled, fired, or pointing at a recycled cell —
     always fails the generation check, so cancel-after-recycle is safe.

   - Hot paths that fire the same logical event over and over (a link's
     transmit-complete and propagation-delivery) pre-register their
     handler once as a {!port}: an index into a per-engine registry,
     carried in the heap key with tag bit 0 set.  Scheduling a port
     touches no cell, no free list and no closure — one heap push.

   Timestamps are compared with raw [<] / [=] rather than
   [Float.compare]: {!checked_time} / {!checked_delay} guarantee every
   queued time is finite (strict mode raises on NaN/infinite input, the
   armed sanitizer clamps to the current clock, itself always finite),
   and on finite floats the raw comparisons agree with [Float.compare]'s
   total order up to -0. = 0. — a tie the seq number then breaks in
   scheduling order, which is exactly the documented FIFO contract. *)

type handle = int

(* Real handles are [packed << 1] of non-negative generation and index,
   so every one is >= 0: any negative int is recognizably no handle at
   all.  [cancel]'s bounds-then-generation check already rejects it. *)
let null : handle = -1

let is_null (h : handle) = h < 0

type port = int

(* 2^25 simultaneous cells is far beyond any simulation here; the
   remaining 37 bits of generation would take ~1.4e11 reuses of one cell
   to wrap. *)
let idx_bits = 25
let idx_mask = (1 lsl idx_bits) - 1

let nop () = ()

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
  (* 8-ary min-heap over (time, seq, key). *)
  mutable hp : floatarray;
  mutable hm : int array;  (* hm.(2i) = seq, hm.(2i+1) = key *)
  mutable hlen : int;
  mutable next_seq : int;
  mutable n_exec : int;
  mutable stopping : bool;
  (* Event-cell slab (struct of arrays) plus its free list.  Every cell
     is at all times either live (scheduled, counted by [n_live]) or on
     the free list — the [cell-accounting] sanitizer rule checks this. *)
  mutable cell_gen : int array;
  mutable cell_act : (unit -> unit) array;
  mutable free : int array;
  mutable free_len : int;
  mutable n_live : int;
  (* Pre-registered port handlers; never unregistered. *)
  mutable ports : (unit -> unit) array;
  mutable n_ports : int;
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
    stopping = false;
    cell_gen = [||];
    cell_act = [||];
    free = [||];
    free_len = 0;
    n_live = 0;
    ports = [||];
    n_ports = 0;
  }

let[@inline] now t = Float.Array.unsafe_get t.clock 0
let[@inline] set_clock t v = Float.Array.unsafe_set t.clock 0 v

(* {2 Heap primitives}

   Hole-style sifts: keep the moving element in registers, shift
   entries over it, write it once at its final slot.  The unsafe
   accessors are justified by the loop bounds: indices stay within
   [0, hlen) and the arrays never shrink. *)

let grow_heap t =
  let cap = Float.Array.length t.hp in
  let ncap = Stdlib.max 64 (2 * cap) in
  (* Amortized doubling; a sized [create] pre-allocates and never grows. *)
  let np = Float.Array.create ncap in (* phi-lint: allow hot-alloc *)
  Float.Array.blit t.hp 0 np 0 t.hlen;
  t.hp <- np;
  let nm = Array.make (2 * ncap) 0 in (* phi-lint: allow hot-alloc *)
  Array.blit t.hm 0 nm 0 (2 * t.hlen);
  t.hm <- nm

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
    let parent = (!i - 1) lsr 3 in
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

(* Re-seat [(time, seq, key)] (the former last entry) starting from the
   root, after the minimum has been removed. *)
let sift_down t seq key =
  let time = Float.Array.unsafe_get t.tscratch 0 in
  let hp = t.hp and hm = t.hm in
  let len = t.hlen in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let base = (8 * !i) + 1 in
    if base >= len then continue := false
    else begin
      (* Find the smallest of the up-to-eight children. *)
      let last = Stdlib.min (base + 7) (len - 1) in
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

(* {2 Event cells} *)

let grow_slab t =
  let cap = Array.length t.cell_gen in
  let ncap = Stdlib.max 64 (2 * cap) in
  if ncap > idx_mask + 1 then invalid_arg "Engine: event slab exceeds 2^25 cells";
  (* Amortized doubling; a sized [create] pre-allocates and never grows. *)
  let ngen = Array.make ncap 0 in (* phi-lint: allow hot-alloc *)
  Array.blit t.cell_gen 0 ngen 0 cap;
  t.cell_gen <- ngen;
  let nact = Array.make ncap nop in (* phi-lint: allow hot-alloc *)
  Array.blit t.cell_act 0 nact 0 cap;
  t.cell_act <- nact;
  let nfree = Array.make ncap 0 in (* phi-lint: allow hot-alloc *)
  Array.blit t.free 0 nfree 0 t.free_len;
  t.free <- nfree;
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
   sanitizer armed, are recorded and clamped to "now" so that one broken
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

let[@inline never] negative_delay t delay =
  let msg = Printf.sprintf "Engine.schedule_after: negative delay %g" delay in
  if Invariant.enabled () then begin
    Invariant.record ~rule:"negative-delay" ~time:(now t) msg;
    0.
  end
  else invalid_arg msg

let[@inline] checked_time t time =
  if not (Float.is_finite time) then bad_time t time
  else if time < now t then past_time t time
  else time

let[@inline] checked_delay t delay = if delay < 0. then negative_delay t delay else delay

(* The enqueue path hands timestamps to [push] through [tscratch] and is
   forced inline so the timestamp never crosses a call boundary as a
   float argument (which would box it, once per scheduled event). *)
let[@inline] enqueue t action =
  if t.free_len = 0 then grow_slab t;
  t.free_len <- t.free_len - 1;
  let idx = Array.unsafe_get t.free t.free_len in
  t.cell_act.(idx) <- action;
  t.n_live <- t.n_live + 1;
  let key = ((Array.unsafe_get t.cell_gen idx lsl idx_bits) lor idx) lsl 1 in
  push t ~seq:t.next_seq key;
  t.next_seq <- t.next_seq + 1;
  key

let[@inline] schedule_at t ~time f =
  Float.Array.unsafe_set t.tscratch 0 (checked_time t time);
  enqueue t f

let[@inline] schedule_after t ~delay f =
  Float.Array.unsafe_set t.tscratch 0 (now t +. checked_delay t delay);
  enqueue t f

(* {2 Ports} *)

let port t f =
  let cap = Array.length t.ports in
  if t.n_ports = cap then begin
    let np = Array.make (Stdlib.max 8 (2 * cap)) nop in
    Array.blit t.ports 0 np 0 cap;
    t.ports <- np
  end;
  t.ports.(t.n_ports) <- f;
  t.n_ports <- t.n_ports + 1;
  t.n_ports - 1

let[@inline] push_port t id =
  if id < 0 || id >= t.n_ports then
    invalid_arg "Engine.schedule_port: port is not registered on this engine";
  push t ~seq:t.next_seq ((id lsl 1) lor 1);
  t.next_seq <- t.next_seq + 1

let[@inline] schedule_port_at t ~time id =
  Float.Array.unsafe_set t.tscratch 0 (checked_time t time);
  push_port t id

let[@inline] schedule_port_after t ~delay id =
  Float.Array.unsafe_set t.tscratch 0 (now t +. checked_delay t delay);
  push_port t id

(* {2 Cancellation} *)

let cancel t handle =
  let k = handle lsr 1 in
  let idx = k land idx_mask in
  if idx < Array.length t.cell_gen && t.cell_gen.(idx) = k lsr idx_bits then begin
    consume t idx;
    t.cell_act.(idx) <- nop
  end

let cancelled t handle =
  let k = handle lsr 1 in
  let idx = k land idx_mask in
  not (idx < Array.length t.cell_gen && t.cell_gen.(idx) = k lsr idx_bits)

let pending t = t.hlen
let executed t = t.n_exec

let[@inline never] record_nonmonotonic t time =
  Invariant.record ~rule:"event-time-monotonic" ~time:(now t)
    (Printf.sprintf "Engine.step: popped event at %g behind clock %g" time (now t))

let step t =
  if t.hlen = 0 then false
  else begin
    let time = Float.Array.unsafe_get t.hp 0 in
    let key = Array.unsafe_get t.hm 1 in
    let len = t.hlen - 1 in
    t.hlen <- len;
    if len > 0 then begin
      Float.Array.unsafe_set t.tscratch 0 (Float.Array.unsafe_get t.hp len);
      sift_down t (Array.unsafe_get t.hm (2 * len)) (Array.unsafe_get t.hm ((2 * len) + 1))
    end;
    if time < now t then record_nonmonotonic t time else set_clock t time;
    if key land 1 = 1 then begin
      t.n_exec <- t.n_exec + 1;
      (Array.unsafe_get t.ports (key lsr 1)) ()
    end
    else begin
      let k = key lsr 1 in
      let idx = k land idx_mask in
      (* Indices in heap keys were valid at enqueue time and the slab
         never shrinks, so the unsafe read is in bounds; the generation
         check rejects stale (cancelled or recycled) entries. *)
      if Array.unsafe_get t.cell_gen idx = k lsr idx_bits then begin
        let action = Array.unsafe_get t.cell_act idx in
        consume t idx;
        t.n_exec <- t.n_exec + 1;
        if !Invariant.armed then check_cells t;
        action ()
      end
    end;
    true
  end

let stop t = t.stopping <- true

let run ?until t =
  t.stopping <- false;
  (* Two closures per [run] call, not per event; runs span millions of
     events so this is outside the per-event budget. *)
  let horizon_reached () = (* phi-lint: allow hot-alloc *)
    match until with
    | None -> false
    | Some limit -> t.hlen = 0 || Float.Array.get t.hp 0 > limit
  in
  let rec loop () = (* phi-lint: allow hot-alloc *)
    if t.stopping then ()
    else if horizon_reached () then ()
    else if step t then loop ()
  in
  loop ();
  match until with
  | Some limit when not t.stopping -> if limit > now t then set_clock t limit
  | _ -> ()
