(* Structure-of-arrays 4-ary min-heap.

   Priorities live in a [Float.Array.t]: a mixed OCaml record with a
   float field boxes that float, so the previous entry-record design
   paid one box per pending event plus pointer-chasing on every sift.
   Here a sift touches three parallel arrays (flat float storage,
   immediate ints for seqs, payload words) — no dereferences, no
   allocation on push/pop.

   4-ary beats binary here: the tree is half as deep, and the four
   children of node [i] are adjacent ([4i+1 .. 4i+4]), so a sift-down
   level is one cache line of priorities instead of a scattered pair. *)

type 'a t = {
  mutable prio : Float.Array.t;
  mutable seq : int array;
  mutable payload : 'a array;
  mutable len : int;
}

let create () =
  { prio = Float.Array.create 0; seq = [||]; payload = [||]; len = 0 }

let size t = t.len
let is_empty t = t.len = 0

(* Explicit total order: [Float.compare] (never [=] on floats) makes the
   heap self-defending against NaN priorities — NaN compares less than
   every other float, deterministically, instead of poisoning the
   ordering the way [<]/[=] comparisons would.  (The engine rejects
   non-finite times at [checked_time]; this is defense in depth.)
   Ties break on the lower sequence number: FIFO among equal
   priorities, the property deterministic replay rests on. *)
let less t i j =
  let c = Float.compare (Float.Array.get t.prio i) (Float.Array.get t.prio j) in
  if c <> 0 then c < 0 else t.seq.(i) < t.seq.(j)

let grow t filler =
  let cap = Array.length t.seq in
  if t.len = cap then begin
    let ncap = Int.max 16 (2 * cap) in
    let nprio = Float.Array.create ncap in
    Float.Array.blit t.prio 0 nprio 0 t.len;
    t.prio <- nprio;
    let nseq = Array.make ncap 0 in
    Array.blit t.seq 0 nseq 0 t.len;
    t.seq <- nseq;
    let npayload = Array.make ncap filler in
    Array.blit t.payload 0 npayload 0 t.len;
    t.payload <- npayload
  end

let swap t i j =
  let p = Float.Array.get t.prio i in
  Float.Array.set t.prio i (Float.Array.get t.prio j);
  Float.Array.set t.prio j p;
  let s = t.seq.(i) in
  t.seq.(i) <- t.seq.(j);
  t.seq.(j) <- s;
  let v = t.payload.(i) in
  t.payload.(i) <- t.payload.(j);
  t.payload.(j) <- v

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 4 in
    if less t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let first = (4 * i) + 1 in
  if first < t.len then begin
    let last = Int.min (first + 3) (t.len - 1) in
    let smallest = ref i in
    for c = first to last do
      if less t c !smallest then smallest := c
    done;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end
  end

let push t ~priority ~seq payload =
  grow t payload;
  let i = t.len in
  Float.Array.set t.prio i priority;
  t.seq.(i) <- seq;
  t.payload.(i) <- payload;
  t.len <- i + 1;
  sift_up t i

let peek t =
  if t.len = 0 then None
  else Some (Float.Array.get t.prio 0, t.seq.(0), t.payload.(0))

let pop t =
  if t.len = 0 then None
  else begin
    let priority = Float.Array.get t.prio 0
    and seq = t.seq.(0)
    and payload = t.payload.(0) in
    let last = t.len - 1 in
    t.len <- last;
    if last > 0 then begin
      Float.Array.set t.prio 0 (Float.Array.get t.prio last);
      t.seq.(0) <- t.seq.(last);
      t.payload.(0) <- t.payload.(last);
      (* Keep the vacated tail slot pointing at a live payload so the
         heap never pins a popped element. *)
      t.payload.(last) <- t.payload.(0);
      sift_down t 0
    end;
    Some (priority, seq, payload)
  end

let clear t =
  t.prio <- Float.Array.create 0;
  t.seq <- [||];
  t.payload <- [||];
  t.len <- 0
