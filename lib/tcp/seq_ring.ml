let initial_capacity = 64

(* [mask] is the capacity minus one; an empty ring has capacity 0, so
   every read misses until the first [set] allocates. *)
type t = { mutable flags : Bytes.t; mutable mask : int }

let create () = { flags = Bytes.empty; mask = -1 }

let[@inline] get t ~base seq =
  let off = seq - base in
  if off >= 0 && off <= t.mask then Char.code (Bytes.get t.flags (seq land t.mask)) else 0

(* Double until [seq] fits, moving every live entry, [base, base + old
   capacity), to its slot under the new mask. *)
let[@inline never] grow t ~base seq =
  if seq < base then
    invalid_arg (Printf.sprintf "Seq_ring.set: seq %d below base %d" seq base);
  let cap = ref (Int.max initial_capacity (2 * (t.mask + 1))) in
  while seq - base >= !cap do
    cap := 2 * !cap
  done;
  let flags = Bytes.make !cap '\000' and mask = !cap - 1 in
  for s = base to base + t.mask do
    Bytes.set flags (s land mask) (Bytes.get t.flags (s land t.mask))
  done;
  t.flags <- flags;
  t.mask <- mask

let set t ~base seq v =
  let off = seq - base in
  if off < 0 || off > t.mask then grow t ~base seq;
  Bytes.set t.flags (seq land t.mask) (Char.unsafe_chr v)

let clear t = Bytes.fill t.flags 0 (Bytes.length t.flags) '\000'
