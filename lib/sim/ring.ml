(* The capacity is zero or a power of two, so a slot is
   [index land mask]; [mask] is capacity - 1 (-1 while empty, never
   used: [push] grows before its first store). *)
type t = { mutable data : int array; mutable mask : int; mutable head : int; mutable len : int }

let create () = { data = [||]; mask = -1; head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

(* Amortized doubling, out of line so the inlined [push] stays a bounds
   test, one store and two field updates. *)
let[@inline never] grow t =
  let cap = Array.length t.data in
  let ncap = Int.max 16 (2 * cap) in
  let ndata = Array.make ncap 0 in
  for i = 0 to t.len - 1 do
    Array.unsafe_set ndata i (Array.unsafe_get t.data ((t.head + i) land t.mask))
  done;
  t.data <- ndata;
  t.mask <- ncap - 1;
  t.head <- 0

let[@inline never] empty what = invalid_arg what

(* Slots are in bounds: [mask] is the capacity minus one. *)
let[@inline] push t x =
  if t.len = Array.length t.data then grow t;
  Array.unsafe_set t.data ((t.head + t.len) land t.mask) x;
  t.len <- t.len + 1

let[@inline] peek t =
  if t.len = 0 then empty "Ring.peek: empty";
  Array.unsafe_get t.data t.head

let[@inline] pop t =
  if t.len = 0 then empty "Ring.pop: empty";
  let x = Array.unsafe_get t.data t.head in
  t.head <- (t.head + 1) land t.mask;
  t.len <- t.len - 1;
  x

let peek_opt t = if t.len = 0 then None else Some (peek t)
let pop_opt t = if t.len = 0 then None else Some (pop t)

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc (Array.unsafe_get t.data ((t.head + i) land t.mask))
  done;
  !acc

let iter f t = fold (fun () x -> f x) () t

let clear t =
  t.data <- [||];
  t.mask <- -1;
  t.head <- 0;
  t.len <- 0
