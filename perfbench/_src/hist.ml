(* Log-bucketed (HDR-style) histogram of non-negative integers,
   typically nanoseconds.  Values below [2^sub_bits] get a bucket each;
   above that every power-of-two range is split into [2^sub_bits] linear
   sub-buckets, so a reported percentile is the highest value of the
   bucket holding the exact one and overstates it by less than
   [2^-sub_bits] (under 0.8 %).  Recording is one array increment. *)

let sub_bits = 7
let sub = 1 lsl sub_bits

(* The highest set bit of a non-negative OCaml int is bit 61. *)
let n_buckets = (62 - sub_bits + 1) * sub

type t = { counts : int array; mutable n : int; mutable max : int }

let create () = { counts = Array.make n_buckets 0; n = 0; max = 0 }

let rec msb v e = if v > 1 then msb (v lsr 1) (e + 1) else e

let index v =
  if v < sub then v
  else
    let e = msb v 0 in
    let shift = e - sub_bits in
    ((shift + 1) * sub) + ((v lsr shift) - sub)

(* Largest value that lands in bucket [i]. *)
let upper i =
  if i < sub then i
  else
    let shift = (i / sub) - 1 in
    let mantissa = (i mod sub) + sub in
    ((mantissa + 1) lsl shift) - 1

let record t v =
  let v = if v < 0 then 0 else v in
  let i = index v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1;
  if v > t.max then t.max <- v

let count t = t.n

let clear t =
  Array.fill t.counts 0 n_buckets 0;
  t.n <- 0;
  t.max <- 0

type percentile = {
  value : int;  (** highest value of the bucket holding the nearest-rank sample *)
  samples : int;  (** samples recorded *)
  above : int;  (** samples strictly greater than [value] *)
}

(* Nearest rank: the smallest recorded value with at least [p] % of the
   samples at or below it.  [None] on an empty histogram. *)
let percentile t p =
  if t.n = 0 then None
  else begin
    let rank = Stdlib.max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int t.n))) in
    let i = ref 0 and seen = ref t.counts.(0) in
    while !seen < rank do
      incr i;
      seen := !seen + t.counts.(!i)
    done;
    Some { value = Stdlib.min (upper !i) t.max; samples = t.n; above = t.n - !seen }
  end

(* A percentile is worth reporting only when at least ten samples lie
   beyond it; below that it is one outlier's value. *)
let reportable = function Some p -> p.above >= 10 | None -> false
