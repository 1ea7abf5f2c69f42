type 'a t = { mutable data : 'a array; mutable head : int; mutable len : int }

let create () = { data = [||]; head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

(* Doubling growth; the first pushed element doubles as the filler for
   the unused slots (same trick as Heap), so no dummy value is needed and
   ['a] stays unconstrained. *)
let grow t x =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let ncap = Int.max 16 (2 * cap) in
    (* Amortized doubling; steady-state pushes reuse the existing array. *)
    let ndata = Array.make ncap x in (* phi-lint: allow hot-alloc *)
    for i = 0 to t.len - 1 do
      ndata.(i) <- t.data.((t.head + i) mod cap)
    done;
    t.data <- ndata;
    t.head <- 0
  end

let push t x =
  grow t x;
  let cap = Array.length t.data in
  let tail = t.head + t.len in
  t.data.(if tail >= cap then tail - cap else tail) <- x;
  t.len <- t.len + 1

let peek_opt t = if t.len = 0 then None else Some t.data.(t.head)

let peek t =
  if t.len = 0 then invalid_arg "Ring.peek: empty";
  t.data.(t.head)

let pop t =
  if t.len = 0 then invalid_arg "Ring.pop: empty";
  let old = t.head in
  let x = t.data.(old) in
  let next = old + 1 in
  t.head <- (if next >= Array.length t.data then 0 else next);
  t.len <- t.len - 1;
  (* Overwrite the vacated slot with a still-live element so the ring
     retains at most one stale reference (when it just became empty). *)
  if t.len > 0 then t.data.(old) <- t.data.(t.head);
  x

let pop_opt t = if t.len = 0 then None else Some (pop t)

let fold f acc t =
  let cap = Array.length t.data in
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.((t.head + i) mod cap)
  done;
  !acc

let iter f t = fold (fun () x -> f x) () t

let clear t =
  t.data <- [||];
  t.head <- 0;
  t.len <- 0
