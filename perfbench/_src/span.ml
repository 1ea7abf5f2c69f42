(* In-memory spans: name, start, end and parent, kept in growable arrays
   and written out as JSON lines when the benchmark ends.

   Calls too frequent to keep one span each (a controller's per-ACK
   hook, one wire decode) are charged to their enclosing span as
   aggregated child time with {!charge}.  A span's self time is its
   duration minus the part of it that child spans cover (overlapping
   children count once) minus the aggregated time charged to it. *)

type t = {
  mutable n : int;
  mutable names : string array;
  mutable parents : int array;
  mutable starts : int array;
  mutable stops : int array;
  mutable charged : int array;
}

let none = -1

let create () =
  let cap = 64 in
  {
    n = 0;
    names = Array.make cap "";
    parents = Array.make cap none;
    starts = Array.make cap 0;
    stops = Array.make cap 0;
    charged = Array.make cap 0;
  }

let grow t =
  let cap = 2 * Array.length t.names in
  let extend a fill = Array.append a (Array.make (cap - Array.length a) fill) in
  t.names <- extend t.names "";
  t.parents <- extend t.parents none;
  t.starts <- extend t.starts 0;
  t.stops <- extend t.stops 0;
  t.charged <- extend t.charged 0

(* Record a finished span and return its id. *)
let add t ?(parent = none) name ~start ~stop =
  if t.n = Array.length t.names then grow t;
  let id = t.n in
  t.n <- id + 1;
  t.names.(id) <- name;
  t.parents.(id) <- parent;
  t.starts.(id) <- start;
  t.stops.(id) <- stop;
  id

let charge t id ns = t.charged.(id) <- t.charged.(id) + ns
let duration t id = t.stops.(id) - t.starts.(id)

let children t id =
  let acc = ref [] in
  for c = t.n - 1 downto 0 do
    if t.parents.(c) = id then acc := c :: !acc
  done;
  !acc

(* Length of the union of the children's intervals, clipped to the
   span's own interval. *)
let covered t id =
  let lo = t.starts.(id) and hi = t.stops.(id) in
  let ivs =
    List.filter_map
      (fun c ->
        let a = Stdlib.max lo t.starts.(c) and b = Stdlib.min hi t.stops.(c) in
        if b > a then Some (a, b) else None)
      (children t id)
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, (cur_a, cur_b)) (a, b) ->
        if a > cur_b then (total + (cur_b - cur_a), (a, b)) else (total, (cur_a, Stdlib.max cur_b b)))
      (0, (lo, lo)) ivs
  in
  total + (snd last - fst last)

let self_ns t id = duration t id - covered t id - t.charged.(id)

(* The part of a span that a named layer accounts for.  A leaf (no
   children, nothing charged) is one layer's time and counts whole.  A
   span with children or charged time is a container: its own self time
   is time no layer claims, and its children are counted the same way. *)
let rec attributed_ns t id =
  let kids = children t id in
  if kids = [] && t.charged.(id) = 0 then duration t id
  else
    duration t id
    - Stdlib.max 0 (self_ns t id)
    - List.fold_left (fun a c -> a + (duration t c - attributed_ns t c)) 0 kids

(* Share of the summed durations of the spans called [name] that named
   layers account for, in the sense of {!attributed_ns}. *)
let attributed_share t name =
  let total = ref 0 and attributed = ref 0 in
  for id = 0 to t.n - 1 do
    if t.names.(id) = name then begin
      total := !total + duration t id;
      attributed := !attributed + attributed_ns t id
    end
  done;
  if !total = 0 then 0. else float_of_int !attributed /. float_of_int !total

(* Summed durations of the spans without a parent. *)
let top_level_ns t =
  let s = ref 0 in
  for id = 0 to t.n - 1 do
    if t.parents.(id) = none then s := !s + duration t id
  done;
  !s

let write t path =
  let oc = open_out path in
  for id = 0 to t.n - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"name\":%S,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d,\"self_ns\":%d}\n" id
      t.names.(id) t.parents.(id) t.starts.(id) t.stops.(id) (self_ns t id)
  done;
  close_out oc
