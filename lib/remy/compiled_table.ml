type t = {
  dims : int;
  (* Interior cut points per axis, sorted ascending, padded to a
     power-of-two length with [infinity] so the interval search below
     needs no length check.  An axis with a single interval stores just
     the padding. *)
  cuts : floatarray array;
  (* Intervals per axis (= interior cuts + 1). *)
  sizes : int array;
  (* Flat cell -> whisker index, axis-major. *)
  cells : int array;
  (* SoA copies of the whisker actions (already clamped by
     [Whisker.create]). *)
  inc : floatarray;
  mult : floatarray;
  isend : floatarray;
}

let max_cells = 1 lsl 22

let sorted_unique values =
  let values = List.sort_uniq Float.compare values in
  Array.of_list values

let pow2_at_least n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(* Distinct box boundaries on [axis], ascending: the grid lines. *)
let boundaries whiskers axis =
  sorted_unique
    (List.concat_map
       (fun w ->
         [ w.Whisker.box.Whisker.lo.(axis); w.Whisker.box.Whisker.hi.(axis) ])
       whiskers)

let compile table =
  let dims = Rule_table.dims table in
  let whiskers = Rule_table.whiskers table in
  let bounds = Array.init dims (fun axis -> boundaries whiskers axis) in
  (* The grid must be the unit cube: a lookup clamps every point into
     the grid, so a table covering less would silently stretch its edge
     whiskers over the rest.  Gaps inside the cube raise below, when a
     cell center matches no whisker. *)
  Array.iter
    (fun b ->
      let n = Array.length b in
      if n < 2 || not (Float.equal b.(0) 0. && Float.equal b.(n - 1) 1.) then
        invalid_arg "Compiled_table.compile: the whiskers do not span [0, 1] on every axis")
    bounds;
  let sizes = Array.map (fun b -> Array.length b - 1) bounds in
  let cell_count = Array.fold_left ( * ) 1 sizes in
  if cell_count > max_cells then
    invalid_arg
      (Printf.sprintf "Compiled_table.compile: %d cells exceeds the %d-cell cap" cell_count
         max_cells);
  let cuts =
    Array.map
      (fun b ->
        (* Interior boundaries only: the outer faces bound the whole
           cube, so they never discriminate between intervals. *)
        let interior = Array.length b - 2 in
        let padded = Float.Array.make (pow2_at_least (Int.max 1 interior)) infinity in
        for i = 0 to interior - 1 do
          Float.Array.set padded i b.(i + 1)
        done;
        padded)
      bounds
  in
  (* Resolve each grid cell through the interpreted reference lookup on
     the cell's center.  Grid lines include every whisker boundary, so a
     whisker box is exactly a union of cells: the center's whisker is
     the whole cell's whisker. *)
  let cells = Array.make cell_count 0 in
  let center = Array.make dims 0. in
  let indices = Array.make dims 0 in
  for cell = 0 to cell_count - 1 do
    let rest = ref cell in
    for axis = dims - 1 downto 0 do
      indices.(axis) <- !rest mod sizes.(axis);
      rest := !rest / sizes.(axis)
    done;
    for axis = 0 to dims - 1 do
      let b = bounds.(axis) in
      let i = indices.(axis) in
      center.(axis) <- (b.(i) +. b.(i + 1)) /. 2.
    done;
    cells.(cell) <- Rule_table.lookup_index table center
  done;
  (* The loop above found a whisker for every cell, so the boxes tile
     the grid exactly only if no cell lies in two of them, i.e. if the
     boxes' cell counts sum to the grid's.  On each axis a box spans the
     intervals between the grid lines of its two faces. *)
  let line axis x = Option.get (Array.find_index (Float.equal x) bounds.(axis)) in
  let covered =
    List.fold_left
      (fun acc w ->
        let { Whisker.lo; hi } = w.Whisker.box in
        let span axis = line axis hi.(axis) - line axis lo.(axis) in
        acc + Array.fold_left ( * ) 1 (Array.init dims span))
      0 whiskers
  in
  if covered <> cell_count then
    invalid_arg
      (Printf.sprintf
         "Compiled_table.compile: whiskers overlap (their boxes cover %d cells of the %d-cell \
          grid)"
         covered cell_count);
  let n = List.length whiskers in
  let inc = Float.Array.create n in
  let mult = Float.Array.create n in
  let isend = Float.Array.create n in
  List.iteri
    (fun i w ->
      let a = w.Whisker.action in
      Float.Array.set inc i a.Whisker.window_increment;
      Float.Array.set mult i a.Whisker.window_multiple;
      Float.Array.set isend i a.Whisker.intersend_s)
    whiskers;
  { dims; cuts; sizes; cells; inc; mult; isend }

(* Count of cut points <= p.(axis): branch-free binary search over a
   power-of-two array (padding is [infinity], never <= a finite
   coordinate).  With half-open boxes this count is exactly the
   interval index: a point sitting on a cut belongs to the interval the
   cut opens, and x = 1 lands in the last interval (the inclusive upper
   face).  The probe coordinate is re-read from the floatarray inside
   each comparison rather than passed as an argument: float arguments
   are boxed across function calls (two minor words per axis per
   lookup), while int-and-pointer arguments keep the whole search
   allocation-free. *)
let rec count_le (cuts : floatarray) (p : floatarray) axis base half =
  if half = 0 then
    base
    + Bool.to_int (Float.Array.unsafe_get cuts base <= Float.Array.unsafe_get p axis)
  else
    let le =
      Float.Array.unsafe_get cuts (base + half - 1) <= Float.Array.unsafe_get p axis
    in
    count_le cuts p axis (base + (half land -(Bool.to_int le))) (half lsr 1)

let rec cell_of t (p : floatarray) axis acc =
  if axis >= t.dims then acc
  else
    let cuts = Array.unsafe_get t.cuts axis in
    let idx = count_le cuts p axis 0 (Float.Array.length cuts lsr 1) in
    cell_of t p (axis + 1) ((acc * Array.unsafe_get t.sizes axis) + idx)

let[@inline] lookup t (p : floatarray) = Array.unsafe_get t.cells (cell_of t p 0 0)

let lookup_point t point =
  if Array.length point < t.dims then invalid_arg "Compiled_table.lookup_point: short point";
  let p = Float.Array.create t.dims in
  for i = 0 to t.dims - 1 do
    Float.Array.set p i point.(i)
  done;
  lookup t p

let[@inline] apply t index ~cwnd =
  let x =
    (Float.Array.unsafe_get t.mult index *. cwnd) +. Float.Array.unsafe_get t.inc index
  in
  Float.max 1. (Float.min Whisker.max_cwnd x)

let[@inline] window_increment t index = Float.Array.get t.inc index
let[@inline] window_multiple t index = Float.Array.get t.mult index
let[@inline] intersend_s t index = Float.Array.unsafe_get t.isend index

let dims t = t.dims
let size t = Float.Array.length t.inc
let cell_count t = Array.length t.cells
