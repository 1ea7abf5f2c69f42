module Rs = Phi_workload.Request_stream

type finding = { scope : Rs.scope; deficit_share : float; own_drop : float }

let window_sums series (start_min, end_min) baseline =
  let actual = ref 0. and expected = ref 0. in
  for i = start_min to end_min - 1 do
    if i >= 0 && i < Array.length series then begin
      actual := !actual +. series.(i);
      expected := !expected +. baseline.(i)
    end
  done;
  (!actual, !expected)

let uniques values = List.sort_uniq String.compare values

(* Every single-value slice plus every (metro, ISP) pair present. *)
let candidate_scopes cells =
  let cells_only = List.map fst cells in
  let metros = uniques (List.map (fun (c : Rs.cell) -> c.Rs.metro) cells_only) in
  let isps = uniques (List.map (fun (c : Rs.cell) -> c.Rs.isp) cells_only) in
  let services = uniques (List.map (fun (c : Rs.cell) -> c.Rs.service) cells_only) in
  let pair_scopes =
    List.concat_map
      (fun metro ->
        List.map (fun isp -> { Rs.metro = Some metro; isp = Some isp; service = None }) isps)
      metros
  in
  let single f = List.map f in
  pair_scopes
  @ single (fun m -> { Rs.metro = Some m; isp = None; service = None }) metros
  @ single (fun i -> { Rs.metro = None; isp = Some i; service = None }) isps
  @ single (fun s -> { Rs.metro = None; isp = None; service = Some s }) services

let scope_specificity (s : Rs.scope) =
  let count = function Some _ -> 1 | None -> 0 in
  count s.Rs.metro + count s.Rs.isp + count s.Rs.service

(* Deficit of a scope inside the window, against each cell's own seasonal
   baseline. *)
let evaluate_scope ~cells ~window ~baselines scope =
  let actual = ref 0. and expected = ref 0. in
  List.iter2
    (fun (cell, series) baseline ->
      if Rs.scope_matches scope cell then begin
        let a, e = window_sums series window baseline in
        actual := !actual +. a;
        expected := !expected +. e
      end)
    cells baselines;
  let deficit = Float.max 0. (!expected -. !actual) in
  let own_drop = if !expected > 0. then deficit /. !expected else 0. in
  (deficit, own_drop)

let findings ~cells ~window =
  let baselines = List.map (fun (_, series) -> Series.seasonal_baseline series) cells in
  let global_deficit =
    let total = ref 0. in
    List.iter2
      (fun (_, series) baseline ->
        let a, e = window_sums series window baseline in
        total := !total +. Float.max 0. (e -. a))
      cells baselines;
    !total
  in
  List.map
    (fun scope ->
      let deficit, own_drop = evaluate_scope ~cells ~window ~baselines scope in
      let deficit_share = if global_deficit > 0. then deficit /. global_deficit else 0. in
      { scope; deficit_share; own_drop })
    (candidate_scopes cells)

let rank ~cells ~window =
  findings ~cells ~window
  |> List.sort (fun a b -> Float.compare b.deficit_share a.deficit_share)

let localize ~cells ~window () =
  let explaining =
    List.filter
      (fun f -> f.deficit_share >= 0.6 && f.own_drop >= 0.3)
      (findings ~cells ~window)
  in
  (* Most specific first; ties broken by hardest own drop. *)
  let ordered =
    List.sort
      (fun a b ->
        match Int.compare (scope_specificity b.scope) (scope_specificity a.scope) with
        | 0 -> Float.compare b.own_drop a.own_drop
        | c -> c)
      explaining
  in
  match ordered with [] -> None | best :: _ -> Some best
