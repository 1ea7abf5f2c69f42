module Stats = Phi_util.Stats

let cold_start_jitter_buffer_ms = 120.

let jitter_buffer_ms ~shared_jitter_ms () = Stats.percentile shared_jitter_ms ~p:95. +. 5.

let late_packet_fraction ~jitter_ms ~buffer_ms =
  if Array.length jitter_ms = 0 then 0.
  else
    let late = Array.fold_left (fun acc j -> if j > buffer_ms then acc + 1 else acc) 0 jitter_ms in
    float_of_int late /. float_of_int (Array.length jitter_ms)

let dupack_threshold ~reorder_depths () =
  let n = Array.length reorder_depths in
  if n = 0 then 3
  else
    (* A fast retransmit at threshold k is spurious when a segment merely
       reordered by depth >= k triggers it; pick the smallest k bounding
       that fraction. *)
    let spurious_fraction k =
      let hits = Array.fold_left (fun acc d -> if d >= k then acc + 1 else acc) 0 reorder_depths in
      float_of_int hits /. float_of_int n
    in
    let rec search k = if spurious_fraction k <= 0.01 then k else search (k + 1) in
    search 3
