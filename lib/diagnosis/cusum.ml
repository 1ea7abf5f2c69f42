type event = { alarm_min : int; start_min : int; end_min : int }

(* The per-minute drift tolerated ([k]). *)
let reference = 0.5

let detect ?(alarm_threshold = 8.0) ~actual ~baseline () =
  if alarm_threshold <= 0. then invalid_arg "Cusum.detect: alarm threshold must be positive";
  let z = Series.robust_z ~actual ~baseline in
  let n = Array.length z in
  let events = ref [] in
  let s = ref 0. in
  let run_start = ref 0 in  (* last minute at which s was 0 *)
  let alarmed = ref None in
  for i = 0 to n - 1 do
    let prev = !s in
    s := Float.max 0. (!s +. ((-.z.(i)) -. reference));
    if Float.equal prev 0. && !s > 0. then run_start := i;
    (match !alarmed with
    | None -> if !s > alarm_threshold then alarmed := Some (i, !run_start)
    | Some (alarm_min, start_min) ->
      if Float.equal !s 0. then begin
        events := { alarm_min; start_min; end_min = i } :: !events;
        alarmed := None
      end)
  done;
  (match !alarmed with
  | Some (alarm_min, start_min) -> events := { alarm_min; start_min; end_min = n } :: !events
  | None -> ());
  List.rev !events

let detection_latency ~injected_start events =
  let candidates =
    List.filter_map
      (fun e -> if e.alarm_min >= injected_start then Some (e.alarm_min - injected_start) else None)
      events
  in
  match candidates with [] -> None | l -> Some (List.fold_left Stdlib.min max_int l)
