(* Problem diagnosis from the provider's vantage point (Section 3.4 /
   Figure 5).

   The cloud service watches its own request volume, sliced by (metro,
   ISP, service).  An unreachability event silently knocks out one ISP's
   customers in one metro for two hours.  No client files a ticket; the
   provider's anomaly detector finds and localizes the event from the
   aggregate telemetry alone.

   Run with: dune exec examples/outage_war_room.exe *)

module Rs = Phi_workload.Request_stream
module Figure5 = Phi_experiments.Figure5
module Localize = Phi_diagnosis.Localize
module Anomaly = Phi_diagnosis.Anomaly

let () =
  let outage =
    {
      Rs.start_min = 1440 + (9 * 60);  (* day 2, 09:00 *)
      duration_min = 120;
      scope = { Rs.metro = Some "mumbai"; isp = Some "as9829"; service = None };
      severity = 0.9;
    }
  in
  Printf.printf "telemetry: 3 days of per-minute request counts, %d cells\n"
    (List.length Rs.default_config.Rs.metros
    * List.length Rs.default_config.Rs.isps
    * List.length Rs.default_config.Rs.services);
  Printf.printf "(an outage is hidden somewhere in day 2...)\n\n";
  let r = Figure5.run ~outage ~seed:77 () in
  (match r.Figure5.events with
  | [] -> print_endline "nothing detected — the pager stays quiet (unexpected!)"
  | events ->
    List.iter
      (fun e ->
        let day = e.Anomaly.start_min / 1440 + 1 in
        let hh = e.Anomaly.start_min mod 1440 / 60 and mm = e.Anomaly.start_min mod 60 in
        Printf.printf "PAGE: request volume anomaly, day %d %02d:%02d, %d minutes, drop %.0f%%\n"
          day hh mm (Anomaly.duration_min e) (100. *. e.Anomaly.mean_drop))
      events);
  (match r.Figure5.localization with
  | Some f ->
    Printf.printf "\nwar-room drill-down: %s explains %.0f%% of the deficit (own drop %.0f%%)\n"
      (Format.asprintf "%a" Rs.pp_scope f.Localize.scope)
      (100. *. f.Localize.deficit_share)
      (100. *. f.Localize.own_drop)
  | None -> print_endline "\nno single slice explains the event (global issue?)");
  (* The ranked console an operator would scroll. *)
  (match r.Figure5.events with
  | e :: _ ->
    let rng = Phi_util.Prng.create ~seed:77 in
    let cells = Rs.generate rng Rs.default_config ~outages:[ outage ] in
    let ranked = Localize.rank ~cells ~window:(e.Anomaly.start_min, e.Anomaly.end_min) in
    print_endline "\ntop suspects:";
    List.iteri
      (fun i f ->
        if i < 5 then
          Printf.printf "  %d. %-40s deficit %5.1f%%  drop %5.1f%%\n" (i + 1)
            (Format.asprintf "%a" Rs.pp_scope f.Localize.scope)
            (100. *. f.Localize.deficit_share)
            (100. *. f.Localize.own_drop))
      ranked
  | [] -> ());
  Printf.printf "\nground truth: %s — %s\n"
    (Format.asprintf "%a" Rs.pp_scope outage.Rs.scope)
    (if Figure5.correctly_localized r then "CORRECTLY identified" else "missed");
  Sanitize.check ()
