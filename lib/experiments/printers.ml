module Cubic = Phi_tcp.Cubic
module Table = Phi_util.Table
module Json = Phi_util.Json
module Rs = Phi_workload.Request_stream

let mbps = Columns.mbps
let ms = Columns.ms
let pct = Columns.pct
let num x = Table.fmt_float x
let fixed decimals x = Table.fmt_float ~decimals x

(* {2 Tables 1 and 2} *)

let table1 () =
  let p = Cubic.default_params in
  Table.print ~align:[ Table.Left; Table.Left ] ~headers:[ "Parameter"; "Default value" ]
    [
      [ "initial_ssthresh"; Printf.sprintf "%g segments (arbitrarily large)" p.Cubic.initial_ssthresh ];
      [ "windowInit_"; Printf.sprintf "%g segments" p.Cubic.initial_cwnd ];
      [ "beta"; Printf.sprintf "%g" p.Cubic.beta ];
    ]

let table2 grid =
  let rows name (g : Sweep.grid) =
    let values f l = String.concat " " (List.map f l) in
    [
      [ name ^ " initial_ssthresh"; values string_of_float g.Sweep.ssthresh ];
      [ name ^ " windowInit_"; values string_of_float g.Sweep.init_w ];
      [ name ^ " beta"; values (Printf.sprintf "%.1f") g.Sweep.beta ];
    ]
  in
  Table.print ~align:[ Table.Left; Table.Left ] ~headers:[ "Grid"; "Values" ]
    (rows "paper" Sweep.paper_grid @ rows "this run" grid)

(* {2 Figures 2a, 2b, 2c and 3: the parameter sweeps} *)

let metric_columns =
  let open Scenario in
  Columns.on
    (fun (p : Sweep.point) -> p.Sweep.mean)
    [
      Columns.float "thr Mbps" ~key:"mean_throughput_bps" mbps (fun r -> r.throughput_bps);
      Columns.float "qdelay ms" ~key:"mean_queueing_delay_s" ms (fun r -> r.queueing_delay_s);
      Columns.float "loss" ~key:"mean_loss_rate" pct (fun r -> r.loss_rate);
      Columns.float "power P_l" ~key:"mean_power" num (fun r -> r.power);
    ]

let sweep_columns =
  let knob key f = Columns.field key (fun (p : Sweep.point) -> Json.float (f p.Sweep.params)) in
  Columns.string "" ~key:"marker" fst
  :: Columns.on snd
       (Columns.string "ssthresh/init/beta" ~key:"params" (fun (p : Sweep.point) ->
            Cubic.params_to_string p.Sweep.params)
       :: knob "ssthresh" (fun c -> c.Cubic.initial_ssthresh)
       :: knob "init_cwnd" (fun c -> c.Cubic.initial_cwnd)
       :: knob "beta" (fun c -> c.Cubic.beta)
       :: metric_columns)

let sweep (sweep : Sweep.t) =
  (* Keep the table readable: the optimal setting, the next best by
     power, and the default. *)
  let keep = 6 in
  let best = Sweep.optimal sweep in
  let others =
    List.filter (fun p -> p != best) sweep.Sweep.points
    |> List.sort (fun (a : Sweep.point) (b : Sweep.point) ->
           Float.compare b.mean.Scenario.power a.mean.Scenario.power)
    |> List.filteri (fun i _ -> i < keep)
  in
  Columns.print sweep_columns
    ((("optimal", best) :: List.map (fun p -> ("", p)) others)
    @ [ ("default", sweep.Sweep.default_point) ]);
  Printf.printf "(%d settings swept; showing optimal, top %d, default)\n"
    (List.length sweep.Sweep.points) keep

let figure2b_observation (sweep : Sweep.t) =
  let best = Sweep.optimal sweep and default = sweep.Sweep.default_point in
  print_endline
    "paper's observation: optimal uses larger init window, much smaller ssthresh, lower loss";
  Printf.printf "  optimal %s vs default %s | loss %s vs %s (paper: 0.01%% vs 3.92%%)\n"
    (Cubic.params_to_string best.Sweep.params)
    (Cubic.params_to_string default.Sweep.params)
    (pct best.Sweep.mean.Scenario.loss_rate)
    (pct default.Sweep.mean.Scenario.loss_rate)

let longrun_columns =
  Columns.float "beta" ~key:"beta" (fixed 1) fst :: Columns.on snd metric_columns

let longrun_summary_columns ~n_flows =
  let qdelay beta results =
    match List.find_opt (fun (b, _) -> Float.equal b beta) results with
    | Some (_, p) -> p.Sweep.mean.Scenario.queueing_delay_s
    | None -> nan
  in
  [
    Columns.int "flows" ~key:"n_flows" (fun _ -> n_flows);
    Columns.float "qdelay ms at beta 0.2" ~key:"qdelay_s_beta_0_2" ms (qdelay 0.2);
    Columns.float "qdelay ms at beta 0.8" ~key:"qdelay_s_beta_0_8" ms (qdelay 0.8);
  ]

let longrun ~n_flows results =
  Columns.print longrun_columns results;
  print_endline
    "paper's observation: larger beta (sharper back-off) yields much lower queueing delay";
  Columns.print (longrun_summary_columns ~n_flows) [ results ]

let figure3 sweeps =
  let open Sweep in
  Columns.print
    [
      Columns.string "workload" ~key:"workload" fst;
      Columns.float "default P_l" ~key:"default_power" num (fun (_, v) -> v.default_power);
      Columns.float "common (LOO) P_l" ~key:"common_power" num (fun (_, v) -> v.common_power);
      Columns.float "optimal P_l" ~key:"optimal_power" num (fun (_, v) -> v.optimal_power);
      Columns.float "gain retained" ~key:"gain_retained" pct (fun (_, v) ->
          (v.common_power -. v.default_power)
          /. Float.max 1e-9 (v.optimal_power -. v.default_power));
    ]
    (List.map (fun (name, s) -> (name, validate s)) sweeps);
  print_endline
    "paper's observation: the common (cross-run) setting retains nearly all of the optimal's gain"

(* {2 Figure 4: incremental deployment} *)

let groups title (r : Incremental.result) =
  let open Incremental in
  Columns.print
    (Columns.string title ~key:"group" fst
    :: Columns.on snd
         [
           Columns.int "conns" ~key:"connections" (fun g -> g.connections);
           Columns.float "thr Mbps" ~key:"throughput_bps" mbps (fun g -> g.throughput_bps);
           Columns.float "qdelay ms" ~key:"queueing_delay_s" ms (fun g -> g.queueing_delay_s);
           Columns.float "rexmit" ~key:"loss_proxy" pct (fun g -> g.loss_proxy);
           Columns.float "power P_l" ~key:"power" num (fun g -> g.power);
         ])
    [ ("modified (optimal params)", r.modified); ("unmodified (defaults)", r.unmodified) ]

let fraction_sweep rows =
  let open Incremental in
  Columns.print
    [
      Columns.float "fraction modified" ~key:"fraction" pct (fun (f, _, _) -> f);
      Columns.float "modified P_l" ~key:"modified_power" num (fun (_, m, _) -> m.power);
      Columns.cell "unmodified P_l" (fun (_, _, u) -> if u.connections = 0 then "-" else num u.power);
    ]
    rows

let figure4 ~optimal ~drop_tail ~red fractions =
  groups "group" drop_tail;
  Printf.printf "modified senders use %s; unmodified keep %s\n"
    (Cubic.params_to_string optimal)
    (Cubic.params_to_string Cubic.default_params);
  groups "group (RED bottleneck)" red;
  Printf.printf
    "ablation — drop-tail vs RED: unmodified qdelay %s -> %s ms (RED curbs the default's \
     standing queue)\n"
    (ms drop_tail.Incremental.unmodified.Incremental.queueing_delay_s)
    (ms red.Incremental.unmodified.Incremental.queueing_delay_s);
  fraction_sweep fractions

(* {2 Table 3 and the algorithm matrix} *)

let table3 rows =
  let open Table3 in
  let paper pick r =
    match List.find_opt (fun (n, _, _, _) -> String.equal n r.name) paper_rows with
    | Some row -> pick row
    | None -> "?"
  in
  Columns.print
    [
      Columns.string "Algorithm" ~key:"name" (fun r -> r.name);
      Columns.float "thr Mbps" ~key:"median_throughput_bps" mbps (fun r ->
          r.summary.Trainer.median_throughput_bps);
      Columns.cell "(paper)" (paper (fun (_, thr, _, _) -> fixed 2 thr));
      Columns.float "qdelay ms" ~key:"median_queueing_delay_s" ms (fun r ->
          r.summary.Trainer.median_queueing_delay_s);
      Columns.cell "(paper)" (paper (fun (_, _, d, _) -> fixed 1 d));
      Columns.float "objective" ~key:"median_objective" num (fun r ->
          r.summary.Trainer.median_objective);
      Columns.cell "(paper)" (paper (fun (_, _, _, obj) -> fixed 2 obj));
      Columns.int "conns" ~key:"connections" (fun r -> r.summary.Trainer.connections);
      Columns.int "msgs" ~key:"server_messages" (fun r -> r.server_messages);
    ]
    rows;
  print_endline
    "shape to reproduce: objective Phi-ideal >= Phi-practical > Remy > Cubic; Cubic worst delay"

let vegas_ablation (vegas : Trainer.eval_result) =
  Printf.printf "ablation — TCP Vegas (autonomous, delay-based): %s Mbps median, %s ms qdelay\n"
    (mbps vegas.Trainer.median_throughput_bps)
    (ms vegas.Trainer.median_queueing_delay_s)

let matrix_columns =
  let open Cc_matrix in
  let open Scenario in
  Columns.string "algorithm" ~key:"algorithm" (fun r -> r.algorithm)
  :: Columns.string "cell" ~key:"cell" (fun r -> r.cell)
  :: Columns.string "aqm" ~key:"aqm" (fun r -> r.aqm)
  :: Columns.on
       (fun r -> r.mean)
       [
         Columns.float "thr Mbps" ~key:"throughput_bps" mbps (fun r -> r.throughput_bps);
         Columns.float "delay ms" ~key:"delay_s" ms (fun r -> r.delay_s);
         Columns.field "queueing_delay_s" (fun r -> Json.float r.queueing_delay_s);
         Columns.float "loss" ~key:"loss_rate" pct (fun r -> r.loss_rate);
         Columns.float "power P_l" ~key:"power" num (fun r -> r.power);
         Columns.float "jain" ~key:"jain" (fixed 3) (fun r -> r.jain);
         Columns.float "p99 fct s" ~key:"p99_fct_s" (fixed 2) (fun r -> r.p99_fct_s);
         Columns.int "conns" ~key:"connections" (fun r -> r.connections);
       ]

let matrix ~duration_s ~seeds rows =
  Columns.print matrix_columns rows;
  Printf.printf "(%d rows, means over %d seeds, %g s cells)\n" (List.length rows)
    (List.length seeds) duration_s

(* {2 Section 2.1 and Figure 5} *)

let sharing_columns =
  let open Sharing_experiment in
  [
    Columns.int "flows in trace" ~key:"total_flows" (fun r -> r.total_flows);
    Columns.int "observed after sampling" ~key:"sampled_flows" (fun r -> r.sampled_flows);
    Columns.int "subnet-minute slices" ~key:"slices" (fun r -> r.slices);
    Columns.field "share_ge_5" (fun r ->
        Option.fold ~none:Json.Null ~some:Json.float (List.assoc_opt 5 r.ccdf));
  ]

let sharing (r : Sharing_experiment.result) =
  let paper k = Option.fold ~none:"-" ~some:pct (List.assoc_opt k Sharing_experiment.paper_points) in
  Columns.print sharing_columns [ r ];
  Columns.print
    [
      Columns.int "shares path with >= k others" ~key:"k" fst;
      Columns.float "fraction of flows" ~key:"fraction" pct snd;
      Columns.cell "paper" (fun (k, _) -> paper k);
    ]
    r.Sharing_experiment.ccdf

let figure5_columns =
  [
    Columns.int "events detected" ~key:"events_detected" (fun r -> List.length r.Figure5.events);
    Columns.bool "correct localization" ~key:"correctly_localized" Figure5.correctly_localized;
  ]

let figure5_series_columns (r : Figure5.result) =
  let mean series (start, len) = Phi_util.Stats.mean (Array.sub series start len) in
  [
    Columns.int "minute" ~key:"minute" fst;
    Columns.float "expected req/min" ~key:"affected_expected" (fixed 0)
      (mean r.Figure5.affected_baseline);
    Columns.float "actual req/min" ~key:"affected_actual" (fixed 0) (mean r.Figure5.affected_series);
    Columns.field "total_actual" (fun span -> Json.float (mean r.Figure5.total_series span));
  ]

let figure5 (r : Figure5.result) =
  let inj = r.Figure5.injected in
  let scope = Format.asprintf "%a" Rs.pp_scope in
  Printf.printf "injected: %d min outage at minute %d, scope %s, severity %s\n"
    inj.Rs.duration_min inj.Rs.start_min (scope inj.Rs.scope) (pct inj.Rs.severity);
  if List.is_empty r.Figure5.events then print_endline "NO EVENT DETECTED (unexpected)";
  List.iter
    (fun e -> Printf.printf "detected: %s\n" (Format.asprintf "%a" Phi_diagnosis.Anomaly.pp e))
    r.Figure5.events;
  (match r.Figure5.localization with
  | Some f ->
    let open Phi_diagnosis.Localize in
    Printf.printf "localized to: %s (deficit share %s, own drop %s)\n" (scope f.scope)
      (pct f.deficit_share) (pct f.own_drop)
  | None -> print_endline "no localization (unexpected)");
  Columns.print figure5_columns [ r ];
  (* The figure itself: the affected slice's volume vs its baseline
     around the event, in 15-minute bins. *)
  let start = Int.max 0 (inj.Rs.start_min - 60) in
  let stop =
    Int.min (Array.length r.Figure5.affected_series) (inj.Rs.start_min + inj.Rs.duration_min + 60)
  in
  Columns.print (figure5_series_columns r)
    (List.init (Int.max 0 ((stop - start) / 15)) (fun i -> (start + (15 * i), 15)));
  (* Ablation: CUSUM change-point detection vs the robust-z run
     detector (detection latency from the injected start; a run counts
     once it has lasted the detector's 5-minute minimum). *)
  let baseline = Phi_diagnosis.Series.seasonal_baseline r.Figure5.total_series in
  let cusum = Phi_diagnosis.Cusum.detect ~actual:r.Figure5.total_series ~baseline () in
  let latency = Option.fold ~none:"not detected" ~some:(Printf.sprintf "%d min") in
  Printf.printf "ablation — detection latency: robust-z runs ~%s vs CUSUM %s\n"
    (latency
       (List.find_map
          (fun e ->
            let late = e.Phi_diagnosis.Anomaly.start_min - inj.Rs.start_min in
            if late >= 0 then Some (late + 5) else None)
          r.Figure5.events))
    (latency (Phi_diagnosis.Cusum.detection_latency ~injected_start:inj.Rs.start_min cusum))

(* {2 Sections 3.1, 3.2, 3.3 and 3.5} *)

let priority (r : Priority_experiment.result) =
  let open Priority_experiment in
  Columns.print
    [
      Columns.float "flow weight" ~key:"weight" num (fun f -> f.weight);
      Columns.float "throughput Mbps" ~key:"throughput_bps" mbps (fun f -> f.throughput_bps);
    ]
    r.entity_flows;
  Printf.printf "entity aggregate: %s Mbps vs %s Mbps for the same number of standard flows\n"
    (mbps r.entity_aggregate_bps) (mbps r.reference_aggregate_bps);
  Printf.printf "competitors kept: %s Mbps (vs %s in the all-standard control)\n"
    (mbps r.competitor_aggregate_bps) (mbps r.competitor_reference_bps)

let secure_agg private_utils shares ~barometer =
  Columns.print
    [
      Columns.string "provider" ~key:"provider" (fun (i, _, _) -> Printf.sprintf "provider-%d" i);
      Columns.float "private estimate" ~key:"private_estimate" pct (fun (_, u, _) -> u);
      Columns.cell "published share (masked)" (fun (_, _, share) -> Int64.to_string share);
    ]
    (List.mapi (fun i (u, share) -> (i, u, share)) (List.combine private_utils shares));
  Printf.printf "common barometer (mean utilization): %s — true mean %s\n" (pct barometer)
    (pct (Phi_util.Stats.mean (Array.of_list private_utils)))

let predict_columns =
  let open Predict_experiment in
  [
    Columns.int "prefixes" ~key:"prefixes" (fun r -> r.prefixes);
    Columns.int "training samples" ~key:"training_samples" (fun r -> r.training_samples);
    Columns.int "test queries" ~key:"test_samples" (fun r -> r.test_samples);
    Columns.float "median rel. error, hierarchical (/24 -> /16 -> /8)" ~key:"hierarchical_mape"
      pct (fun r -> r.hierarchical_mape);
    Columns.float "median rel. error, global median" ~key:"global_mape" pct (fun r ->
        r.global_mape);
    Columns.int "cold prefixes served by fallback levels" ~key:"cold_prefixes_served" (fun r ->
        r.cold_prefixes_served);
  ]

let predict (r : Predict_experiment.result) =
  Columns.print_record ("prediction", "value") predict_columns r;
  Columns.print
    [
      Columns.string "path" ~key:"path" fst;
      Columns.float "predicted MOS" ~key:"mos" num snd;
      Columns.string "label" ~key:"label" (fun (_, mos) -> Phi_predict.Voip.quality_label mos);
    ]
    r.Predict_experiment.example_mos

let jitter_columns =
  let open Adaptation_experiment in
  [
    Columns.float "cold start: size ms" ~key:"cold_buffer_ms" num (fun j -> j.cold_buffer_ms);
    Columns.float "cold start: late packets" ~key:"cold_late_fraction" pct (fun j ->
        j.cold_late_fraction);
    Columns.float "informed (shared p95): size ms" ~key:"informed_buffer_ms" num (fun j ->
        j.informed_buffer_ms);
    Columns.float "informed: late packets" ~key:"informed_late_fraction" pct (fun j ->
        j.informed_late_fraction);
    Columns.float "latency saved ms" ~key:"buffer_saving_ms" num (fun j -> j.buffer_saving_ms);
  ]

let adaptation (r : Adaptation_experiment.result) =
  let open Adaptation_experiment in
  Columns.print_record ("jitter buffer", "value") jitter_columns r.jitter;
  Columns.print_record ("dup-ACK threshold", "value")
    [
      Columns.int "standard" ~key:"standard_threshold" (fun d -> d.standard_threshold);
      Columns.float "standard: spurious fast retransmits" ~key:"standard_spurious_fraction" pct
        (fun d -> d.standard_spurious_fraction);
      Columns.int "informed (shared reorder depths)" ~key:"recommended_threshold" (fun d ->
          d.recommended_threshold);
      Columns.float "informed: spurious fast retransmits" ~key:"informed_spurious_fraction" pct
        (fun d -> d.informed_spurious_fraction);
    ]
    r.dupack

(* {2 The context-plane swarm and the parallel DES} *)

let swarm_columns ~jobs (config : Swarm.config) =
  let open Swarm in
  let us v = num (v *. 1e6) in
  [
    Columns.int "flows served" ~key:"flows" (fun r -> r.flows);
    Columns.field "lookups" (fun r -> Json.Int r.lookups);
    Columns.field "reports" (fun r -> Json.Int r.reports);
    Columns.int "cells" ~key:"cells" (fun _ -> config.cells);
    Columns.int "shards per cell" ~key:"shards_per_cell" (fun _ -> config.shards_per_cell);
    Columns.float "lookups/s" ~key:"lookups_per_s" num (fun r -> r.lookups_per_s);
    Columns.float "reports/s" ~key:"reports_per_s" num (fun r -> r.reports_per_s);
    Columns.float "p50 lookup us" ~key:"p50_lookup_s" us (fun r -> r.p50_lookup_s);
    Columns.float "p99 lookup us" ~key:"p99_lookup_s" us (fun r -> r.p99_lookup_s);
    Columns.float "shard balance (Jain)" ~key:"jain_index" (fixed 4) (fun r -> r.jain_index);
    Columns.int "resident paths" ~key:"resident_paths" (fun r -> r.resident_paths);
    Columns.int "evictions" ~key:"evictions" (fun r -> r.evictions);
    Columns.int "epoch flushes" ~key:"flushes" (fun r -> r.flushes);
    Columns.float "wall s" ~key:"elapsed_s" (fixed 2) (fun r -> r.elapsed_s);
    Columns.field "fingerprint" (fun r -> Json.String r.fingerprint);
    Columns.int "worker domains" ~key:"jobs" (fun _ -> jobs);
  ]

let swarm ~jobs config (r : Swarm.result) =
  Columns.print_record ("metric", "value") (swarm_columns ~jobs config) r;
  Printf.printf "fingerprint: %s\n" r.Swarm.fingerprint

let pdes_columns (serial : Parking_lot.result) =
  let open Parking_lot in
  let speedup r = serial.wall_s /. r.wall_s in
  [
    Columns.int "jobs" ~key:"jobs" (fun r -> r.jobs);
    Columns.float "wall s" ~key:"wall_s" (fixed 2) (fun r -> r.wall_s);
    Columns.field "events" (fun r -> Json.Int r.events);
    Columns.float "events/s" ~key:"events_per_s" num (fun r -> r.events_per_s);
    Columns.cell "speedup" (fun r -> fixed 2 (speedup r));
    Columns.cell "efficiency" (fun r -> fixed 2 (speedup r /. float_of_int r.jobs));
    Columns.field "fingerprint" (fun r -> Json.String r.fingerprint);
  ]

let pdes_summary_columns (spec : Parking_lot.spec) =
  let open Parking_lot in
  let serial f runs = f (List.hd runs) in
  [
    Columns.int "islands" ~key:"islands" (serial (fun r -> r.islands));
    Columns.float "window ms" ~key:"window_s" ms (serial (fun r -> r.window_s));
    Columns.int "senders" ~key:"senders" (fun _ -> senders spec);
    Columns.float "duration s" ~key:"duration_s" num (fun _ -> spec.duration_s);
    Columns.int "cores" ~key:"cores" (fun _ -> Phi_runner.Pool.available_cores ());
    Columns.int "max jobs" ~key:"jobs" (List.fold_left (fun acc r -> Int.max acc r.jobs) 1);
    Columns.cell "long flows Mb/s" (serial (fun r -> mbps r.long_goodput_bps));
    Columns.cell "local Mb/s" (serial (fun r -> mbps r.local_goodput_bps));
  ]

let pdes spec runs =
  let serial = List.hd runs in
  Columns.print (pdes_columns serial) runs;
  Printf.printf "fingerprint: %s\n" serial.Parking_lot.fingerprint;
  Columns.print (pdes_summary_columns spec) [ runs ]
