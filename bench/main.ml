(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (plus the DESIGN.md extension experiments) and the
   event-core / packet-path / decision-plane microbenchmarks (the
   [micro] experiment, bench/micro.ml).

   Usage: dune exec bench/main.exe [-- --quick|--full] [--only ID]
                                   [--csv DIR] [--jobs N] [--json PATH]

   The default configuration is a documented downsampling of the paper's
   budgets (coarser parameter grid, fewer seeds) so the whole harness
   finishes in minutes; --full uses the paper's Table 2 grid and 8 runs.

   --jobs N fans the grid-shaped experiments' (setting, seed) cells over
   N domains via Phi_runner.Pool (default: the core count; --jobs 1 is
   the serial path).  Tables are bit-for-bit identical for every N.

   --json PATH additionally writes a machine-readable report (schema
   Phi_check.Report_check.schema): per-experiment wall clock, cells/sec,
   the headline figure metrics, a serial-vs-parallel calibration, and
   one section per section-carrying experiment that ran — "micro",
   "alloc" and "decision" from micro, "cc_matrix" from matrix, and
   "swarm", "pdes" and "wan_matrix" from the experiments of the same
   name.  bin/phi_json_check gates it in CI against the budgets
   committed in Phi_check.Report_check. *)

module Topology = Phi_net.Topology
module Cubic = Phi_tcp.Cubic
module Table = Phi_util.Table
module Stats = Phi_util.Stats
module Json = Phi_util.Json
module Pool = Phi_runner.Pool
open Phi_experiments

type budget = { grid : Sweep.grid; seeds : int list; duration_s : float; label : string }

let quick_budget =
  {
    grid = { Sweep.ssthresh = [ 2.; 64. ]; init_w = [ 2.; 16. ]; beta = [ 0.2 ] };
    seeds = [ 1; 2 ];
    duration_s = 45.;
    label = "quick (4-point grid, 2 seeds, 45 s runs)";
  }

let default_budget =
  {
    grid = Sweep.coarse_grid;
    seeds = [ 1; 2; 3 ];
    duration_s = 90.;
    label = "default (48-point grid, 3 seeds, 90 s runs; --full for the paper grid)";
  }

let full_budget =
  {
    grid = Sweep.paper_grid;
    seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ];
    duration_s = 120.;
    label = "full (paper 576-point grid, 8 seeds, 120 s runs)";
  }

let section title =
  Printf.printf "\n=== %s ===\n%!" title

(* Optional CSV export of figure data (--csv DIR). *)
let csv_dir : string option ref = ref None

let csv_out name ~header rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
    (* mkdirs creates missing parents too ("out/run3" used to fail when
       "out" did not exist) and tolerates concurrent creation. *)
    let path = Filename.concat dir name in
    Phi_util.Csv.write ~mkdirs:true ~path ~header rows;
    Printf.printf "(wrote %s)\n" path

(* Worker-pool width for the grid-shaped experiments (--jobs N). *)
let jobs = ref 1

(* {2 Machine-readable report (--json PATH)} *)

let timings : (string * float * int) list ref = ref []  (* (id, wall_s, cells), reverse order *)
let headlines : (string * Json.t) list ref = ref []
let headline id fields = headlines := (id, Json.Obj fields) :: !headlines

let timed id ~cells f =
  let wall_s, r = Micro.timed f in
  timings := (id, wall_s, cells) :: !timings;
  r

(* Report sections, reverse order: each section-carrying experiment
   adds its own when it runs. *)
let sections : (string * Json.t) list ref = ref []
let add_section name json = sections := (name, json) :: !sections

let sweep_cells budget = (List.length (Sweep.settings budget.grid) + 1) * List.length budget.seeds

let report_json ~budget ~calibration =
  let experiments =
    List.rev_map
      (fun (id, wall_s, cells) ->
        Json.Obj
          ([ ("id", Json.String id); ("wall_s", Json.float wall_s); ("cells", Json.Int cells) ]
          @
          if wall_s > 0. && cells > 0 then
            [ ("cells_per_s", Json.float (float_of_int cells /. wall_s)) ]
          else []))
      !timings
  in
  let total_wall = List.fold_left (fun acc (_, w, _) -> acc +. w) 0. !timings in
  Json.Obj
    ([
       ("schema", Json.String Phi_check.Report_check.schema);
       ("budget", Json.String budget.label);
       ("jobs", Json.Int !jobs);
       ("cores", Json.Int (Pool.available_cores ()));
       ("total_wall_s", Json.float total_wall);
       ("experiments", Json.List experiments);
       ("headline", Json.Obj (List.rev !headlines));
       ("parallel_calibration", calibration);
     ]
    @ List.rev !sections)

(* Serial-vs-parallel calibration: re-run the Figure 2a sweep cells at
   --jobs 1 and compare against the recorded wall clock of the same
   sweep at the requested width.  At --jobs 1 the speedup is 1 by
   definition and no extra work is done. *)
let calibrate budget =
  match List.find_opt (fun (id, _, _) -> id = "figure2a") !timings with
  | None -> Json.Null
  | Some (_, parallel_wall, cells) ->
    let serial_wall =
      if !jobs = 1 then parallel_wall
      else begin
        Printf.printf "\n(calibrating: re-running the figure2a sweep at --jobs 1)\n%!";
        let config = { Scenario.low_utilization with Scenario.duration_s = budget.duration_s } in
        fst (Micro.timed (fun () -> Sweep.run ~jobs:1 config budget.grid ~seeds:budget.seeds))
      end
    in
    Json.Obj
      [
        ("experiment", Json.String "figure2a");
        ("cells", Json.Int cells);
        ("jobs", Json.Int !jobs);
        ("serial_wall_s", Json.float serial_wall);
        ("parallel_wall_s", Json.float parallel_wall);
        ("speedup", Json.float (if parallel_wall > 0. then serial_wall /. parallel_wall else 1.));
      ]

let mbps bps = Table.fmt_float (bps /. 1e6)
let ms s = Table.fmt_float (1000. *. s) ~decimals:1
let pct x = Table.fmt_float (100. *. x) ^ "%"

(* {2 Table 1} *)

let bench_table1 _budget =
  section "Table 1: default settings of the TCP Cubic parameters";
  let p = Cubic.default_params in
  Table.print ~align:[ Table.Left; Table.Left ]
    ~headers:[ "Parameter"; "Default value" ]
    [
      [ "initial_ssthresh"; Printf.sprintf "%g segments (arbitrarily large)" p.Cubic.initial_ssthresh ];
      [ "windowInit_"; Printf.sprintf "%g segments" p.Cubic.initial_cwnd ];
      [ "beta"; Printf.sprintf "%g" p.Cubic.beta ];
    ]

(* {2 Table 2} *)

let bench_table2 budget =
  section "Table 2: parameter sweep ranges";
  let render_grid name (g : Sweep.grid) =
    [
      [ name ^ " initial_ssthresh"; String.concat " " (List.map string_of_float g.Sweep.ssthresh) ];
      [ name ^ " windowInit_"; String.concat " " (List.map string_of_float g.Sweep.init_w) ];
      [ name ^ " beta"; String.concat " " (List.map (Printf.sprintf "%.1f") g.Sweep.beta) ];
    ]
  in
  Table.print ~align:[ Table.Left; Table.Left ]
    ~headers:[ "Grid"; "Values" ]
    (render_grid "paper" Sweep.paper_grid @ render_grid "this run" budget.grid)

(* {2 Figure 2a/2b: sweep scatter} *)

let print_sweep_points ~keep (sweep : Sweep.t) =
  let best = Sweep.optimal sweep in
  let row marker (p : Sweep.point) =
    [
      marker;
      Cubic.params_to_string p.Sweep.params;
      mbps p.Sweep.mean_throughput_bps;
      ms p.Sweep.mean_queueing_delay_s;
      pct p.Sweep.mean_loss_rate;
      Table.fmt_float p.Sweep.mean_power;
    ]
  in
  (* Keep the table readable: best/default plus the [keep] next-best
     settings. *)
  let others =
    sweep.Sweep.points
    |> List.filter (fun p -> p != best)
    |> List.sort (fun a b -> Float.compare b.Sweep.mean_power a.Sweep.mean_power)
    |> List.filteri (fun i _ -> i < keep)
  in
  Table.print ~align:[ Table.Left; Table.Left ]
    ~headers:[ ""; "ssthresh/init/beta"; "thr Mbps"; "qdelay ms"; "loss"; "power P_l" ]
    ((row "optimal" best :: List.map (row "") others)
    @ [ row "default" sweep.Sweep.default_point ]);
  Printf.printf "(%d settings swept; showing optimal, top %d, default)\n"
    (List.length sweep.Sweep.points) keep

let run_sweep budget config =
  let config = { config with Scenario.duration_s = budget.duration_s } in
  Sweep.run ~jobs:!jobs config budget.grid ~seeds:budget.seeds

let sweep_headline id (sweep : Sweep.t) =
  let best = Sweep.optimal sweep in
  let point (p : Sweep.point) =
    Json.Obj
      [
        ("params", Json.String (Cubic.params_to_string p.Sweep.params));
        ("mean_throughput_bps", Json.float p.Sweep.mean_throughput_bps);
        ("mean_queueing_delay_s", Json.float p.Sweep.mean_queueing_delay_s);
        ("mean_loss_rate", Json.float p.Sweep.mean_loss_rate);
        ("mean_power", Json.float p.Sweep.mean_power);
      ]
  in
  headline id
    [
      ("settings", Json.Int (List.length sweep.Sweep.points));
      ("optimal", point best);
      ("default", point sweep.Sweep.default_point);
    ]

let sweep_csv name (sweep : Sweep.t) =
  let row marker (p : Sweep.point) =
    [
      Cubic.params_to_string p.Sweep.params;
      Phi_util.Csv.float_cell p.Sweep.params.Cubic.initial_ssthresh;
      Phi_util.Csv.float_cell p.Sweep.params.Cubic.initial_cwnd;
      Phi_util.Csv.float_cell p.Sweep.params.Cubic.beta;
      Phi_util.Csv.float_cell p.Sweep.mean_throughput_bps;
      Phi_util.Csv.float_cell p.Sweep.mean_queueing_delay_s;
      Phi_util.Csv.float_cell p.Sweep.mean_loss_rate;
      Phi_util.Csv.float_cell p.Sweep.mean_power;
      marker;
    ]
  in
  let best = Sweep.optimal sweep in
  csv_out name
    ~header:
      [ "params"; "ssthresh"; "init_cwnd"; "beta"; "throughput_bps"; "queueing_delay_s";
        "loss_rate"; "power"; "marker" ]
    (List.map
       (fun p -> row (if p == best then "optimal" else "") p)
       sweep.Sweep.points
    @ [ row "default" sweep.Sweep.default_point ])

let bench_figure2a budget =
  section "Figure 2a: Cubic parameter sweep, low link utilization (500 KB on / 2 s off)";
  let sweep = run_sweep budget Scenario.low_utilization in
  print_sweep_points ~keep:6 sweep;
  sweep_csv "figure2a.csv" sweep;
  sweep_headline "figure2a" sweep;
  sweep

let bench_figure2b budget =
  section "Figure 2b: Cubic parameter sweep, high link utilization (500 KB on / 0.3 s off)";
  let sweep = run_sweep budget Scenario.high_utilization in
  print_sweep_points ~keep:6 sweep;
  let best = Sweep.optimal sweep in
  Printf.printf
    "paper's observation: optimal uses larger init window, much smaller ssthresh, lower loss\n";
  Printf.printf "  optimal %s vs default %s | loss %s vs %s (paper: 0.01%% vs 3.92%%)\n"
    (Cubic.params_to_string best.Sweep.params)
    (Cubic.params_to_string sweep.Sweep.default_point.Sweep.params)
    (pct best.Sweep.mean_loss_rate)
    (pct sweep.Sweep.default_point.Sweep.mean_loss_rate);
  sweep_csv "figure2b.csv" sweep;
  sweep_headline "figure2b" sweep;
  sweep

(* {2 Figure 2c: long-running flows, beta sweep} *)

let bench_figure2c budget =
  section "Figure 2c: 100 long-running connections (~99% utilization), beta sweep";
  let betas = (Sweep.beta_grid : Sweep.grid).Sweep.beta in
  let n_flows = if budget.label = quick_budget.label then 40 else 100 in
  let results =
    Sweep.run_longrunning ~jobs:!jobs ~spec:Topology.paper_spec ~n_flows
      ~duration_s:budget.duration_s ~seeds:[ List.hd budget.seeds ] ~betas ()
  in
  Table.print
    ~headers:[ "beta"; "thr Mbps"; "qdelay ms"; "loss"; "power P_l" ]
    (List.map
       (fun (beta, (p : Sweep.point)) ->
         [
           Table.fmt_float beta ~decimals:1;
           mbps p.Sweep.mean_throughput_bps;
           ms p.Sweep.mean_queueing_delay_s;
           pct p.Sweep.mean_loss_rate;
           Table.fmt_float p.Sweep.mean_power;
         ])
       results);
  csv_out "figure2c.csv"
    ~header:[ "beta"; "throughput_bps"; "queueing_delay_s"; "loss_rate"; "power" ]
    (List.map
       (fun (beta, (p : Sweep.point)) ->
         [
           Phi_util.Csv.float_cell beta;
           Phi_util.Csv.float_cell p.Sweep.mean_throughput_bps;
           Phi_util.Csv.float_cell p.Sweep.mean_queueing_delay_s;
           Phi_util.Csv.float_cell p.Sweep.mean_loss_rate;
           Phi_util.Csv.float_cell p.Sweep.mean_power;
         ])
       results);
  let q_of b = (List.assoc b results).Sweep.mean_queueing_delay_s in
  Printf.printf
    "paper's observation: larger beta (sharper back-off) yields much lower queueing delay\n";
  Printf.printf "  qdelay at beta 0.2: %s ms vs beta 0.8: %s ms (n_flows=%d)\n"
    (ms (q_of 0.2)) (ms (q_of 0.8)) n_flows;
  headline "figure2c"
    [
      ("n_flows", Json.Int n_flows);
      ("qdelay_s_beta_0_2", Json.float (q_of 0.2));
      ("qdelay_s_beta_0_8", Json.float (q_of 0.8));
    ]

(* {2 Figure 3: leave-one-out stability} *)

let bench_figure3 ~(sweep_low : Sweep.t) ~(sweep_high : Sweep.t) =
  section "Figure 3: stability of the optimal setting (leave-one-out validation)";
  let row name sweep =
    let v = Sweep.validate sweep in
    [
      name;
      Table.fmt_float v.Sweep.default_power;
      Table.fmt_float v.Sweep.common_power;
      Table.fmt_float v.Sweep.optimal_power;
      pct ((v.Sweep.common_power -. v.Sweep.default_power)
          /. Float.max 1e-9 (v.Sweep.optimal_power -. v.Sweep.default_power));
    ]
  in
  Table.print ~align:[ Table.Left ]
    ~headers:[ "workload"; "default P_l"; "common (LOO) P_l"; "optimal P_l"; "gain retained" ]
    [ row "low utilization" sweep_low; row "high utilization" sweep_high ];
  print_endline
    "paper's observation: the common (cross-run) setting retains nearly all of the optimal's gain"

(* {2 Figure 4: incremental deployment} *)

let bench_figure4 budget ~(sweep_low : Sweep.t) =
  section "Figure 4: incremental deployment (half modified, half default)";
  let optimal = (Sweep.optimal sweep_low).Sweep.params in
  let config =
    { Scenario.low_utilization with Scenario.duration_s = budget.duration_s }
  in
  let r = Incremental.run ~params_modified:optimal config in
  let group name (g : Incremental.group_result) =
    [
      name;
      string_of_int g.Incremental.connections;
      mbps g.Incremental.throughput_bps;
      ms g.Incremental.queueing_delay_s;
      pct g.Incremental.loss_proxy;
      Table.fmt_float g.Incremental.power;
    ]
  in
  Table.print ~align:[ Table.Left ]
    ~headers:[ "group"; "conns"; "thr Mbps"; "qdelay ms"; "rexmit"; "power P_l" ]
    [ group "modified (optimal params)" r.Incremental.modified;
      group "unmodified (defaults)" r.Incremental.unmodified ];
  Printf.printf "modified senders use %s; unmodified keep %s\n"
    (Cubic.params_to_string optimal)
    (Cubic.params_to_string Cubic.default_params);
  (* Ablation: the same half-and-half split with a RED bottleneck.  The
     paper's incentive argument (Section 3.1) rests on FIFO drop-tail
     queueing; RED's early dropping shields the unmodified senders from
     the default setting's standing queue. *)
  let with_red engine dumbbell =
    let bottleneck = dumbbell.Phi_net.Topology.bottleneck in
    ignore engine;
    Phi_net.Link.set_discipline bottleneck
      ~rng:(Phi_util.Prng.create ~seed:4242)
      (Phi_net.Link.Red
         (Phi_net.Link.default_red
            ~capacity_pkts:(Phi_net.Link.capacity_pkts bottleneck)
            ()))
  in
  let red = Incremental.run ~observe:with_red ~params_modified:optimal config in
  Table.print ~align:[ Table.Left ]
    ~headers:[ "group (RED bottleneck)"; "conns"; "thr Mbps"; "qdelay ms"; "rexmit"; "power P_l" ]
    [ group "modified (optimal params)" red.Incremental.modified;
      group "unmodified (defaults)" red.Incremental.unmodified ];
  Printf.printf
    "ablation — drop-tail vs RED: unmodified qdelay %s -> %s ms (RED curbs the default's standing queue)\n"
    (ms r.Incremental.unmodified.Incremental.queueing_delay_s)
    (ms red.Incremental.unmodified.Incremental.queueing_delay_s);
  (* The DESIGN.md ablation: deployment-fraction sweep. *)
  let sweep =
    Incremental.fraction_sweep ~jobs:!jobs ~fractions:[ 0.25; 0.5; 0.75; 1.0 ]
      ~params_modified:optimal ~seeds:[ List.hd budget.seeds ] config
  in
  Table.print
    ~headers:[ "fraction modified"; "modified P_l"; "unmodified P_l" ]
    (List.map
       (fun (f, m, u) ->
         [
           pct f;
           Table.fmt_float m.Incremental.power;
           (if u.Incremental.connections = 0 then "-" else Table.fmt_float u.Incremental.power);
         ])
       sweep)

(* {2 Table 3: Remy vs Phi} *)

let bench_table3 budget =
  section "Table 3: Remy / Remy-Phi / Cubic on the paper dumbbell";
  let config = { Scenario.table3 with Scenario.duration_s = Float.min 60. budget.duration_s } in
  let rows = Table3.run ~jobs:!jobs ~seeds:budget.seeds config in
  let paper name =
    match List.find_opt (fun (n, _, _, _) -> n = name) Table3.paper_rows with
    | Some (_, thr, d, obj) ->
      (Printf.sprintf "%.2f" thr, Printf.sprintf "%.1f" d, Printf.sprintf "%.2f" obj)
    | None -> ("?", "?", "?")
  in
  Table.print ~align:[ Table.Left ]
    ~headers:
      [
        "Algorithm"; "thr Mbps"; "(paper)"; "qdelay ms"; "(paper)"; "objective"; "(paper)";
        "conns"; "msgs";
      ]
    (List.map
       (fun (r : Table3.row) ->
         let pt, pd, po = paper r.Table3.name in
         [
           r.Table3.name;
           mbps r.Table3.median_throughput_bps;
           pt;
           ms r.Table3.median_queueing_delay_s;
           pd;
           Table.fmt_float r.Table3.median_objective;
           po;
           string_of_int r.Table3.connections;
           string_of_int r.Table3.server_messages;
         ])
       rows);
  print_endline
    "shape to reproduce: objective Phi-ideal >= Phi-practical > Remy > Cubic; Cubic worst delay";
  headline "table3"
    (List.map
       (fun (r : Table3.row) -> (r.Table3.name, Json.float r.Table3.median_objective))
       rows);
  (* Ablation: a delay-based baseline (TCP Vegas) on the same workload,
     for perspective on what autonomous delay feedback achieves without
     any shared state. *)
  let vegas =
    Scenario.run
      ~cc_factory:(fun _ () -> Phi_tcp.Vegas.make ())
      { config with Scenario.seed = List.hd budget.seeds }
  in
  let records = vegas.Scenario.records in
  let median f =
    match List.filter_map f records with
    | [] -> nan
    | l -> Stats.median (Array.of_list l)
  in
  let thr =
    median (fun r ->
        let t = Phi_tcp.Flow.throughput_bps r in
        if t > 0. then Some t else None)
  in
  let qd =
    median (fun r ->
        let q = Phi_tcp.Flow.queueing_delay r in
        if Float.is_finite q && q >= 0. then Some q else None)
  in
  Printf.printf "ablation — TCP Vegas (autonomous, delay-based): %s Mbps median, %s ms qdelay\n"
    (mbps thr) (ms qd)

(* {2 Cross-algorithm matrix} *)

let bench_matrix budget =
  section "Cross-algorithm matrix: the Cc_algo registry over low/high dumbbells";
  let duration_s = Float.min 30. budget.duration_s in
  let cells =
    Cc_matrix.run ~jobs:!jobs ~duration_s ~seeds:budget.seeds ()
  in
  Table.print ~align:[ Table.Left; Table.Left ]
    ~headers:[ "algorithm"; "workload"; "thr Mbps"; "qdelay ms"; "loss"; "power P_l"; "conns" ]
    (List.map
       (fun (c : Cc_matrix.cell) ->
         [
           c.Cc_matrix.algorithm;
           c.Cc_matrix.workload;
           mbps c.Cc_matrix.mean_throughput_bps;
           ms c.Cc_matrix.mean_queueing_delay_s;
           pct c.Cc_matrix.mean_loss_rate;
           Table.fmt_float c.Cc_matrix.mean_power;
           string_of_int c.Cc_matrix.connections;
         ])
       cells);
  Printf.printf "(%d algorithms x %d workloads, means over %d seeds, %g s runs)\n"
    (List.length Phi.Cc_algo.all)
    (List.length Cc_matrix.workloads)
    (List.length budget.seeds) duration_s;
  csv_out "cc_matrix.csv"
    ~header:
      [ "algorithm"; "workload"; "throughput_bps"; "queueing_delay_s"; "loss_rate"; "power";
        "connections" ]
    (List.map
       (fun (c : Cc_matrix.cell) ->
         [
           c.Cc_matrix.algorithm;
           c.Cc_matrix.workload;
           Phi_util.Csv.float_cell c.Cc_matrix.mean_throughput_bps;
           Phi_util.Csv.float_cell c.Cc_matrix.mean_queueing_delay_s;
           Phi_util.Csv.float_cell c.Cc_matrix.mean_loss_rate;
           Phi_util.Csv.float_cell c.Cc_matrix.mean_power;
           string_of_int c.Cc_matrix.connections;
         ])
       cells);
  headline "matrix"
    (List.map
       (fun (c : Cc_matrix.cell) ->
         ( c.Cc_matrix.algorithm ^ "/" ^ c.Cc_matrix.workload,
           Json.float c.Cc_matrix.mean_power ))
       cells);
  add_section "cc_matrix"
    (Json.List
       (List.map
          (fun (c : Cc_matrix.cell) ->
            Json.Obj
              [
                ("algorithm", Json.String c.Cc_matrix.algorithm);
                ("workload", Json.String c.Cc_matrix.workload);
                ("mean_throughput_bps", Json.float c.Cc_matrix.mean_throughput_bps);
                ("mean_queueing_delay_s", Json.float c.Cc_matrix.mean_queueing_delay_s);
                ("mean_loss_rate", Json.float c.Cc_matrix.mean_loss_rate);
                ("mean_power", Json.float c.Cc_matrix.mean_power);
                ("connections", Json.Int c.Cc_matrix.connections);
              ])
          cells))

(* {2 Section 2.1: path sharing} *)

let bench_sharing _budget =
  section "Section 2.1: flows sharing the WAN path (IPFIX, 1-in-4096 sampling)";
  let r = Sharing_experiment.run ~seed:7 () in
  Printf.printf "trace: %d flows, observed after sampling: %d (in %d subnet-minute slices)\n"
    r.Sharing_experiment.total_flows r.Sharing_experiment.sampled_flows
    r.Sharing_experiment.slices;
  headline "sharing"
    [
      ("total_flows", Json.Int r.Sharing_experiment.total_flows);
      ("sampled_flows", Json.Int r.Sharing_experiment.sampled_flows);
      ( "share_ge_5",
        match List.assoc_opt 5 r.Sharing_experiment.ccdf with
        | Some f -> Json.float f
        | None -> Json.Null );
    ];
  Table.print
    ~headers:[ "shares path with >= k others"; "fraction of flows"; "paper" ]
    (List.map
       (fun (k, frac) ->
         let paper =
           match List.assoc_opt k Sharing_experiment.paper_points with
           | Some p -> pct p
           | None -> "-"
         in
         [ string_of_int k; pct frac; paper ])
       r.Sharing_experiment.ccdf)

(* {2 Figure 5: outage detection and localization} *)

let bench_figure5 _budget =
  section "Figure 5: unreachability event detection and localization";
  let r = Figure5.run ~seed:11 () in
  let inj = r.Figure5.injected in
  Printf.printf "injected: %d min outage at minute %d, scope %s, severity %s\n"
    inj.Phi_workload.Request_stream.duration_min inj.Phi_workload.Request_stream.start_min
    (Format.asprintf "%a" Phi_workload.Request_stream.pp_scope
       inj.Phi_workload.Request_stream.scope)
    (pct inj.Phi_workload.Request_stream.severity);
  (match r.Figure5.events with
  | [] -> print_endline "NO EVENT DETECTED (unexpected)"
  | events ->
    List.iter
      (fun e -> Printf.printf "detected: %s\n" (Format.asprintf "%a" Phi_diagnosis.Anomaly.pp e))
      events);
  (match r.Figure5.localization with
  | Some f ->
    Printf.printf "localized to: %s (deficit share %s, own drop %s)\n"
      (Format.asprintf "%a" Phi_workload.Request_stream.pp_scope f.Phi_diagnosis.Localize.scope)
      (pct f.Phi_diagnosis.Localize.deficit_share)
      (pct f.Phi_diagnosis.Localize.own_drop)
  | None -> print_endline "no localization (unexpected)");
  Printf.printf "correct localization: %b\n" (Figure5.correctly_localized r);
  headline "figure5"
    [
      ("events_detected", Json.Int (List.length r.Figure5.events));
      ("correctly_localized", Json.Bool (Figure5.correctly_localized r));
    ];
  (* The figure itself: the affected slice's volume vs its baseline around
     the event, in 15-minute bins. *)
  let start = Stdlib.max 0 (inj.Phi_workload.Request_stream.start_min - 60) in
  let stop =
    Stdlib.min
      (Array.length r.Figure5.affected_series)
      (inj.Phi_workload.Request_stream.start_min + inj.Phi_workload.Request_stream.duration_min + 60)
  in
  let bins = ref [] in
  let i = ref start in
  while !i + 15 <= stop do
    let slice a = Stats.mean (Array.sub a !i 15) in
    bins :=
      [
        string_of_int !i;
        Table.fmt_float ~decimals:0 (slice r.Figure5.affected_baseline);
        Table.fmt_float ~decimals:0 (slice r.Figure5.affected_series);
      ]
      :: !bins;
    i := !i + 15
  done;
  Table.print ~headers:[ "minute"; "expected req/min"; "actual req/min" ] (List.rev !bins);
  csv_out "figure5.csv"
    ~header:[ "minute"; "affected_actual"; "affected_expected"; "total_actual" ]
    (List.init
       (Array.length r.Figure5.affected_series)
       (fun i ->
         [
           string_of_int i;
           Phi_util.Csv.float_cell r.Figure5.affected_series.(i);
           Phi_util.Csv.float_cell r.Figure5.affected_baseline.(i);
           Phi_util.Csv.float_cell r.Figure5.total_series.(i);
         ]));
  (* Ablation: CUSUM change-point detection vs the robust-z run detector
     (detection latency from the injected start). *)
  let baseline = Phi_diagnosis.Series.seasonal_baseline r.Figure5.total_series in
  let cusum_events =
    Phi_diagnosis.Cusum.detect ~actual:r.Figure5.total_series ~baseline ()
  in
  let runs_latency =
    match r.Figure5.events with
    | e :: _ -> Printf.sprintf "%d min" (e.Phi_diagnosis.Anomaly.start_min - inj.Phi_workload.Request_stream.start_min + 5)
    | [] -> "not detected"
  in
  let cusum_latency =
    match
      Phi_diagnosis.Cusum.detection_latency
        ~injected_start:inj.Phi_workload.Request_stream.start_min cusum_events
    with
    | Some l -> Printf.sprintf "%d min" l
    | None -> "not detected"
  in
  Printf.printf "ablation — detection latency: robust-z runs ~%s vs CUSUM %s\n" runs_latency
    cusum_latency

(* {2 Section 3.3: prioritization} *)

let bench_priority budget =
  section "Section 3.3: prioritization across an entity's flows (weighted ensemble)";
  let r =
    Priority_experiment.run ~duration_s:budget.duration_s ~spec:Topology.paper_spec ~seed:3 ()
  in
  Table.print
    ~headers:[ "flow weight"; "throughput Mbps" ]
    (List.map
       (fun (f : Priority_experiment.flow_share) ->
         [
           Table.fmt_float f.Priority_experiment.weight;
           mbps f.Priority_experiment.throughput_bps;
         ])
       r.Priority_experiment.entity_flows);
  Printf.printf "entity aggregate: %s Mbps vs %s Mbps for the same number of standard flows\n"
    (mbps r.Priority_experiment.entity_aggregate_bps)
    (mbps r.Priority_experiment.reference_aggregate_bps);
  Printf.printf "competitors kept: %s Mbps (vs %s in the all-standard control)\n"
    (mbps r.Priority_experiment.competitor_aggregate_bps)
    (mbps r.Priority_experiment.competitor_reference_bps)

(* {2 Section 3.5: performance prediction} *)

let bench_predict _budget =
  section "Section 3.5: performance prediction from shared history";
  let r = Predict_experiment.run ~seed:4 () in
  Printf.printf "%d prefixes, %d training samples, %d test queries\n"
    r.Predict_experiment.prefixes r.Predict_experiment.training_samples
    r.Predict_experiment.test_samples;
  Table.print ~align:[ Table.Left ]
    ~headers:[ "predictor"; "median abs relative error" ]
    [
      [ "hierarchical (/24 -> /16 -> /8 -> global)"; pct r.Predict_experiment.hierarchical_mape ];
      [ "global median (no shared hierarchy)"; pct r.Predict_experiment.global_mape ];
    ];
  Printf.printf "cold prefixes served by fallback levels: %d\n"
    r.Predict_experiment.cold_prefixes_served;
  headline "predict"
    [
      ("hierarchical_mape", Json.float r.Predict_experiment.hierarchical_mape);
      ("global_mape", Json.float r.Predict_experiment.global_mape);
    ];
  Table.print ~align:[ Table.Left ]
    ~headers:[ "path"; "predicted MOS"; "label" ]
    (List.map
       (fun (name, mos) ->
         [ name; Table.fmt_float mos; Phi_predict.Voip.quality_label mos ])
       r.Predict_experiment.example_mos)

(* {2 Section 3.2: informed adaptation} *)

let bench_adaptation _budget =
  section "Section 3.2: informed adaptation without cooperation";
  let r = Adaptation_experiment.run ~seed:5 () in
  let j = r.Adaptation_experiment.jitter in
  Table.print ~align:[ Table.Left ]
    ~headers:[ "jitter buffer"; "size ms"; "late packets" ]
    [
      [ "cold start"; Table.fmt_float j.Adaptation_experiment.cold_buffer_ms;
        pct j.Adaptation_experiment.cold_late_fraction ];
      [ "informed (shared p95)"; Table.fmt_float j.Adaptation_experiment.informed_buffer_ms;
        pct j.Adaptation_experiment.informed_late_fraction ];
    ];
  Printf.printf "latency saved by informed initialization: %s ms\n"
    (Table.fmt_float j.Adaptation_experiment.buffer_saving_ms);
  headline "adaptation"
    [
      ("buffer_saving_ms", Json.float j.Adaptation_experiment.buffer_saving_ms);
      ( "informed_late_fraction",
        Json.float j.Adaptation_experiment.informed_late_fraction );
      ("cold_late_fraction", Json.float j.Adaptation_experiment.cold_late_fraction);
    ];
  let d = r.Adaptation_experiment.dupack in
  Table.print ~align:[ Table.Left ]
    ~headers:[ "dup-ACK threshold"; "value"; "spurious fast-retransmit rate" ]
    [
      [ "standard"; string_of_int d.Adaptation_experiment.standard_threshold;
        pct d.Adaptation_experiment.standard_spurious_fraction ];
      [ "informed (shared reorder depths)"; string_of_int d.Adaptation_experiment.recommended_threshold;
        pct d.Adaptation_experiment.informed_spurious_fraction ];
    ]

(* {2 Mega-scale context plane: the million-flow swarm} *)

let bench_swarm budget =
  section "Mega-scale context plane: sharded, epoch-batched swarm";
  (* One lookup -> connect -> report round trip per flow, every message
     through the binary wire format.  The full budget doubles the fleet;
     quick keeps the acceptance-level million flows — the swarm is
     cheap next to the simulation sweeps. *)
  let n_flows = if budget.label = full_budget.label then 2_000_000 else 1_000_000 in
  let config = { Swarm.default_config with Swarm.n_flows } in
  let r = Swarm.run ~jobs:!jobs ~config () in
  let us v = Table.fmt_float (v *. 1e6) in
  Table.print ~align:[ Table.Left ]
    ~headers:[ "metric"; "value" ]
    [
      [ "flows served"; string_of_int r.Swarm.flows ];
      [ "lookups/s"; Table.fmt_float r.Swarm.lookups_per_s ];
      [ "reports/s"; Table.fmt_float r.Swarm.reports_per_s ];
      [ "p50 lookup us"; us r.Swarm.p50_lookup_s ];
      [ "p99 lookup us"; us r.Swarm.p99_lookup_s ];
      [ "shard balance (Jain)"; Printf.sprintf "%.4f" r.Swarm.jain_index ];
      [ "resident paths"; string_of_int r.Swarm.resident_paths ];
      [ "evictions"; string_of_int r.Swarm.evictions ];
      [ "epoch flushes"; string_of_int r.Swarm.flushes ];
    ];
  Printf.printf "fingerprint: %s\n" r.Swarm.fingerprint;
  Printf.printf "(%d cells x %d shards, %.2f s wall)\n" config.Swarm.cells
    config.Swarm.shards_per_cell r.Swarm.elapsed_s;
  csv_out "swarm.csv"
    ~header:
      [ "flows"; "lookups_per_s"; "reports_per_s"; "p50_lookup_s"; "p99_lookup_s";
        "jain_index"; "resident_paths"; "evictions" ]
    [
      [
        string_of_int r.Swarm.flows;
        Phi_util.Csv.float_cell r.Swarm.lookups_per_s;
        Phi_util.Csv.float_cell r.Swarm.reports_per_s;
        Phi_util.Csv.float_cell r.Swarm.p50_lookup_s;
        Phi_util.Csv.float_cell r.Swarm.p99_lookup_s;
        Phi_util.Csv.float_cell r.Swarm.jain_index;
        string_of_int r.Swarm.resident_paths;
        string_of_int r.Swarm.evictions;
      ];
    ];
  headline "swarm"
    [
      ("lookups_per_s", Json.float r.Swarm.lookups_per_s);
      ("p99_lookup_s", Json.float r.Swarm.p99_lookup_s);
      ("jain_index", Json.float r.Swarm.jain_index);
    ];
  add_section "swarm"
    (Json.Obj
       [
         ("flows", Json.Int r.Swarm.flows);
         ("lookups", Json.Int r.Swarm.lookups);
         ("reports", Json.Int r.Swarm.reports);
         ("cells", Json.Int config.Swarm.cells);
         ("shards_per_cell", Json.Int config.Swarm.shards_per_cell);
         ("lookups_per_s", Json.float r.Swarm.lookups_per_s);
         ("reports_per_s", Json.float r.Swarm.reports_per_s);
         ("p50_lookup_s", Json.float r.Swarm.p50_lookup_s);
         ("p99_lookup_s", Json.float r.Swarm.p99_lookup_s);
         ("jain_index", Json.float r.Swarm.jain_index);
         ("resident_paths", Json.Int r.Swarm.resident_paths);
         ("evictions", Json.Int r.Swarm.evictions);
         ("flushes", Json.Int r.Swarm.flushes);
         ("elapsed_s", Json.float r.Swarm.elapsed_s);
         ("fingerprint", Json.String r.Swarm.fingerprint);
         ( "jobs",
           Json.Int (Pool.effective_jobs ~jobs:!jobs ~cells:config.Swarm.cells ()) );
       ])

(* {2 Conservative parallel DES: the 1000-sender parking lot} *)

let bench_pdes budget =
  section "Conservative parallel DES: 1000-sender multi-bottleneck parking lot";
  (* One giant topology — four 500 Mb/s bottleneck segments, 960 local
     Cubic pairs plus 40 flows traversing every segment — partitioned
     one island per segment and advanced in 10 ms lookahead windows.
     The same scenario runs at 1, 2 and 4 worker domains; the
     fingerprint (and event count) must be identical for every width,
     and the wall-clock ratio is the scaling curve the report gates. *)
  let spec =
    let duration_s =
      if budget.label = quick_budget.label then 2.
      else if budget.label = full_budget.label then Parking_lot.default_spec.Parking_lot.duration_s
      else 4.
    in
    { Parking_lot.default_spec with Parking_lot.duration_s }
  in
  (* Under the armed sanitizer Parking_lot forces every run serial, so
     a scaling curve would be three identical measurements — keep one. *)
  let jobs_list =
    if Phi_sim.Invariant.enabled () then [ 1 ]
    else if budget.label = quick_budget.label then [ 1; 2 ]
    else [ 1; 2; 4 ]
  in
  let runs = List.map (fun j -> Parking_lot.run ~jobs:j ~spec ()) jobs_list in
  let serial = List.hd runs in
  Table.print ~align:[ Table.Left ]
    ~headers:[ "jobs"; "wall s"; "events/s"; "speedup"; "efficiency" ]
    (List.map
       (fun (r : Parking_lot.result) ->
         let speedup = serial.Parking_lot.wall_s /. r.Parking_lot.wall_s in
         [
           string_of_int r.Parking_lot.jobs;
           Printf.sprintf "%.2f" r.Parking_lot.wall_s;
           Table.fmt_float r.Parking_lot.events_per_s;
           Printf.sprintf "%.2f" speedup;
           Printf.sprintf "%.2f" (speedup /. float_of_int r.Parking_lot.jobs);
         ])
       runs);
  List.iter
    (fun (r : Parking_lot.result) ->
      if r.Parking_lot.fingerprint <> serial.Parking_lot.fingerprint then begin
        Printf.eprintf "bench: pdes fingerprint diverged at jobs %d:\n  %s\n  %s\n"
          r.Parking_lot.jobs serial.Parking_lot.fingerprint r.Parking_lot.fingerprint;
        exit 1
      end)
    runs;
  Printf.printf "fingerprint: %s\n" serial.Parking_lot.fingerprint;
  Printf.printf
    "(%d senders, %d islands, %.0f ms window; long flows %.2f Mb/s, local %.1f Mb/s)\n"
    (Parking_lot.senders spec) serial.Parking_lot.islands
    (serial.Parking_lot.window_s *. 1e3)
    (serial.Parking_lot.long_goodput_bps /. 1e6)
    (serial.Parking_lot.local_goodput_bps /. 1e6);
  csv_out "pdes.csv"
    ~header:[ "jobs"; "wall_s"; "events"; "events_per_s"; "fingerprint" ]
    (List.map
       (fun (r : Parking_lot.result) ->
         [
           string_of_int r.Parking_lot.jobs;
           Phi_util.Csv.float_cell r.Parking_lot.wall_s;
           string_of_int r.Parking_lot.events;
           Phi_util.Csv.float_cell r.Parking_lot.events_per_s;
           r.Parking_lot.fingerprint;
         ])
       runs);
  let best = List.fold_left (fun acc (r : Parking_lot.result) -> Float.max acc r.Parking_lot.events_per_s) 0. runs in
  headline "pdes"
    [
      ("events_per_s", Json.float best);
      ("senders", Json.Int (Parking_lot.senders spec));
    ];
  add_section "pdes"
    (Json.Obj
       [
         ("islands", Json.Int serial.Parking_lot.islands);
         ("window_s", Json.float serial.Parking_lot.window_s);
         ("senders", Json.Int (Parking_lot.senders spec));
         ("duration_s", Json.float spec.Parking_lot.duration_s);
         ("cores", Json.Int (Pool.available_cores ()));
         ( "jobs",
           Json.Int
             (List.fold_left
                (fun acc (r : Parking_lot.result) -> Stdlib.max acc r.Parking_lot.jobs)
                1 runs) );
         ( "runs",
           Json.List
             (List.map
                (fun (r : Parking_lot.result) ->
                  Json.Obj
                    [
                      ("jobs", Json.Int r.Parking_lot.jobs);
                      ("wall_s", Json.float r.Parking_lot.wall_s);
                      ("events", Json.Int r.Parking_lot.events);
                      ("events_per_s", Json.float r.Parking_lot.events_per_s);
                      ("fingerprint", Json.String r.Parking_lot.fingerprint);
                    ])
                runs) );
       ])

(* {2 WAN evaluation matrix: algorithm x topology zoo x dynamics} *)

let bench_wan_matrix budget =
  section "WAN evaluation matrix: algorithm x topology zoo x adversarial dynamics";
  (* The quick budget keeps the matrix to a single smoke cell (first
     algorithm over the WAN zoo under link flaps) so CI exercises the
     whole plumbing — graph builder, dynamics script, report gates —
     in seconds; default and full budgets sweep the three structural
     topology classes x three regimes for every selected algorithm. *)
  let quick = budget.label = quick_budget.label in
  let algorithms = if quick then [ List.hd Phi.Cc_algo.all ] else Phi.Cc_algo.all in
  let topologies = if quick then [ "wan" ] else Cc_matrix.default_topologies in
  let dynamics = if quick then [ "flap" ] else Cc_matrix.default_dynamics in
  let seeds = if quick then [ List.hd budget.seeds ] else budget.seeds in
  let duration_s = if quick then 6. else 12. in
  let cells =
    Cc_matrix.run_matrix ~jobs:!jobs ~algorithms ~topologies ~dynamics ~duration_s ~seeds ()
  in
  Table.print ~align:[ Table.Left; Table.Left; Table.Left; Table.Left ]
    ~headers:
      [ "algorithm"; "topology"; "dynamics"; "aqm"; "thr Mbps"; "delay ms"; "loss"; "power P_l";
        "jain"; "p99 fct s"; "conns" ]
    (List.map
       (fun (c : Cc_matrix.matrix_cell) ->
         [
           c.Cc_matrix.m_algorithm;
           c.Cc_matrix.m_topology;
           c.Cc_matrix.m_dynamics;
           c.Cc_matrix.m_aqm;
           mbps c.Cc_matrix.m_throughput_bps;
           ms c.Cc_matrix.m_delay_s;
           pct c.Cc_matrix.m_loss_rate;
           Table.fmt_float c.Cc_matrix.m_power;
           Printf.sprintf "%.3f" c.Cc_matrix.m_jain;
           Printf.sprintf "%.2f" c.Cc_matrix.m_p99_fct_s;
           string_of_int c.Cc_matrix.m_connections;
         ])
       cells);
  Printf.printf "(%d algorithms x %d topologies x %d dynamics, means over %d seeds, %g s cells)\n"
    (List.length algorithms) (List.length topologies) (List.length dynamics)
    (List.length seeds) duration_s;
  (* Determinism probe: re-run the first combination's seeds serially
     and fold the floats of both cells into fingerprints.  Report_check
     gates their equality, so a pool-introduced divergence (worker
     state leaking across cells, a jobs-dependent rng) fails CI loudly
     instead of drifting the dashboards.  At --jobs 1 the probe is a
     pure replay of the same serial path. *)
  let fingerprint (c : Cc_matrix.matrix_cell) =
    Printf.sprintf "%h;%h;%h;%h;%h;%d" c.Cc_matrix.m_throughput_bps c.Cc_matrix.m_delay_s
      c.Cc_matrix.m_jain c.Cc_matrix.m_p99_fct_s c.Cc_matrix.m_power c.Cc_matrix.m_connections
  in
  let probe_parallel = List.hd cells in
  let probe_serial =
    List.hd
      (Cc_matrix.run_matrix ~jobs:1 ~algorithms:[ List.hd algorithms ]
         ~topologies:[ List.hd topologies ] ~dynamics:[ List.hd dynamics ] ~duration_s ~seeds ())
  in
  let probe_name =
    Printf.sprintf "%s/%s/%s" probe_parallel.Cc_matrix.m_algorithm
      probe_parallel.Cc_matrix.m_topology probe_parallel.Cc_matrix.m_dynamics
  in
  if fingerprint probe_parallel <> fingerprint probe_serial then begin
    Printf.eprintf "bench: wan_matrix cell %s diverged from its serial replay:\n  %s\n  %s\n"
      probe_name (fingerprint probe_parallel) (fingerprint probe_serial);
    exit 1
  end;
  Printf.printf "determinism probe %s: %s\n" probe_name (fingerprint probe_serial);
  csv_out "wan_matrix.csv"
    ~header:
      [ "algorithm"; "topology"; "dynamics"; "aqm"; "throughput_bps"; "delay_s";
        "queueing_delay_s"; "loss_rate"; "power"; "jain"; "p99_fct_s"; "connections" ]
    (List.map
       (fun (c : Cc_matrix.matrix_cell) ->
         [
           c.Cc_matrix.m_algorithm;
           c.Cc_matrix.m_topology;
           c.Cc_matrix.m_dynamics;
           c.Cc_matrix.m_aqm;
           Phi_util.Csv.float_cell c.Cc_matrix.m_throughput_bps;
           Phi_util.Csv.float_cell c.Cc_matrix.m_delay_s;
           Phi_util.Csv.float_cell c.Cc_matrix.m_queueing_delay_s;
           Phi_util.Csv.float_cell c.Cc_matrix.m_loss_rate;
           Phi_util.Csv.float_cell c.Cc_matrix.m_power;
           Phi_util.Csv.float_cell c.Cc_matrix.m_jain;
           Phi_util.Csv.float_cell c.Cc_matrix.m_p99_fct_s;
           string_of_int c.Cc_matrix.m_connections;
         ])
       cells);
  let min_over f = List.fold_left (fun acc c -> Float.min acc (f c)) infinity cells in
  let max_over f = List.fold_left (fun acc c -> Float.max acc (f c)) neg_infinity cells in
  headline "wan_matrix"
    [
      ("cells", Json.Int (List.length cells));
      ("min_jain", Json.float (min_over (fun c -> c.Cc_matrix.m_jain)));
      ("max_p99_fct_s", Json.float (max_over (fun c -> c.Cc_matrix.m_p99_fct_s)));
      ("max_power", Json.float (max_over (fun c -> c.Cc_matrix.m_power)));
    ];
  add_section "wan_matrix"
    (Json.Obj
       [
         ("duration_s", Json.float duration_s);
         ("seeds", Json.Int (List.length seeds));
         ("jobs", Json.Int !jobs);
         ("aqm", Json.String "droptail");
         ( "cells",
           Json.List
             (List.map
                (fun (c : Cc_matrix.matrix_cell) ->
                  Json.Obj
                    [
                      ("algorithm", Json.String c.Cc_matrix.m_algorithm);
                      ("topology", Json.String c.Cc_matrix.m_topology);
                      ("dynamics", Json.String c.Cc_matrix.m_dynamics);
                      ("aqm", Json.String c.Cc_matrix.m_aqm);
                      ("throughput_bps", Json.float c.Cc_matrix.m_throughput_bps);
                      ("delay_s", Json.float c.Cc_matrix.m_delay_s);
                      ("queueing_delay_s", Json.float c.Cc_matrix.m_queueing_delay_s);
                      ("loss_rate", Json.float c.Cc_matrix.m_loss_rate);
                      ("power", Json.float c.Cc_matrix.m_power);
                      ("jain", Json.float c.Cc_matrix.m_jain);
                      ("p99_fct_s", Json.float c.Cc_matrix.m_p99_fct_s);
                      ("connections", Json.Int c.Cc_matrix.m_connections);
                    ])
                cells) );
         ( "determinism",
           Json.Obj
             [
               ("cell", Json.String probe_name);
               ("parallel", Json.String (fingerprint probe_parallel));
               ("serial", Json.String (fingerprint probe_serial));
             ] );
       ])

(* {2 Section 3.1: cross-provider aggregation} *)

let bench_secure_agg _budget =
  section "Section 3.1: privacy-preserving cross-provider aggregation";
  (* Five providers each hold a private congestion estimate for a shared
     transit path; pairwise masking lets them publish a common barometer
     without revealing anyone's number. *)
  let rng = Phi_util.Prng.create ~seed:9 in
  let session = Phi.Secure_agg.create rng ~participants:5 in
  let private_utils = [ 0.82; 0.47; 0.91; 0.55; 0.63 ] in
  let shares =
    List.mapi (fun p u -> Phi.Secure_agg.submit session ~participant:p ~value:u) private_utils
  in
  Table.print ~align:[ Table.Left ]
    ~headers:[ "provider"; "private estimate"; "published share (masked)" ]
    (List.mapi
       (fun i (u, share) ->
         [ Printf.sprintf "provider-%d" i; pct u; Int64.to_string share ])
       (List.combine private_utils shares));
  Printf.printf "common barometer (mean utilization): %s — true mean %s\n"
    (pct (Phi.Secure_agg.mean session shares))
    (pct (Phi_util.Stats.mean (Array.of_list private_utils)))

(* {2 Microbenchmarks: event core, packet path, decision plane} *)

let bench_micro budget =
  section "Microbenchmarks: event core, packet path, decision plane";
  List.iter (fun (name, json) -> add_section name json)
    (Micro.run ~quick:(budget.label = quick_budget.label))

(* {2 Driver} *)

let () =
  let args = Array.to_list Sys.argv in
  let has flag = List.mem flag args in
  let value_of flag =
    let rec find = function
      | f :: v :: _ when f = flag -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let budget =
    if has "--full" then full_budget
    else if has "--quick" then quick_budget
    else default_budget
  in
  let only = value_of "--only" in
  csv_dir := value_of "--csv";
  let json_path = value_of "--json" in
  (jobs :=
     match value_of "--jobs" with
     | Some v -> (
       match int_of_string_opt v with
       | Some j when j >= 1 -> j
       | Some _ | None ->
         prerr_endline "bench: --jobs expects a positive integer";
         exit 2)
     | None -> Pool.default_jobs ());
  (* The invariant sanitizer accumulates into a process-global buffer
     that is not domain-safe; armed runs must stay serial. *)
  if Phi_sim.Invariant.enabled () && !jobs > 1 then begin
    Printf.printf "(PHI_SANITIZE=1: forcing --jobs 1, the sanitizer is not domain-safe)\n";
    jobs := 1
  end;
  let want id = match only with None -> true | Some o -> o = id in
  let run_if id ~cells f = if want id then ignore (timed id ~cells (fun () -> f ())) else () in
  let cells1 = List.length budget.seeds in
  Printf.printf "Phi benchmark harness — budget: %s\n" budget.label;
  Printf.printf "jobs: %d (of %d cores)\n" !jobs (Pool.available_cores ());
  run_if "table1" ~cells:1 (fun () -> bench_table1 budget);
  run_if "table2" ~cells:1 (fun () -> bench_table2 budget);
  let sweep_low =
    if want "figure2a" || want "figure3" || want "figure4" then
      Some (timed "figure2a" ~cells:(sweep_cells budget) (fun () -> bench_figure2a budget))
    else None
  in
  let sweep_high =
    if want "figure2b" || want "figure3" then
      Some (timed "figure2b" ~cells:(sweep_cells budget) (fun () -> bench_figure2b budget))
    else None
  in
  run_if "figure2c" ~cells:9 (fun () -> bench_figure2c budget);
  (match (sweep_low, sweep_high) with
  | Some low, Some high when want "figure3" ->
    run_if "figure3" ~cells:1 (fun () -> bench_figure3 ~sweep_low:low ~sweep_high:high)
  | _ -> ());
  (match sweep_low with
  | Some low when want "figure4" ->
    run_if "figure4" ~cells:6 (fun () -> bench_figure4 budget ~sweep_low:low)
  | _ -> ());
  run_if "table3" ~cells:(4 * cells1) (fun () -> bench_table3 budget);
  run_if "matrix"
    ~cells:(List.length Phi.Cc_algo.all * List.length Cc_matrix.workloads * cells1)
    (fun () -> bench_matrix budget);
  run_if "sharing" ~cells:1 (fun () -> bench_sharing budget);
  run_if "figure5" ~cells:1 (fun () -> bench_figure5 budget);
  run_if "priority" ~cells:1 (fun () -> bench_priority budget);
  run_if "secureagg" ~cells:1 (fun () -> bench_secure_agg budget);
  run_if "predict" ~cells:1 (fun () -> bench_predict budget);
  run_if "adaptation" ~cells:1 (fun () -> bench_adaptation budget);
  run_if "swarm" ~cells:Swarm.default_config.Swarm.cells (fun () -> bench_swarm budget);
  run_if "pdes" ~cells:3 (fun () -> bench_pdes budget);
  let wan_matrix_cells =
    if budget.label = quick_budget.label then 1
    else
      List.length Phi.Cc_algo.all
      * List.length Cc_matrix.default_topologies
      * List.length Cc_matrix.default_dynamics
      * cells1
  in
  run_if "wan_matrix" ~cells:wan_matrix_cells (fun () -> bench_wan_matrix budget);
  run_if "micro" ~cells:1 (fun () -> bench_micro budget);
  (match json_path with
  | None -> ()
  | Some path ->
    let calibration = calibrate budget in
    let report = report_json ~budget ~calibration in
    Json.to_file ~path report;
    (* Re-read and parse: a malformed report must fail loudly here, not
       downstream in CI. *)
    (match Json.of_file ~path with
    | Ok _ -> Printf.printf "\n(wrote %s)\n" path
    | Error msg ->
      Printf.eprintf "bench: emitted JSON failed to parse: %s\n" msg;
      exit 1));
  print_endline "\ndone."
