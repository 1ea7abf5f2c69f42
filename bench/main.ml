(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (plus the DESIGN.md extension experiments) and the
   event-core / packet-path / decision-plane microbenchmarks (the
   [micro] experiment, bench/micro.ml).

   Usage: dune exec bench/main.exe [-- --quick|--full] [--only ID]
                                   [--csv DIR] [--jobs N] [--json PATH]

   The default configuration is a documented downsampling of the paper's
   budgets (coarser parameter grid, fewer seeds) so the whole harness
   finishes in minutes; --full uses the paper's Table 2 grid and 8 runs.
   An unknown --only ID runs nothing and exits 2, and so does an
   argument the harness does not know or a value flag without its value.
   Experiments print through Phi_experiments.Printers, as in phi-cli.

   --jobs N fans the grid-shaped experiments' (setting, seed) cells over
   N domains via Phi_runner.Pool (default: the core count; --jobs 1 is
   the serial path).  Tables are bit-for-bit identical for every N.

   --csv DIR writes figure data as CSV, a column per report key.

   --json PATH additionally writes a machine-readable report (schema
   Phi_check.Report_check.schema): per-experiment wall clock, cells/sec,
   the headline figure metrics, and one section per section-carrying
   experiment that ran — "micro", "alloc" and "decision" from micro,
   "cc_matrix" from matrix, and "swarm", "pdes" and "wan_matrix" from
   the experiments of the same name.  bin/phi_json_check gates it in CI
   against the budgets committed in Phi_check.Report_check.  The report
   times each experiment once, at the requested --jobs; speedup claims
   come from perfbench's repeated runs (perfbench/README.md). *)

module Topology = Phi_net.Topology
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

let csv_out name columns rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
    (* mkdirs creates missing parents too ("out/run3" used to fail when
       "out" did not exist) and tolerates concurrent creation. *)
    let path = Filename.concat dir name in
    Phi_util.Csv.write ~mkdirs:true ~path ~header:(Columns.keys columns)
      (List.map (Columns.csv_row columns) rows);
    Printf.printf "(wrote %s)\n" path

(* Worker-pool width for the grid-shaped experiments (--jobs N). *)
let jobs = ref 1

(* {2 Machine-readable report (--json PATH)} *)

let timings : (string * float * int) list ref = ref []  (* (id, wall_s, cells), reverse order *)
let headlines : (string * Json.t) list ref = ref []
let headline id fields = headlines := (id, Json.Obj fields) :: !headlines

(* A headline made of the named report entries of one row. *)
let headline_of id keys columns row = headline id (Columns.select keys (Columns.fields columns row))

let timed id ~cells f =
  let wall_s, r = Micro.timed f in
  timings := (id, wall_s, cells) :: !timings;
  r

(* Report sections, reverse order: each section-carrying experiment
   adds its own when it runs. *)
let sections : (string * Json.t) list ref = ref []
let add_section name json = sections := (name, json) :: !sections

let sweep_cells budget = (List.length (Sweep.settings budget.grid) + 1) * List.length budget.seeds

let report_json ~budget =
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
     ]
    @ List.rev !sections)

(* {2 Figure 2a/2b: sweep scatter} *)

(* One sweep, printed and exported: every setting in grid order (the
   optimal one marked) then the default as ID.csv, and the ID headline. *)
let bench_sweep budget id config =
  let config = { config with Scenario.duration_s = budget.duration_s } in
  let sweep = Sweep.run ~jobs:!jobs config budget.grid ~seeds:budget.seeds in
  let best = Sweep.optimal sweep in
  Printers.sweep sweep;
  csv_out (id ^ ".csv") Printers.sweep_columns
    (List.map (fun p -> ((if p == best then "optimal" else ""), p)) sweep.Sweep.points
    @ [ ("default", sweep.Sweep.default_point) ]);
  let point marker p =
    Json.Obj
      (Columns.select
         [ "params"; "mean_throughput_bps"; "mean_queueing_delay_s"; "mean_loss_rate"; "mean_power" ]
         (Columns.fields Printers.sweep_columns (marker, p)))
  in
  headline id
    [
      ("settings", Json.Int (List.length sweep.Sweep.points));
      ("optimal", point "optimal" best);
      ("default", point "default" sweep.Sweep.default_point);
    ];
  sweep

let bench_figure2a budget =
  section "Figure 2a: Cubic parameter sweep, low link utilization (500 KB on / 2 s off)";
  bench_sweep budget "figure2a" Scenario.low_utilization

let bench_figure2b budget =
  section "Figure 2b: Cubic parameter sweep, high link utilization (500 KB on / 0.3 s off)";
  let sweep = bench_sweep budget "figure2b" Scenario.high_utilization in
  Printers.figure2b_observation sweep;
  sweep

(* {2 Figure 2c: long-running flows, beta sweep} *)

let bench_figure2c budget =
  section "Figure 2c: 100 long-running connections (~99% utilization), beta sweep";
  let n_flows = if budget.label = quick_budget.label then 40 else 100 in
  let results =
    Sweep.run_longrunning ~jobs:!jobs ~spec:Topology.paper_spec ~n_flows
      ~duration_s:budget.duration_s ~seeds:[ List.hd budget.seeds ]
      ~betas:Sweep.beta_grid.Sweep.beta ()
  in
  Printers.longrun ~n_flows results;
  csv_out "figure2c.csv" Printers.longrun_columns results;
  headline "figure2c" (Columns.fields (Printers.longrun_summary_columns ~n_flows) results)

(* {2 Figure 4: incremental deployment} *)

let bench_figure4 budget ~(sweep_low : Sweep.t) =
  section "Figure 4: incremental deployment (half modified, half default)";
  let optimal = (Sweep.optimal sweep_low).Sweep.params in
  let config =
    { Scenario.low_utilization with Scenario.duration_s = budget.duration_s }
  in
  let drop_tail = Incremental.run ~params_modified:optimal config in
  (* Ablation: the same half-and-half split with a RED bottleneck.  The
     paper's incentive argument (Section 3.1) rests on FIFO drop-tail
     queueing; RED's early dropping shields the unmodified senders from
     the default setting's standing queue. *)
  let with_red _engine dumbbell =
    let bottleneck = dumbbell.Topology.bottleneck in
    Phi_net.Link.set_discipline bottleneck
      ~rng:(Phi_util.Prng.create ~seed:4242)
      (Phi_net.Link.Red
         (Phi_net.Link.default_red
            ~capacity_pkts:(Phi_net.Link.capacity_pkts bottleneck)
            ()))
  in
  let red = Incremental.run ~observe:with_red ~params_modified:optimal config in
  (* The DESIGN.md ablation: deployment-fraction sweep. *)
  let fractions =
    Incremental.fraction_sweep ~jobs:!jobs ~fractions:[ 0.25; 0.5; 0.75; 1.0 ]
      ~params_modified:optimal ~seeds:[ List.hd budget.seeds ] config
  in
  Printers.figure4 ~optimal ~drop_tail ~red fractions

(* {2 Table 3: Remy vs Phi} *)

let bench_table3 budget =
  section "Table 3: Remy / Remy-Phi / Cubic on the paper dumbbell";
  let config = { Scenario.table3 with Scenario.duration_s = Float.min 60. budget.duration_s } in
  let rows = Table3.run ~jobs:!jobs ~seeds:budget.seeds config in
  Printers.table3 rows;
  headline "table3"
    (List.map
       (fun (r : Table3.row) ->
         (r.Table3.name, Json.float r.Table3.summary.Trainer.median_objective))
       rows);
  (* Ablation: a delay-based baseline (TCP Vegas) on the same workload,
     for perspective on what autonomous delay feedback achieves without
     any shared state. *)
  Printers.vegas_ablation
    (Trainer.summarize
       (Scenario.run
          ~cc_factory:(fun _ () -> Phi_tcp.Vegas.make ())
          { config with Scenario.seed = List.hd budget.seeds })
         .Scenario.records)

(* {2 The algorithm matrix}

   Two experiments, two cell lists of the one Cc_matrix: "matrix" runs
   the registry over the paper's low/high dumbbell loads, "wan_matrix"
   over topology zoo x dynamics cells.  Both print, export and report
   their rows through [report_matrix], in one layout. *)

let report_matrix name ~duration_s ~seeds ?(extra = []) rows =
  Printers.matrix ~duration_s ~seeds rows;
  csv_out (name ^ ".csv") Printers.matrix_columns rows;
  add_section name
    (Json.Obj
       ([
          ("duration_s", Json.float duration_s);
          ("seeds", Json.Int (List.length seeds));
          ("jobs", Json.Int !jobs);
          ( "cells",
            Json.List (List.map (fun r -> Json.Obj (Columns.fields Printers.matrix_columns r)) rows) );
        ]
       @ extra))

let bench_matrix budget =
  section "Cross-algorithm matrix: the Cc_algo registry over low/high dumbbells";
  let duration_s = Float.min 30. budget.duration_s in
  let rows =
    Cc_matrix.run ~jobs:!jobs ~duration_s ~seeds:budget.seeds Cc_matrix.paper_cells
  in
  report_matrix "cc_matrix" ~duration_s ~seeds:budget.seeds rows;
  headline "matrix"
    (List.map
       (fun (r : Cc_matrix.row) ->
         ( r.Cc_matrix.algorithm ^ "/" ^ r.Cc_matrix.cell,
           Json.float r.Cc_matrix.mean.Scenario.power ))
       rows)

(* {2 Section 2.1: path sharing} *)

let bench_sharing _budget =
  section "Section 2.1: flows sharing the WAN path (IPFIX, 1-in-4096 sampling)";
  let r = Sharing_experiment.run ~seed:7 () in
  Printers.sharing r;
  headline_of "sharing" [ "total_flows"; "sampled_flows"; "share_ge_5" ] Printers.sharing_columns r

(* {2 Figure 5: outage detection and localization} *)

let bench_figure5 _budget =
  section "Figure 5: unreachability event detection and localization";
  let r = Figure5.run ~seed:11 () in
  Printers.figure5 r;
  headline "figure5" (Columns.fields Printers.figure5_columns r);
  csv_out "figure5.csv" (Printers.figure5_series_columns r)
    (List.init (Array.length r.Figure5.affected_series) (fun minute -> (minute, 1)))

(* {2 Section 3.3: prioritization} *)

let bench_priority budget =
  section "Section 3.3: prioritization across an entity's flows (weighted ensemble)";
  Printers.priority
    (Priority_experiment.run ~duration_s:budget.duration_s ~spec:Topology.paper_spec ~seed:3 ())

(* {2 Section 3.5: performance prediction} *)

let bench_predict _budget =
  section "Section 3.5: performance prediction from shared history";
  let r = Predict_experiment.run ~seed:4 () in
  Printers.predict r;
  headline_of "predict" [ "hierarchical_mape"; "global_mape" ] Printers.predict_columns r

(* {2 Section 3.2: informed adaptation} *)

let bench_adaptation _budget =
  section "Section 3.2: informed adaptation without cooperation";
  let r = Adaptation_experiment.run ~seed:5 () in
  Printers.adaptation r;
  headline_of "adaptation"
    [ "buffer_saving_ms"; "informed_late_fraction"; "cold_late_fraction" ]
    Printers.jitter_columns r.Adaptation_experiment.jitter

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
  let jobs = Pool.effective_jobs ~jobs:!jobs ~cells:config.Swarm.cells () in
  let columns = Printers.swarm_columns ~jobs config in
  Printers.swarm ~jobs config r;
  csv_out "swarm.csv" columns [ r ];
  headline_of "swarm" [ "lookups_per_s"; "p99_lookup_s"; "jain_index" ] columns r;
  add_section "swarm" (Json.Obj (Columns.fields columns r))

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
  Printers.pdes spec runs;
  List.iter
    (fun (r : Parking_lot.result) ->
      if r.Parking_lot.fingerprint <> serial.Parking_lot.fingerprint then begin
        Printf.eprintf "bench: pdes fingerprint diverged at jobs %d:\n  %s\n  %s\n"
          r.Parking_lot.jobs serial.Parking_lot.fingerprint r.Parking_lot.fingerprint;
        exit 1
      end)
    runs;
  let columns = Printers.pdes_columns serial and summary = Printers.pdes_summary_columns spec in
  csv_out "pdes.csv" columns runs;
  let faster (a : Parking_lot.result) (r : Parking_lot.result) =
    if r.Parking_lot.events_per_s > a.Parking_lot.events_per_s then r else a
  in
  headline "pdes"
    (Columns.select [ "events_per_s" ] (Columns.fields columns (List.fold_left faster serial runs))
    @ Columns.select [ "senders" ] (Columns.fields summary runs));
  add_section "pdes"
    (Json.Obj
       (Columns.fields summary runs
       @ [ ("runs", Json.List (List.map (fun r -> Json.Obj (Columns.fields columns r)) runs)) ]))

(* {2 WAN evaluation matrix: algorithm x topology zoo x dynamics} *)

let bench_wan_matrix budget =
  section "WAN evaluation matrix: algorithm x topology zoo x adversarial dynamics";
  (* The quick budget keeps the matrix to a single smoke cell (first
     algorithm over the WAN zoo under link flaps) so CI exercises the
     whole plumbing — topology builder, dynamics script, report gates —
     in seconds; default and full budgets sweep the three structural
     topology classes x three regimes for every selected algorithm. *)
  let quick = budget.label = quick_budget.label in
  let algorithms = if quick then [ List.hd Phi.Cc_algo.all ] else Phi.Cc_algo.all in
  let cells =
    Cc_matrix.zoo_cells ~aqm:Scenario.Drop_tail
      ~topologies:(if quick then [ "wan" ] else Cc_matrix.default_topologies)
      ~dynamics:(if quick then [ "flap" ] else Cc_matrix.default_dynamics)
  in
  let seeds = if quick then [ List.hd budget.seeds ] else budget.seeds in
  let duration_s = if quick then 6. else 12. in
  let rows = Cc_matrix.run ~jobs:!jobs ~algorithms ~duration_s ~seeds cells in
  (* Determinism probe: re-run the first row's seeds serially and fold
     the floats of both rows into fingerprints.  Report_check gates
     their equality, so a pool-introduced divergence (worker state
     leaking across cells, a jobs-dependent rng) fails CI loudly
     instead of drifting the dashboards.  At --jobs 1 the probe is a
     pure replay of the same serial path. *)
  let fingerprint (r : Cc_matrix.row) =
    let m = r.Cc_matrix.mean in
    Printf.sprintf "%h;%h;%h;%h;%h;%d" m.Scenario.throughput_bps m.Scenario.delay_s
      m.Scenario.jain m.Scenario.p99_fct_s m.Scenario.power m.Scenario.connections
  in
  let probe_parallel = List.hd rows in
  let probe_serial =
    List.hd
      (Cc_matrix.run ~jobs:1 ~algorithms:[ List.hd algorithms ] ~duration_s ~seeds
         [ List.hd cells ])
  in
  let probe_name = probe_parallel.Cc_matrix.algorithm ^ "/" ^ probe_parallel.Cc_matrix.cell in
  if fingerprint probe_parallel <> fingerprint probe_serial then begin
    Printf.eprintf "bench: wan_matrix cell %s diverged from its serial replay:\n  %s\n  %s\n"
      probe_name (fingerprint probe_parallel) (fingerprint probe_serial);
    exit 1
  end;
  Printf.printf "determinism probe %s: %s\n" probe_name (fingerprint probe_serial);
  report_matrix "wan_matrix" ~duration_s ~seeds rows
    ~extra:
      [
        ( "determinism",
          Json.Obj
            [
              ("cell", Json.String probe_name);
              ("parallel", Json.String (fingerprint probe_parallel));
              ("serial", Json.String (fingerprint probe_serial));
            ] );
      ];
  let means = List.map (fun (r : Cc_matrix.row) -> r.Cc_matrix.mean) rows in
  let min_over f = List.fold_left (fun acc m -> Float.min acc (f m)) infinity means in
  let max_over f = List.fold_left (fun acc m -> Float.max acc (f m)) neg_infinity means in
  headline "wan_matrix"
    [
      ("cells", Json.Int (List.length rows));
      ("min_jain", Json.float (min_over (fun m -> m.Scenario.jain)));
      ("max_p99_fct_s", Json.float (max_over (fun m -> m.Scenario.p99_fct_s)));
      ("max_power", Json.float (max_over (fun m -> m.Scenario.power)));
    ]

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
  Printers.secure_agg private_utils shares ~barometer:(Phi.Secure_agg.mean session shares)

(* {2 Microbenchmarks: event core, packet path, decision plane} *)

let bench_micro budget =
  section "Microbenchmarks: event core, packet path, decision plane";
  List.iter (fun (name, json) -> add_section name json)
    (Micro.run ~quick:(budget.label = quick_budget.label))

(* {2 Driver} *)

let () =
  let usage msg =
    prerr_endline ("bench: " ^ msg);
    exit 2
  in
  (* Every argument is a switch, a value flag, or the value right after
     one; a value never starts with "--", so a flag cannot swallow the
     next flag. *)
  let switches = [ "--quick"; "--full" ] and value_flags = [ "--only"; "--csv"; "--jobs"; "--json" ] in
  let rec parse = function
    | [] -> []
    | f :: rest when List.mem f switches -> (f, "") :: parse rest
    | f :: v :: rest when List.mem f value_flags && not (String.starts_with ~prefix:"--" v) ->
      (f, v) :: parse rest
    | f :: _ when List.mem f value_flags -> usage (f ^ " expects a value")
    | a :: _ -> usage ("unknown argument " ^ a)
  in
  let opts = parse (List.tl (Array.to_list Sys.argv)) in
  let has flag = List.mem_assoc flag opts in
  let value_of flag = List.assoc_opt flag opts in
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
  (* Across domains the invariant sanitizer would keep violations in
     scheduling order; armed runs stay serial so reports replay. *)
  if Phi_sim.Invariant.enabled () && !jobs > 1 then begin
    Printf.printf "(PHI_SANITIZE=1: forcing --jobs 1 so the sanitizer report replays)\n";
    jobs := 1
  end;
  (* Figures 3 and 4 reuse the Figure 2a/2b sweeps, run (and timed
     under their own ids) on first use. *)
  let sweep_low =
    lazy (timed "figure2a" ~cells:(sweep_cells budget) (fun () -> bench_figure2a budget))
  in
  let sweep_high =
    lazy (timed "figure2b" ~cells:(sweep_cells budget) (fun () -> bench_figure2b budget))
  in
  let cells1 = List.length budget.seeds in
  let wan_matrix_cells =
    if budget.label = quick_budget.label then 1
    else
      List.length Phi.Cc_algo.all
      * List.length Cc_matrix.default_topologies
      * List.length Cc_matrix.default_dynamics
      * cells1
  in
  let run id ~cells f = (id, fun () -> ignore (timed id ~cells f)) in
  (* Every experiment --only accepts, in run order. *)
  let experiments =
    [
      run "table1" ~cells:1 (fun () ->
          section "Table 1: default settings of the TCP Cubic parameters";
          Printers.table1 ());
      run "table2" ~cells:1 (fun () ->
          section "Table 2: parameter sweep ranges";
          Printers.table2 budget.grid);
      ("figure2a", fun () -> ignore (Lazy.force sweep_low));
      ("figure2b", fun () -> ignore (Lazy.force sweep_high));
      run "figure2c" ~cells:9 (fun () -> bench_figure2c budget);
      ( "figure3",
        fun () ->
          let sweep_low = Lazy.force sweep_low in
          let sweep_high = Lazy.force sweep_high in
          ignore
            (timed "figure3" ~cells:1 (fun () ->
                 section "Figure 3: stability of the optimal setting (leave-one-out validation)";
                 Printers.figure3 [ ("low utilization", sweep_low); ("high utilization", sweep_high) ]))
      );
      ( "figure4",
        fun () ->
          let sweep_low = Lazy.force sweep_low in
          ignore (timed "figure4" ~cells:6 (fun () -> bench_figure4 budget ~sweep_low)) );
      run "table3" ~cells:(4 * cells1) (fun () -> bench_table3 budget);
      run "matrix"
        ~cells:(List.length Phi.Cc_algo.all * List.length Cc_matrix.paper_cells * cells1)
        (fun () -> bench_matrix budget);
      run "sharing" ~cells:1 (fun () -> bench_sharing budget);
      run "figure5" ~cells:1 (fun () -> bench_figure5 budget);
      run "priority" ~cells:1 (fun () -> bench_priority budget);
      run "secureagg" ~cells:1 (fun () -> bench_secure_agg budget);
      run "predict" ~cells:1 (fun () -> bench_predict budget);
      run "adaptation" ~cells:1 (fun () -> bench_adaptation budget);
      run "swarm" ~cells:Swarm.default_config.Swarm.cells (fun () -> bench_swarm budget);
      run "pdes" ~cells:3 (fun () -> bench_pdes budget);
      run "wan_matrix" ~cells:wan_matrix_cells (fun () -> bench_wan_matrix budget);
      run "micro" ~cells:1 (fun () -> bench_micro budget);
    ]
  in
  (match only with
  | Some id when not (List.mem_assoc id experiments) ->
    Printf.eprintf "bench: unknown --only %s; valid ids: %s\n" id
      (String.concat " " (List.map fst experiments));
    exit 2
  | Some _ | None -> ());
  Printf.printf "Phi benchmark harness — budget: %s\n" budget.label;
  Printf.printf "jobs: %d (of %d cores)\n" !jobs (Pool.available_cores ());
  List.iter
    (fun (id, f) -> if Option.fold ~none:true ~some:(String.equal id) only then f ())
    experiments;
  (match json_path with
  | None -> ()
  | Some path ->
    let report = report_json ~budget in
    Json.to_file ~path report;
    (* Re-read and parse: a malformed report must fail loudly here, not
       downstream in CI. *)
    (match Json.of_file ~path with
    | Ok _ -> Printf.printf "\n(wrote %s)\n" path
    | Error msg ->
      Printf.eprintf "bench: emitted JSON failed to parse: %s\n" msg;
      exit 1));
  print_endline "\ndone."
