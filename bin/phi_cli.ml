(* phi-cli: run any of the paper's experiments from the command line.

   Each subcommand is a thin wrapper over Phi_experiments: it runs the
   experiment and prints it through the same Printers the benchmark
   harness (bench/main.exe) uses.  The harness runs everything at once,
   while this tool gives control over workloads, grids, seeds and
   budgets. *)

module Topology = Phi_net.Topology
module Cubic = Phi_tcp.Cubic
module Rule_table = Phi_remy.Rule_table
open Phi_experiments
open Cmdliner

(* {2 Common arguments} *)

(* A bad number is a usage error that names the option, not an
   exception deep in a run. *)
let checked ~expected ~print parse =
  let parse s =
    match parse s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
  in
  Arg.conv (parse, print)

let seeds_arg =
  let doc = "Comma-separated list of run seeds." in
  let seeds =
    checked ~expected:"a comma-separated list of integers"
      ~print:Format.(pp_print_list ~pp_sep:(fun ppf () -> pp_print_char ppf ',') pp_print_int)
      (fun s ->
        let parts = String.split_on_char ',' s in
        let seeds = List.filter_map int_of_string_opt parts in
        if List.compare_lengths seeds parts = 0 then Some seeds else None)
  in
  Arg.(value & opt seeds [ 1; 2; 3 ] & info [ "seeds" ] ~docv:"SEEDS" ~doc)

let duration_arg default =
  let doc = "Simulated seconds per run." in
  let seconds =
    checked ~expected:"a finite number above 0" ~print:Format.pp_print_float (fun s ->
        match float_of_string_opt s with
        | Some x when Float.is_finite x && x > 0. -> Some x
        | Some _ | None -> None)
  in
  Arg.(value & opt seconds default & info [ "duration" ] ~docv:"SECONDS" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for grid-shaped experiments (default: the core count; 1 = serial). \
     Results are identical for every value."
  in
  let jobs =
    checked ~expected:"an integer of at least 1" ~print:Format.pp_print_int (fun s ->
        match int_of_string_opt s with Some n when n >= 1 -> Some n | Some _ | None -> None)
  in
  Arg.(value & opt (some jobs) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

(* The workload's name and scenario. *)
let workload_arg =
  let doc = "Workload: low (500KB on / 2s off), high (500KB / 0.3s) or table3 (100KB / 0.5s)." in
  let named = List.map (fun (name, config) -> (name, (name, config))) in
  Arg.(
    value
    & opt
        (enum
           (named
              [ ("low", Scenario.low_utilization); ("high", Scenario.high_utilization);
                ("table3", Scenario.table3) ]))
        ("high", Scenario.high_utilization)
    & info [ "workload" ] ~docv:"NAME" ~doc)

(* {2 sweep} *)

let sweep_cmd =
  let full_arg =
    let doc = "Sweep the paper's full Table 2 grid (576 settings) instead of the coarse grid." in
    Arg.(value & flag & info [ "full" ] ~doc)
  in
  let run (name, config) full seeds duration jobs =
    let config = { config with Scenario.duration_s = duration } in
    let grid = if full then Sweep.paper_grid else Sweep.coarse_grid in
    Printf.printf "sweeping %d settings x %d seeds...\n%!"
      (List.length (Sweep.settings grid)) (List.length seeds);
    let sweep = Sweep.run ?jobs config grid ~seeds in
    Printers.sweep sweep;
    if List.length seeds >= 2 then Printers.figure3 [ (name, sweep) ]
  in
  let term =
    Term.(const run $ workload_arg $ full_arg $ seeds_arg $ duration_arg 90. $ jobs_arg)
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Cubic parameter sweep (Figures 2a/2b, Figure 3)") term

(* {2 longrun (Figure 2c)} *)

let longrun_cmd =
  let flows_arg =
    Arg.(value & opt int 100 & info [ "flows" ] ~docv:"N" ~doc:"Long-running connections.")
  in
  let run n_flows seeds duration jobs =
    Printers.longrun ~n_flows
      (Sweep.run_longrunning ?jobs ~spec:Topology.paper_spec ~n_flows ~duration_s:duration ~seeds
         ~betas:Sweep.beta_grid.Sweep.beta ())
  in
  let term = Term.(const run $ flows_arg $ seeds_arg $ duration_arg 90. $ jobs_arg) in
  Cmd.v (Cmd.info "longrun" ~doc:"Long-running flows, beta sweep (Figure 2c)") term

(* {2 incremental (Figure 4)} *)

let incremental_cmd =
  let fractions_arg =
    Arg.(
      value
      & opt (list float) [ 0.25; 0.5; 0.75; 1.0 ]
      & info [ "fractions" ] ~docv:"FRACTIONS" ~doc:"Deployment fractions to test.")
  in
  let params_arg =
    let doc = "Modified senders' parameters as ssthresh,initwnd,beta." in
    Arg.(value & opt (t3 float float float) (64., 16., 0.2) & info [ "params" ] ~docv:"P" ~doc)
  in
  let run (_, config) fractions (ssthresh, init_w, beta) seeds duration jobs =
    let config = { config with Scenario.duration_s = duration } in
    let params =
      Cubic.with_knobs ~initial_cwnd:init_w ~initial_ssthresh:ssthresh ~beta
        Cubic.default_params
    in
    Printers.fraction_sweep
      (Incremental.fraction_sweep ?jobs ~fractions ~params_modified:params ~seeds config)
  in
  let term =
    Term.(
      const run $ workload_arg $ fractions_arg $ params_arg $ seeds_arg $ duration_arg 90.
      $ jobs_arg)
  in
  Cmd.v (Cmd.info "incremental" ~doc:"Partial deployment of Phi-tuned parameters (Figure 4)") term

(* {2 table3} *)

(* --remy-table FILE / --phi-table FILE: serialized rule tables
   replacing the pretrained ones.  The file is read, parsed and compiled
   while the command line is parsed, so a missing file, a malformed or
   non-finite whisker, a table of the wrong dimension or one that does
   not cover the unit cube is a usage error naming the option. *)
let tables_arg =
  let table opt_name ~dims doc =
    let parse path =
      match Rule_table.deserialize (In_channel.with_open_text path In_channel.input_all) with
      | table when Rule_table.dims table <> dims ->
        Error (`Msg (Printf.sprintf "%s: not a %d-dim rule table" path dims))
      | table -> (
        match Phi_remy.Compiled_table.compile table with
        | _ -> Ok table
        | exception Invalid_argument msg -> Error (`Msg (path ^ ": " ^ msg)))
      | exception Sys_error msg -> Error (`Msg msg)
      | exception Phi_remy.Whisker.Parse_error msg -> Error (`Msg (path ^ ": " ^ msg))
    in
    let print ppf table = Format.fprintf ppf "<%d-whisker rule table>" (Rule_table.size table) in
    Arg.(value & opt (some (conv (parse, print))) None & info [ opt_name ] ~docv:"FILE" ~doc)
  in
  Term.(
    const (fun remy phi -> (remy, phi))
    $ table "remy-table" ~dims:Phi_remy.Memory.dims_remy
        "Serialized 3-dim rule table (default: pretrained)."
    $ table "phi-table" ~dims:Phi_remy.Memory.dims_phi
        "Serialized 4-dim rule table (default: pretrained).")

let table3_cmd =
  let run seeds duration jobs (remy_table, remy_phi_table) =
    let config = { Scenario.table3 with Scenario.duration_s = duration } in
    Printers.table3 (Table3.run ?jobs ?remy_table ?remy_phi_table ~seeds config)
  in
  let term = Term.(const run $ seeds_arg $ duration_arg 60. $ jobs_arg $ tables_arg) in
  Cmd.v (Cmd.info "table3" ~doc:"Remy / Remy-Phi / Cubic comparison (Table 3)") term

(* {2 matrix / wan-matrix} *)

(* The two subcommands are two cell lists of one matrix: they share
   every argument but the cells, and one printing path. *)
let matrix_cmd name ~doc cells =
  let cc_arg =
    let parse s =
      match Cc_select.parse_cc s with
      | algo -> Ok algo
      | exception Invalid_argument msg -> Error (`Msg msg)
    in
    let print ppf algo = Format.pp_print_string ppf (Phi.Cc_algo.name algo) in
    let doc =
      "Algorithm to include (repeatable; default: every algorithm registered in Phi.Cc_algo)."
    in
    Arg.(value & opt_all (conv (parse, print)) [] & info [ "cc" ] ~docv:"NAME" ~doc)
  in
  let run seeds duration jobs ccs (remy_table, remy_phi_table) cells =
    let algorithms = match ccs with [] -> Phi.Cc_algo.all | l -> l in
    Printers.matrix ~duration_s:duration ~seeds
      (Cc_matrix.run ?jobs ~algorithms ?remy_table ?remy_phi_table ~duration_s:duration ~seeds
         cells)
  in
  let term =
    Term.(const run $ seeds_arg $ duration_arg 30. $ jobs_arg $ cc_arg $ tables_arg $ cells)
  in
  Cmd.v (Cmd.info name ~doc) term

let paper_matrix_cmd =
  matrix_cmd "matrix" ~doc:"Cross-algorithm matrix: the Cc_algo registry over low/high dumbbells"
    (Term.const Cc_matrix.paper_cells)

let wan_matrix_cmd =
  let names opt_name ~doc = Arg.(value & opt_all string [] & info [ opt_name ] ~docv:"NAME" ~doc) in
  let topo_arg =
    names "topo"
      ~doc:
        "Topology to include (repeatable; default: dumbbell, parking_lot, wan; also available: \
         fat_tree_pod)."
  in
  let dynamics_arg =
    names "dynamics"
      ~doc:
        "Dynamics regime to include (repeatable; default: steady, flap, incast; also available: \
         jitter, flash_crowd)."
  in
  let aqm_arg =
    let doc = "Bottleneck queue regime: droptail, red or red_ecn." in
    Arg.(
      value
      & opt (enum (List.map (fun n -> (n, Scenario.aqm_by_name n)) Scenario.aqm_names)) Scenario.Drop_tail
      & info [ "aqm" ] ~docv:"NAME" ~doc)
  in
  let cells topos dyns aqm =
    let or_default default = function [] -> default | l -> l in
    Cc_matrix.zoo_cells ~aqm
      ~topologies:(or_default Cc_matrix.default_topologies topos)
      ~dynamics:(or_default Cc_matrix.default_dynamics dyns)
  in
  matrix_cmd "wan-matrix"
    ~doc:"WAN evaluation matrix: algorithm x topology zoo x adversarial dynamics"
    Term.(const cells $ topo_arg $ dynamics_arg $ aqm_arg)

(* {2 train-remy} *)

let train_remy_cmd =
  let rounds_arg =
    Arg.(value & opt int 5 & info [ "rounds" ] ~docv:"N" ~doc:"Optimize-and-split rounds.")
  in
  let out_arg name default =
    Arg.(value & opt string default & info [ name ] ~docv:"FILE" ~doc:"Output path.")
  in
  let run rounds seeds remy_out phi_out =
    let log s = Printf.printf "%s\n%!" s in
    let budget = { Trainer.default_budget with Trainer.rounds; seeds } in
    let scenarios = Trainer.default_scenarios in
    log "training classic Remy (3-dim)...";
    let remy = Rule_table.create ~dims:3 Phi_remy.Whisker.default_action in
    let r = Trainer.train ~log ~table:remy ~util:`None ~scenarios budget in
    Printf.printf "remy: objective %.3f over %d connections\n" r.Trainer.objective
      r.Trainer.connections;
    log "deriving Remy-Phi: extrude + utilization refinement...";
    let phi = Rule_table.extrude remy in
    let rp = Trainer.refine_utilization ~log ~table:phi ~scenarios ~top:3 budget in
    Printf.printf "remy-phi: objective %.3f over %d connections\n" rp.Trainer.objective
      rp.Trainer.connections;
    let save path table =
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (Rule_table.serialize table);
          Out_channel.output_char oc '\n')
    in
    save remy_out remy;
    save phi_out phi;
    Printf.printf "wrote %s and %s (pass via table3 --remy-table/--phi-table)\n" remy_out phi_out
  in
  let term =
    Term.(
      const run $ rounds_arg $ seeds_arg $ out_arg "remy-out" "remy_table.txt"
      $ out_arg "phi-out" "remy_phi_table.txt")
  in
  Cmd.v (Cmd.info "train-remy" ~doc:"Train Remy and Remy-Phi rule tables by simulation") term

(* {2 sharing} *)

let sharing_cmd =
  let flows_arg =
    Arg.(value & opt float 60_000. & info [ "flows-per-minute" ] ~docv:"F" ~doc:"Arrival rate.")
  in
  let rate_arg =
    Arg.(value & opt int 4096 & info [ "rate" ] ~docv:"N" ~doc:"Sample 1 in N packets.")
  in
  let run seed flows rate =
    let config =
      { Phi_workload.Cloud_trace.default_config with Phi_workload.Cloud_trace.flows_per_minute = flows }
    in
    Printers.sharing (Sharing_experiment.run ~config ~rate ~seed ())
  in
  let term = Term.(const run $ seed_arg $ flows_arg $ rate_arg) in
  Cmd.v (Cmd.info "sharing" ~doc:"IPFIX path-sharing analysis (Section 2.1)") term

(* {2 diagnose} *)

let diagnose_cmd =
  let metro_arg =
    Arg.(value & opt string "london" & info [ "metro" ] ~docv:"METRO" ~doc:"Outage metro.")
  in
  let isp_arg =
    Arg.(value & opt string "as3320" & info [ "isp" ] ~docv:"ISP" ~doc:"Outage ISP.")
  in
  let duration_min_arg =
    Arg.(value & opt int 120 & info [ "minutes" ] ~docv:"MIN" ~doc:"Outage duration.")
  in
  let severity_arg =
    Arg.(value & opt float 0.95 & info [ "severity" ] ~docv:"S" ~doc:"Traffic fraction lost.")
  in
  let run seed metro isp minutes severity =
    let outage =
      {
        Figure5.default_outage with
        Phi_workload.Request_stream.duration_min = minutes;
        severity;
        scope = { Phi_workload.Request_stream.metro = Some metro; isp = Some isp; service = None };
      }
    in
    Printers.figure5 (Figure5.run ~outage ~seed ())
  in
  let term = Term.(const run $ seed_arg $ metro_arg $ isp_arg $ duration_min_arg $ severity_arg) in
  Cmd.v (Cmd.info "diagnose" ~doc:"Outage detection and localization (Figure 5)") term

(* {2 priority / predict / adaptation} *)

let priority_cmd =
  let priorities_arg =
    Arg.(
      value
      & opt (list float) [ 4.; 1.; 1.; 1. ]
      & info [ "priorities" ] ~docv:"P" ~doc:"Per-flow priorities of the entity.")
  in
  let run seed priorities duration =
    Printers.priority
      (Priority_experiment.run
         ~priorities:(Array.of_list priorities)
         ~duration_s:duration ~spec:Topology.paper_spec ~seed ())
  in
  let term = Term.(const run $ seed_arg $ priorities_arg $ duration_arg 60.) in
  Cmd.v (Cmd.info "priority" ~doc:"Weighted-ensemble prioritization (Section 3.3)") term

let predict_cmd =
  let run seed = Printers.predict (Predict_experiment.run ~seed ()) in
  Cmd.v
    (Cmd.info "predict" ~doc:"Performance prediction from shared history (Section 3.5)")
    Term.(const run $ seed_arg)

let adaptation_cmd =
  let run seed = Printers.adaptation (Adaptation_experiment.run ~seed ()) in
  Cmd.v
    (Cmd.info "adaptation" ~doc:"Informed adaptation without cooperation (Section 3.2)")
    Term.(const run $ seed_arg)

let () =
  let doc = "Phi: information sharing and coordination for the five-computer Internet" in
  let info = Cmd.info "phi-cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            sweep_cmd;
            longrun_cmd;
            incremental_cmd;
            table3_cmd;
            paper_matrix_cmd;
            wan_matrix_cmd;
            train_remy_cmd;
            sharing_cmd;
            diagnose_cmd;
            priority_cmd;
            predict_cmd;
            adaptation_cmd;
          ]))
