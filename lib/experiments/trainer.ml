module Topology = Phi_net.Topology
module Monitor = Phi_net.Monitor
module Flow = Phi_tcp.Flow
module Stats = Phi_util.Stats
module Compiled_table = Phi_remy.Compiled_table
module Memory = Phi_remy.Memory
module Remy_cc = Phi_remy.Remy_cc
module Rule_table = Phi_remy.Rule_table
module Whisker = Phi_remy.Whisker

let default_scenarios =
  (* Load diversity matters: the utilization dimension only pays off if
     training sees both idle and saturated regimes. *)
  let paper = Scenario.table3 in
  let load mean_on_bytes mean_off_s = { Scenario.mean_on_bytes; mean_off_s } in
  [
    paper;
    { paper with Scenario.workload = load 100e3 3.0 };  (* light load *)
    { paper with Scenario.workload = load 500e3 1.0 };
    {
      paper with
      Scenario.spec = { Topology.paper_spec with n = 16 };
      workload = load 100e3 0.3;
    };
  ]

type eval_result = {
  objective : float;
  median_objective : float;
  median_throughput_bps : float;
  median_queueing_delay_s : float;
  connections : int;
}

let summarize records =
  let stat f = Array.of_list (List.filter_map f records) in
  let median xs = if Array.length xs = 0 then nan else Stats.median xs in
  let throughputs =
    stat (fun r ->
        let t = Flow.throughput_bps r in
        if t > 0. then Some t else None)
  in
  let objectives =
    stat (fun (r : Flow.conn_stats) ->
        let thr = Flow.throughput_bps r in
        if thr <= 0. || not (Float.is_finite r.Flow.mean_rtt) || r.Flow.mean_rtt <= 0. then None
        else Some (Phi.Metric.log_power ~throughput_bps:thr ~delay_s:r.Flow.mean_rtt))
  in
  let qdelays =
    stat (fun r ->
        let q = Flow.queueing_delay r in
        if Float.is_finite q && q >= 0. then Some q else None)
  in
  {
    objective = (if Array.length objectives = 0 then neg_infinity else Stats.mean objectives);
    median_objective = median objectives;
    median_throughput_bps = median throughputs;
    median_queueing_delay_s = median qdelays;
    connections = List.length records;
  }

let remy ?counts ~table util =
  let feed = ref `None in
  let observe engine (dumbbell : Topology.dumbbell) =
    match util with
    | `None -> ()
    | `Ideal ->
      let monitor = Monitor.create engine dumbbell.Topology.bottleneck ~interval_s:0.1 in
      feed := `Live (fun () -> Monitor.current_utilization monitor)
  in
  (observe, fun _ () -> Remy_cc.make ?counts ~table ~util:!feed ())

let evaluate ?counts ~table ~util ~seeds scenarios =
  if seeds = [] then invalid_arg "Trainer.evaluate: no seeds";
  if scenarios = [] then invalid_arg "Trainer.evaluate: no scenarios";
  (* Compile once per evaluation: the table is fixed for its duration,
     and every simulated ack then pays the flat-table price. *)
  let table = Compiled_table.compile table in
  summarize
    (List.concat_map
       (fun config ->
         List.concat_map
           (fun seed ->
             let observe, cc_factory = remy ?counts ~table util in
             (Scenario.run ~observe ~cc_factory { config with Scenario.seed }).Scenario.records)
           seeds)
       scenarios)

type budget = { rounds : int; seeds : int list; max_passes : int; whiskers_per_round : int }

let default_budget = { rounds = 6; seeds = [ 1; 2 ]; max_passes = 3; whiskers_per_round = 2 }

(* Neighbour actions for coordinate descent. *)
let candidates (a : Whisker.action) =
  let open Whisker in
  List.map clamp_action
    [
      { a with window_increment = a.window_increment +. 8. };
      { a with window_increment = a.window_increment -. 8. };
      { a with window_increment = a.window_increment +. 2. };
      { a with window_increment = a.window_increment -. 2. };
      { a with window_increment = a.window_increment +. 0.5 };
      { a with window_increment = a.window_increment -. 0.5 };
      { a with window_multiple = a.window_multiple *. 1.2 };
      { a with window_multiple = a.window_multiple /. 1.2 };
      { a with window_multiple = a.window_multiple *. 1.02 };
      { a with window_multiple = a.window_multiple /. 1.02 };
      { a with intersend_s = a.intersend_s *. 2. };
      { a with intersend_s = a.intersend_s /. 2. };
      { a with intersend_s = a.intersend_s *. 1.2 };
      { a with intersend_s = a.intersend_s /. 1.2 };
    ]

(* One evaluation run purely to observe usage: the whiskers paired with
   their ack-path lookup counts, busiest first (count ties keep table
   order, like the old usage-counter sort). *)
let rank_by_usage ~table ~util ~seeds scenarios =
  let counts = Array.make (Rule_table.size table) 0 in
  ignore (evaluate ~counts ~table ~util ~seeds scenarios);
  List.mapi (fun i w -> (w, counts.(i))) (Rule_table.whiskers table)
  |> List.filter (fun (_, c) -> c > 0)
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)

let improve_whisker ~log ~table ~util ~scenarios ~budget (whisker : Whisker.t) =
  let score action =
    let saved = whisker.Whisker.action in
    Rule_table.set_action table whisker action;
    let result = evaluate ~table ~util ~seeds:budget.seeds scenarios in
    Rule_table.set_action table whisker saved;
    result.objective
  in
  let current = ref (score whisker.Whisker.action) in
  let improved_any = ref false in
  let pass () =
    let improved = ref false in
    List.iter
      (fun action ->
        let s = score action in
        if s > !current +. 1e-9 then begin
          Rule_table.set_action table whisker action;
          current := s;
          improved := true;
          improved_any := true
        end)
      (candidates whisker.Whisker.action);
    !improved
  in
  let rec loop passes = if passes > 0 && pass () then loop (passes - 1) in
  loop budget.max_passes;
  log
    (Printf.sprintf "  whisker optimized to obj=%.4f inc=%.2f mult=%.3f isend=%.4f%s" !current
       whisker.Whisker.action.Whisker.window_increment
       whisker.Whisker.action.Whisker.window_multiple
       whisker.Whisker.action.Whisker.intersend_s
       (if !improved_any then "" else " (no improvement)"))

let take n xs = List.filteri (fun i _ -> i < n) xs

(* Phi refinement: bisect the busiest whiskers along the utilization axis
   and re-optimize each half separately, so the table can be aggressive
   when the shared signal says the bottleneck is idle and conservative
   when it is busy.  This is the step that turns an extruded
   (utilization-oblivious) table into a genuine Remy-Phi table. *)
let refine_utilization ?(log = fun _ -> ()) ~table ~scenarios ~top budget =
  if Rule_table.dims table <> Memory.dims_phi then
    invalid_arg "Trainer.refine_utilization: table must be 4-dimensional";
  let axis = Memory.dims_phi - 1 in
  let busiest = rank_by_usage ~table ~util:`Ideal ~seeds:budget.seeds scenarios in
  let targets = take top busiest in
  List.iter
    (fun (w, usage) ->
      Rule_table.split_axis table w ~axis;
      log (Printf.sprintf "refine: split whisker along utilization (usage %d)" usage))
    targets;
  (* Optimize every whisker produced by the axis splits (they are the ones
     whose action may now diverge by utilization). *)
  let children = rank_by_usage ~table ~util:`Ideal ~seeds:budget.seeds scenarios in
  List.iter
    (fun (w, _) -> improve_whisker ~log ~table ~util:`Ideal ~scenarios ~budget w)
    (take (2 * top) children);
  evaluate ~table ~util:`Ideal ~seeds:budget.seeds scenarios

let train ?(log = fun _ -> ()) ~table ~util ~scenarios budget =
  if budget.rounds < 1 then invalid_arg "Trainer.train: rounds must be >= 1";
  for round = 1 to budget.rounds do
    log (Printf.sprintf "round %d/%d (whiskers: %d)" round budget.rounds (Rule_table.size table));
    let by_usage = rank_by_usage ~table ~util ~seeds:budget.seeds scenarios in
    (match by_usage with
    | [] -> log "  no whisker used; stopping early"
    | (busiest, _) :: _ ->
      List.iter
        (fun (w, _) -> improve_whisker ~log ~table ~util ~scenarios ~budget w)
        (take (Stdlib.max 1 budget.whiskers_per_round) by_usage);
      if round < budget.rounds then Rule_table.split table busiest)
  done;
  evaluate ~table ~util ~seeds:budget.seeds scenarios
