module Cubic = Phi_tcp.Cubic
module Stats = Phi_util.Stats
module Pool = Phi_runner.Pool

type grid = { ssthresh : float list; init_w : float list; beta : float list }

let doubling lo hi =
  let rec go v = if v > hi then [] else float_of_int v :: go (2 * v) in
  go lo

let paper_grid =
  {
    ssthresh = doubling 2 256;
    init_w = doubling 2 256;
    beta = List.init 9 (fun i -> 0.1 +. (0.1 *. float_of_int i));
  }

let coarse_grid =
  { ssthresh = [ 2.; 16.; 64.; 256. ]; init_w = [ 2.; 16.; 64.; 256. ]; beta = [ 0.1; 0.2; 0.5 ] }

let beta_grid =
  {
    ssthresh = [ Cubic.default_params.Cubic.initial_ssthresh ];
    init_w = [ Cubic.default_params.Cubic.initial_cwnd ];
    beta = List.init 9 (fun i -> 0.1 +. (0.1 *. float_of_int i));
  }

type point = { params : Cubic.params; by_seed : Scenario.result array; mean : Scenario.result }

type t = {
  config : Scenario.config;
  seeds : int list;
  points : point list;
  default_point : point;
}

let settings grid =
  List.concat_map
    (fun ssthresh ->
      List.concat_map
        (fun init_w ->
          List.map
            (fun beta ->
              Cubic.with_knobs ~initial_cwnd:init_w ~initial_ssthresh:ssthresh ~beta
                Cubic.default_params)
            grid.beta)
        grid.init_w)
    grid.ssthresh

(* One point per setting, each from one Scenario.run per seed.  Every
   (setting, seed) pair is its own pool job, so the pool balances
   across both axes and the parallel sweep is bit-for-bit the serial
   one. *)
let points ?jobs ~seeds run settings =
  List.map
    (fun (params, by_seed) -> { params; by_seed; mean = Scenario.mean by_seed })
    (Pool.fan_out ?jobs ~seeds run settings)

let cubic params _index () = Cubic.make params

let run ?jobs config grid ~seeds =
  (* The Table 1 default setting rides along as the last point. *)
  let points =
    points ?jobs ~seeds
      (fun params seed -> Scenario.run ~cc_factory:(cubic params) { config with Scenario.seed })
      (settings grid @ [ Cubic.default_params ])
  in
  match List.rev points with
  | default_point :: rev_points ->
    { config; seeds; points = List.rev rev_points; default_point }
  | [] -> invalid_arg "Sweep.run: empty grid"

let optimal t =
  match t.points with
  | [] -> invalid_arg "Sweep.optimal: empty sweep"
  | first :: rest ->
    List.fold_left
      (fun best p -> if p.mean.Scenario.power > best.mean.Scenario.power then p else best)
      first rest

let run_longrunning ?jobs ~spec ~n_flows ~duration_s ~seeds ~betas () =
  List.combine betas
    (points ?jobs ~seeds
       (fun params seed ->
         Scenario.run_persistent ~cc_factory:(cubic params) ~n_flows ~duration_s ~spec ~seed ())
       (List.map (fun beta -> Cubic.with_knobs ~beta Cubic.default_params) betas))

type validation = { default_power : float; optimal_power : float; common_power : float }

let validate t =
  let n_seeds = List.length t.seeds in
  if n_seeds < 2 then invalid_arg "Sweep.validate: need at least 2 seeds";
  (* Best setting according to seed [i] alone. *)
  let best_for_seed i =
    match t.points with
    | [] -> invalid_arg "Sweep.validate: empty sweep"
    | first :: rest ->
      List.fold_left
        (fun best p ->
          if p.by_seed.(i).Scenario.power > best.by_seed.(i).Scenario.power then p else best)
        first rest
  in
  let optimal_powers = ref [] and common_powers = ref [] in
  for i = 0 to n_seeds - 1 do
    let best = best_for_seed i in
    optimal_powers := best.by_seed.(i).Scenario.power :: !optimal_powers;
    for j = 0 to n_seeds - 1 do
      if j <> i then common_powers := best.by_seed.(j).Scenario.power :: !common_powers
    done
  done;
  {
    default_power = t.default_point.mean.Scenario.power;
    optimal_power = Stats.mean (Array.of_list !optimal_powers);
    common_power = Stats.mean (Array.of_list !common_powers);
  }
