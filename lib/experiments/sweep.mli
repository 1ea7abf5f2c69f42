(** Parameter sweeps over the Table 2 grid (Section 2.2.1).

    For a given workload, run every (initial_ssthresh, windowInit_, beta)
    combination over several seeded runs and find the setting that
    maximizes the paper's [P_l] metric.  The per-(setting, seed) matrix is
    kept so Figure 3's leave-one-out validation costs no extra
    simulations. *)

type grid = { ssthresh : float list; init_w : float list; beta : float list }

val paper_grid : grid
(** Table 2: ssthresh and windowInit_ 2–256 doubling, beta 0.1–0.9 in 0.1
    steps (576 settings). *)

val coarse_grid : grid
(** The bench default: 4 x 4 x 3 = 48 settings (documented downsampling;
    use [phi-cli sweep --full] for the paper grid). *)

val beta_grid : grid
(** Figure 2c: beta 0.1–0.9 alone, other knobs at their defaults. *)

type point = {
  params : Phi_tcp.Cubic.params;
  by_seed : Scenario.result array;  (** one result per seed, in seed order *)
  mean : Scenario.result;  (** {!Scenario.mean} of [by_seed] *)
}

type t = {
  config : Scenario.config;  (** seed field unused; seeds below *)
  seeds : int list;
  points : point list;
  default_point : point;  (** Table 1 defaults under the same workload *)
}

val settings : grid -> Phi_tcp.Cubic.params list

val run : ?jobs:int -> Scenario.config -> grid -> seeds:int list -> t
(** Runs every (setting, seed) cell as an independent job on a
    {!Phi_runner.Pool} of [jobs] domains (default
    {!Phi_runner.Pool.default_jobs}; [jobs:1] is the serial path).
    Results are reassembled in grid order, so the outcome is identical
    for every [jobs] value. *)

val optimal : t -> point
(** Highest mean [P_l]. *)

val run_longrunning :
  ?jobs:int ->
  spec:Phi_net.Topology.spec ->
  n_flows:int ->
  duration_s:float ->
  seeds:int list ->
  betas:float list ->
  unit ->
  (float * point) list
(** Figure 2c: persistent flows, sweeping beta only.  Returns
    [(beta, point)] pairs.  (beta, seed) cells fan out across [jobs]
    domains like {!run}. *)

(** {2 Figure 3: leave-one-out validation} *)

type validation = {
  default_power : float;
  optimal_power : float;  (** mean over seeds of that seed's own best setting *)
  common_power : float;
      (** leave-one-out: mean over seeds of (the best setting of one seed,
          evaluated on the others) *)
}

val validate : t -> validation
