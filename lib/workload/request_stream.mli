(** Synthetic request-volume telemetry for the diagnosis experiments
    (Figure 5).

    Models what a global cloud service sees: per-minute request counts
    sliced by (metro, ISP, service).  Each cell has a weight, traffic
    follows a diurnal curve with Poisson noise, and unreachability events
    can be injected: during an outage the matching cells lose a fraction
    of their volume. *)

type cell = { metro : string; isp : string; service : string }

type scope = {
  metro : string option;
  isp : string option;
  service : string option;
}
(** A slice of the dimension space; [None] matches every value. *)

val scope_matches : scope -> cell -> bool

val pp_scope : Format.formatter -> scope -> unit

type outage = {
  start_min : int;
  duration_min : int;
  scope : scope;
  severity : float;  (** fraction of the slice's traffic lost, in (0, 1] *)
}

type config = {
  metros : string list;
  isps : string list;
  services : string list;
  base_rate_per_min : float;  (** global mean requests/minute at the diurnal peak-trough midpoint *)
  days : int;
}

val default_config : config

val generate : Phi_util.Prng.t -> config -> outages:outage list -> (cell * float array) list
(** Per-cell minute series of length [days * 1440].  Cell weights are
    deterministic (derived from positions), so the same config yields the
    same traffic mix across runs with different noise seeds. *)

val total_series : (cell * float array) list -> float array
(** Sum across cells. *)

val sum_where : (cell * float array) list -> scope -> float array
(** Sum of the series of all cells matching the scope. *)
