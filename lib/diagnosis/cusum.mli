(** CUSUM change-point detection — an alternative to the robust-z run
    detector in {!Anomaly}, kept for the detection-latency ablation in
    DESIGN.md §5.

    A one-sided (downward) cumulative-sum scheme on standardized
    residuals: [S_t = max (0, S_{t-1} + (-z_t - k))], alarm when
    [S_t > h].  CUSUM accumulates evidence, so it catches shallow
    sustained drops earlier than a fixed run-length threshold, at the
    cost of a fuzzier event end. *)

type event = {
  alarm_min : int;  (** minute at which the alarm fired *)
  start_min : int;  (** estimated change point (last time [S] was 0) *)
  end_min : int;  (** minute at which [S] returned to 0 *)
}

val detect :
  ?alarm_threshold:float -> actual:float array -> baseline:float array -> unit -> event list
(** The per-minute drift tolerated ([k]) is 0.5; [alarm_threshold] ([h],
    default 8.0) trades detection latency against false alarms.  Events
    come back in time order. *)

val detection_latency : injected_start:int -> event list -> int option
(** Minutes from the injected change to the first alarm at or after it. *)
