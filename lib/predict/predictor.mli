(** Hierarchical performance prediction (Section 3.5).

    Before an application starts a transfer or call, ask what performance
    to expect.  Predictions use the deepest prefix level with enough
    history, falling back /24 → /16 → /8 → global. *)

type estimate = {
  value : float;
  level : [ `P24 | `P16 | `P8 | `Global ];
  samples : int;
}

val throughput_bps : History.t -> prefix24:int -> ?quantile:float -> unit -> estimate option
(** Predicted throughput at the given quantile (default the median).
    [None] only when the store is empty. *)

val rtt_s : History.t -> prefix24:int -> ?quantile:float -> unit -> estimate option

val loss_rate : History.t -> prefix24:int -> ?quantile:float -> unit -> estimate option

val download_time_s :
  History.t -> prefix24:int -> bytes:int -> (float * float) option
(** [(expected, pessimistic)] completion times for a transfer: the median
    and the 10th-percentile throughput estimates. *)

val voip_mos : History.t -> prefix24:int -> float option
(** Predicted call quality (1–4.5 MOS) from median RTT and loss via
    {!Voip.mos}. *)
