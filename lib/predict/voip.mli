(** Call-quality scoring: a simplified ITU-T G.107 E-model, mapping
    network RTT and loss to a mean opinion score.  Used to surface "this
    call is likely to be poor" predictions (Section 3.5's example). *)

val mos : rtt_s:float -> loss_rate:float -> float
(** The standard R → MOS mapping, clamped to [1, 4.5]. *)

val quality_label : float -> string
(** Human label for a MOS: "excellent" (>= 4.0), "good" (>= 3.6),
    "fair" (>= 3.1), "poor" (>= 2.6), "bad" otherwise. *)
