(** Time-series modelling for request volumes (Section 3.4).

    The model is deliberately simple and robust: a seasonal baseline (the
    median across days of the same minute-of-day, lightly smoothed) plus a
    robust residual score (scaled by the median absolute deviation), so a
    two-hour outage cannot drag its own baseline down. *)

val minutes_per_day : int
(** 1440. *)

val seasonal_baseline : ?smooth:int -> float array -> float array
(** [seasonal_baseline series] has the same length as [series]; element
    [i] is the median of the observations at the same minute of day
    [(i mod minutes_per_day)] across all days, averaged over a
    [2 * smooth + 1] phase window (default [smooth = 2]).  The series
    need not be a whole number of days. *)

val robust_z : actual:float array -> baseline:float array -> float array
(** Per-element robust z-score: [(actual - baseline) / (1.4826 * MAD)],
    where the MAD is computed over all residuals.  A constant series
    yields zeros. *)
