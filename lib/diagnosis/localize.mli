(** Coarse diagnosis by dimensional drill-down (Figure 5).

    Given per-cell series and a detected anomaly window, score every
    candidate slice of the dimension space — each single dimension value
    and each (metro, ISP) pair — by how much of the total traffic deficit
    it explains and how hard it itself dropped.  The diagnosis is the most
    *specific* slice that explains the bulk of the deficit: e.g. Figure
    5's unreachability event localizes to one ISP in one metro. *)

type finding = {
  scope : Phi_workload.Request_stream.scope;
  deficit_share : float;  (** fraction of the global deficit inside this slice *)
  own_drop : float;  (** the slice's own traffic drop fraction in the window *)
}

val localize :
  cells:(Phi_workload.Request_stream.cell * float array) list ->
  window:int * int ->
  unit ->
  finding option
(** The most specific candidate whose deficit share is at least 0.6 and
    whose own drop is at least 0.3.  [None] means the event is global or
    unexplained by any single slice.  Specificity order: (metro, ISP)
    pairs first, then single dimensions. *)

val rank :
  cells:(Phi_workload.Request_stream.cell * float array) list ->
  window:int * int ->
  finding list
(** All candidates, best (highest deficit share) first — the raw material
    for an operator console. *)
