(** Section 2.1: the opportunity for sharing.

    Generate a synthetic cloud-egress trace, run it through 1-in-4096
    IPFIX sampling, aggregate per (destination /24, minute) and measure
    how many other flows a typical flow shares its WAN path with.  The
    paper reports 50 % of flows sharing with >= 5 others and 12 % with
    >= 100, *despite* the aggressive sub-sampling. *)

type result = {
  total_flows : int;  (** flows in the underlying trace *)
  sampled_flows : int;  (** flows observed after sampling *)
  slices : int;
  ccdf : (int * float) list;  (** (k, fraction sharing with >= k others) *)
}

val paper_points : (int * float) list
(** [(5, 0.50); (100, 0.12)]. *)

val run : ?config:Phi_workload.Cloud_trace.config -> ?rate:int -> seed:int -> unit -> result
