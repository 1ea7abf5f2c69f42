(** Topology builders.

    The paper's experiments all run on the Figure 1 dumbbell: [n] senders
    and [n] receivers joined by two routers and a single bottleneck link
    whose buffer is a multiple of the bandwidth-delay product. *)

type spec = {
  n : int;  (** sender/receiver pairs *)
  bottleneck_bw_bps : float;
  rtt_s : float;  (** end-to-end two-way propagation delay *)
  buffer_bdp_factor : float;  (** bottleneck buffer as a multiple of BDP (paper: 5) *)
  access_bw_bps : float;
  access_delay_s : float;  (** one-way delay of each access link *)
}

val paper_spec : spec
(** Table 3's topology: 8 senders, 15 Mbps bottleneck, 150 ms RTT,
    buffer = 5 x BDP, 1 Gbps access links. *)

val bdp_packets : spec -> int
(** Bottleneck bandwidth-delay product in MSS-sized packets (at least 1). *)

val buffer_packets : spec -> int
(** Bottleneck queue capacity implied by [buffer_bdp_factor]. *)

val cut_lookahead_s : spec -> float
(** One-way propagation delay of the bottleneck link — the natural
    island cut of a dumbbell runs through the bottleneck, and this is
    the lookahead (hence maximum [Phi_sim.Pdes] window) that cut
    yields.  Raises like {!dumbbell} when the RTT is too small for the
    access delays. *)

type dumbbell = {
  engine : Phi_sim.Engine.t;
  spec : spec;
  pool : Packet.pool;  (** the packet slab shared by every node and link *)
  senders : Node.t array;
  receivers : Node.t array;
  left_router : Node.t;
  right_router : Node.t;
  bottleneck : Link.t;  (** forward direction: left -> right *)
  reverse_bottleneck : Link.t;
}

val dumbbell : Phi_sim.Engine.t -> spec -> dumbbell
(** Build the topology and wire all routes (both directions).  Sender node
    ids are [0 .. n-1] and receiver ids [n .. 2n-1]. *)

val sender_id : dumbbell -> int -> int
val receiver_id : dumbbell -> int -> int
(** Node ids of the i-th sender/receiver (also their array indices). *)

(** {2 The general graph builder}

    A {!Graph.t} is a pure topology description — nodes with island
    assignments, directed links, routing entries — with no engine
    attached.  {!build} realizes it serially on one engine (island
    assignments ignored); {!build_partitioned} realizes it across
    [Phi_sim.Pdes] islands, turning every cross-island link into a
    {!Boundary_link}.  One description serves the serial, pool-fanned
    and partitioned execution paths. *)

module Graph : sig
  type t

  val create : unit -> t

  val add_node : t -> ?island:int -> int -> unit
  (** Declare node [id] (any int, globally unique) on [island]
      (default 0).  Raises [Invalid_argument] on a duplicate id or a
      negative island. *)

  val add_link :
    t ->
    ?label:string ->
    src:int ->
    dst:int ->
    bandwidth_bps:float ->
    delay_s:float ->
    capacity_pkts:int ->
    unit ->
    int
  (** Declare a directed link and return its index.  Both endpoints
      must already be declared.  A cross-island link needs [delay_s]
      strictly positive to be realizable as a boundary.  [label] makes
      the link findable via {!find_link} after realization. *)

  val add_route : t -> at:int -> dst:int -> via:int -> unit
  (** Packets at node [at] destined to node [dst] leave on link [via].
      [via]'s source must sit on [at]'s island (checked at
      realization). *)

  val set_default_route : t -> at:int -> via:int -> unit

  val island_of : t -> int -> int
  (** Island a node was declared on. *)

  val n_nodes : t -> int
  val n_links : t -> int

  val islands : t -> int
  (** Highest declared island index + 1. *)

  val cut_lookahead_s : t -> float
  (** Minimum propagation delay over cross-island links — the lookahead
      a partitioned realization yields, hence the largest window
      [Pdes.run] will accept.  [infinity] when no link crosses
      islands. *)
end

type built
(** A realized graph: engines, pools, nodes, links (and boundary links
    at island cuts). *)

val build : Phi_sim.Engine.t -> Graph.t -> built
(** Serial realization: every node and link on the given engine with
    one shared packet pool; island assignments are ignored and
    cross-island links become ordinary links. *)

val build_partitioned : Phi_sim.Pdes.t -> Graph.t -> built
(** Partitioned realization: adds one [Pdes] island per graph island
    (in index order) to the given coordinator, gives each its own
    packet pool, and realizes every cross-island link as a
    {!Boundary_link} (registering its delay as lookahead and its drain
    in link-insertion order — part of the determinism contract).
    Raises [Invalid_argument] if any cross-island link has zero
    delay. *)

val node : built -> id:int -> Node.t
val node_engine : built -> id:int -> Phi_sim.Engine.t
val node_pool : built -> id:int -> Packet.pool

val island_engine : built -> island:int -> Phi_sim.Engine.t
(** The island's engine (a serial build has a single engine, returned
    for every island). *)

val island_pool : built -> island:int -> Packet.pool
val islands_of : built -> Phi_sim.Pdes.island array
(** The coordinator islands of a partitioned build ([[||]] serial). *)

val engines : built -> Phi_sim.Engine.t array

val link_of : built -> int -> Link.t
(** The realized link at a graph link index.  For a boundary this is
    the egress half — queue, drop and delivery counters all live
    there. *)

val boundary_of : built -> int -> Boundary_link.t option
(** The boundary at a link index, when the link crosses islands in a
    partitioned build. *)

val find_link : built -> label:string -> int
(** Index of the link declared with [~label].  Raises
    [Invalid_argument] when no such label exists. *)

val total_events : built -> int
(** Sum of [Engine.executed] over the realization's engines. *)

(** {2 The topology zoo}

    Named scenario-plane topologies, all emitted through {!Graph}. *)

module Zoo : sig
  type flow_path = {
    src : int;  (** sender node id *)
    dst : int;  (** receiver node id *)
    rtt_s : float;  (** two-way propagation delay of the path *)
  }

  type t = {
    name : string;
    graph : Graph.t;
    flow_paths : flow_path array;
    bottlenecks : int array;
        (** graph link indices of the contended links — where AQM
            regimes apply and windowed measurement happens *)
    bottleneck_bw_bps : float;  (** bandwidth of one bottleneck link *)
    incast_sink : int;
        (** node incast bursts converge on ([-1] when the topology has
            no host pairs at all) *)
    incast_sources : int array;
        (** hosts with a valid forward route to — and ACK route back
            from — [incast_sink]; empty disables the incast regime *)
  }

  val dumbbell : ?spec:spec -> unit -> t
  (** The paper's Figure 1 dumbbell through the graph builder — same
      node ids, link parameters and routes as the legacy {!dumbbell}
      record constructor (a qcheck property holds the two
      byte-identical).  Island 0 holds the left side, island 1 the
      right; the cut runs through the bottleneck. *)

  type parking_lot_spec = {
    segments : int;
    local_pairs : int;  (** sender/receiver pairs per segment *)
    long_flows : int;  (** flows traversing every segment *)
    hop_bw_bps : float;
    hop_delay_s : float;
    cut_bw_bps : float;
    cut_delay_s : float;  (** inter-segment delay = partition lookahead *)
    pl_access_bw_bps : float;
    pl_access_delay_s : float;
    buffer_pkts : int;
  }

  val default_parking_lot : parking_lot_spec
  (** Light matrix-cell sizing (3 segments x 3 pairs + 3 long flows);
      the partitioned bench passes its own heavier spec. *)

  val parking_lot : ?spec:parking_lot_spec -> unit -> t
  (** The multi-bottleneck chain: one island per segment, long flows
      crossing every cut over 10 ms boundaries.  Subsumes the ad-hoc
      builder the [Parking_lot] experiment carried; node ids keep its
      global scheme ({!pl_long_sender_id} and friends). *)

  val pl_long_sender_id : int -> int
  val pl_long_receiver_id : int -> int
  val pl_local_sender_id : segment:int -> pair:int -> int
  val pl_local_receiver_id : segment:int -> pair:int -> int
  val pl_left_router_id : int -> int
  val pl_right_router_id : int -> int

  val fat_tree_pod : unit -> t
  (** One pod of a 4-ary fat tree: 2 edge switches, 2 aggregation
      switches, 2 hosts per edge; 40 Mb/s, 2 ms core links with
      200-packet buffers, 400 Mb/s, 0.5 ms host links.  Inter-edge paths
      climb to an aggregation switch chosen deterministically by
      destination, so routing stays destination-based.  Flows pair each
      host with its slot-mate one edge over. *)

  val wan : unit -> t
  (** Inter-datacenter mesh: 4 site routers fully meshed by 30 Mb/s
      long-haul links with 400-packet buffers and heterogeneous one-way
      delays (15 ms + 18 ms per pair enumeration step, so ~15–105 ms),
      one island per site, 3 hosts per site on 1 Gb/s, 0.5 ms access
      links.  Flows round-robin over the ordered site pairs.  Every
      long-haul link is a cut, so the partition lookahead is the
      smallest pair delay. *)

  val wan_site_router_id : int -> int
  val wan_host_id : site:int -> slot:int -> int

  val names : string list
  (** The registry: ["dumbbell"; "parking_lot"; "fat_tree_pod"; "wan"]. *)

  val by_name : string -> t
  (** Default-sized constructor lookup — how matrix cells materialize a
      topology inside a pool worker from its name alone.  Raises
      [Invalid_argument] on an unknown name. *)
end
