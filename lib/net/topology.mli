(** Topologies, each declared into one builder.

    The paper's experiments all run on the Figure 1 dumbbell: [n] senders
    and [n] receivers joined by two routers and a single bottleneck link
    whose buffer is a multiple of the bandwidth-delay product.  It is one
    entry of the topology zoo, next to the parking lot, a fat-tree pod
    and a WAN mesh. *)

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

(** {2 The topology builder}

    A topology is a declaration: a function that declares nodes, links
    and routes into a {!Graph.t}, in order.  The builder creates each
    one the moment it is declared: on one engine with one packet pool
    ({!build}, island assignments ignored), or across [Phi_sim.Pdes]
    islands with a pool each ({!build_partitioned}, every cross-island
    link a {!Boundary_link}).  Nodes, links and routes are created in
    declaration order, so ports and boundary drains register in link
    order and islands are added in index order — part of the
    determinism contract. *)

module Graph : sig
  type t

  val add_node : t -> ?island:int -> unit -> int
  (** Declare a node on [island] (default 0) and return its id, which
      is its declaration index.  Raises [Invalid_argument] on a negative
      island. *)

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
  (** Declare a directed link between two declared nodes and return its
      index, which is its declaration index.  [label] makes the link
      findable via {!find_link}.  Raises [Invalid_argument], naming the
      field, unless [bandwidth_bps] is finite and positive, [delay_s]
      finite and non-negative and [capacity_pkts] at least 1; a
      partitioned build also rejects a cross-island link with zero
      delay, since that delay is the lookahead. *)

  val add_route : t -> at:int -> dst:int -> via:int -> unit
  (** Packets at node [at] destined to node [dst] leave on link [via].
      Raises [Invalid_argument] on an undeclared node or link, and, in a
      partitioned build, when [via] starts on another island than
      [at]. *)

  val set_default_route : t -> at:int -> via:int -> unit
end

type built
(** A realized topology: engines, pools, nodes, links (and boundary
    links at island cuts). *)

val build : Phi_sim.Engine.t -> (Graph.t -> unit) -> built
(** Serial realization of a declaration: every node and link on the
    given engine with one shared packet pool; island assignments are
    ignored and cross-island links become ordinary links. *)

val build_partitioned : Phi_sim.Pdes.t -> (Graph.t -> unit) -> built
(** Partitioned realization of a declaration: adds one [Pdes] island
    per declared island (in index order) to the given coordinator,
    gives each its own packet pool, and realizes every cross-island
    link as a {!Boundary_link}, which registers its delay as lookahead
    and its drain on the destination island. *)

val node : built -> id:int -> Node.t
val node_engine : built -> id:int -> Phi_sim.Engine.t

val island_pool : built -> island:int -> Packet.pool
(** The island's packet pool (a serial build has a single pool,
    returned for every island). *)

val link_of : built -> int -> Link.t
(** The realized link at a link index.  For a boundary this is the
    egress half — queue, drop and delivery counters all live there. *)

val boundary_of : built -> int -> Boundary_link.t option
(** The boundary at a link index, when the link crosses islands in a
    partitioned build. *)

val find_link : built -> label:string -> int
(** Index of the link declared with [~label] (the latest, if several
    share it).  Raises [Invalid_argument] when no such label exists. *)

val total_events : built -> int
(** Sum of [Engine.executed] over the realization's engines. *)

(** {2 The topology zoo}

    Named scenario-plane topologies, each a declaration for {!build} or
    {!build_partitioned}. *)

module Zoo : sig
  type flow_path = {
    src : int;  (** sender node id *)
    dst : int;  (** receiver node id *)
    rtt_s : float;  (** two-way propagation delay of the path *)
  }

  type t = {
    name : string;
    declare : Graph.t -> unit;
        (** declares the topology, islands included, into a builder *)
    flow_paths : flow_path array;
    bottlenecks : int array;
        (** link indices of the contended links — where AQM
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
  (** The paper's Figure 1 dumbbell: senders take node ids [0 .. n-1],
      receivers [n .. 2n-1] and the left and right routers [2n] and
      [2n+1].  Island 0 holds the left side, island 1 the right; the
      cut runs through the bottleneck.  Raises
      [Invalid_argument] when [n < 1], when [rtt_s] or
      [buffer_bdp_factor] is not finite and positive, when the RTT
      leaves no bottleneck delay after the access links, or when a link
      parameter is out of range. *)

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
      crossing every cut over 10 ms boundaries.  Flow paths list the
      local pairs segment by segment, then the long flows; bottleneck
      [s] is segment [s]'s forward hop, labeled ["hop_fwd:s"]. *)

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
  (** Node ids in {!wan}: the 4 site routers come first, then the
      hosts site by site. *)

  val names : string list
  (** The registry: ["dumbbell"; "parking_lot"; "fat_tree_pod"; "wan"]. *)

  val by_name : string -> t
  (** Default-sized constructor lookup — how matrix cells materialize a
      topology inside a pool worker from its name alone.  Raises
      [Invalid_argument] on an unknown name. *)
end

(** {2 The paper dumbbell, realized} *)

type dumbbell = {
  built : built;  (** the realization, for {!node} and {!link_of} *)
  zoo : Zoo.t;  (** its description, equal to [Zoo.dumbbell ~spec ()]'s *)
  pool : Packet.pool;  (** the packet slab shared by every node and link *)
  senders : Node.t array;
  receivers : Node.t array;
  left_router : Node.t;
  right_router : Node.t;
  bottleneck : Link.t;  (** forward direction: left -> right *)
  reverse_bottleneck : Link.t;
}

val dumbbell : Phi_sim.Engine.t -> spec -> dumbbell
(** Realize {!Zoo.dumbbell}'s declaration on the engine, with its node
    ids, in one pass: the declaration also yields the description,
    without the shape replay {!Zoo.dumbbell} makes.  Raises
    [Invalid_argument] like {!Zoo.dumbbell}. *)

val sender_id : dumbbell -> int -> int
val receiver_id : dumbbell -> int -> int
(** Node ids of the i-th sender/receiver (also their array indices). *)
