module Engine = Phi_sim.Engine
module Pdes = Phi_sim.Pdes

type spec = {
  n : int;
  bottleneck_bw_bps : float;
  rtt_s : float;
  buffer_bdp_factor : float;
  access_bw_bps : float;
  access_delay_s : float;
}

let paper_spec =
  {
    n = 8;
    bottleneck_bw_bps = 15e6;
    rtt_s = 0.150;
    buffer_bdp_factor = 5.;
    access_bw_bps = 1e9;
    access_delay_s = 0.001;
  }

let bdp_packets spec =
  let bdp_bytes = spec.bottleneck_bw_bps *. spec.rtt_s /. 8. in
  Int.max 1 (int_of_float (Float.round (bdp_bytes /. float_of_int Packet.mss)))

let buffer_packets spec =
  Int.max 1 (int_of_float (Float.round (spec.buffer_bdp_factor *. float_of_int (bdp_packets spec))))

(* {2 The topology builder}

   A topology is a declaration: a function that declares nodes, links
   and routes into a builder, in order.  The builder creates each one
   the moment it is declared — on one engine ({!build}), across [Pdes]
   islands ({!build_partitioned}), or nowhere at all (the shape replay
   that hands a zoo entry its ids).  A node's id and a link's index are
   their declaration indices, so every lookup is an array access.
   Creation follows declaration order: links register their engine
   ports and boundary drains in link order and islands are added in
   index order, which is what fixes a topology's event sequence. *)

type target = Shape | Serial of Engine.t | Partitioned of Pdes.t

type builder = {
  target : target;
  mutable islands : Pdes.island array;  (* partitioned only, in index order *)
  mutable pools : Packet.pool array;  (* one per island; a serial build's only pool *)
  mutable n_nodes : int;
  mutable nodes : Node.t array;
  mutable node_island : int array;  (* partitioned only *)
  mutable n_links : int;
  mutable links : Link.t array;  (* a boundary's egress half *)
  mutable link_island : int array;  (* partitioned only: the island a link leaves *)
  mutable boundaries : (int * Boundary_link.t) list;
  mutable labels : (string * int) list;  (* latest first *)
}

(* [a] at twice its length, padded with [x].  The first allocation takes
   64 slots, which hold the paper dumbbell's 18 nodes and 34 links.

   Every simulated cell pays for building its topology, so the
   declaration path is kept short: the builder stores into its arrays in
   place and writes a field only when one grows, the id checks inline
   and their error paths stay out of line. *)
let[@inline never] grow a x =
  let n = Array.length a in
  let grown = Array.make (Int.max 64 (2 * n)) x in
  Array.blit a 0 grown 0 n;
  grown

let builder target ~pools =
  {
    target;
    islands = [||];
    pools;
    n_nodes = 0;
    nodes = [||];
    node_island = [||];
    n_links = 0;
    links = [||];
    link_island = [||];
    boundaries = [];
    labels = [];
  }

let[@inline never] unknown_node id =
  invalid_arg (Printf.sprintf "Topology: unknown node id %d" id)

let[@inline never] unknown_link ix =
  invalid_arg (Printf.sprintf "Topology: link index %d out of range" ix)

let[@inline] check_node b id = if id < 0 || id >= b.n_nodes then unknown_node id
let[@inline] check_link b ix = if ix < 0 || ix >= b.n_links then unknown_link ix

(* An ordinary link into node [dst]. *)
let[@inline] direct b engine pool ~dst ~bandwidth_bps ~delay_s ~capacity_pkts =
  let link = Link.create engine pool ~bandwidth_bps ~delay_s ~capacity_pkts in
  Link.set_receiver link (Node.receive b.nodes.(dst));
  link

module Graph = struct
  type t = builder

  let add_node b ?(island = 0) () =
    if island < 0 then invalid_arg "Topology.Graph.add_node: negative island";
    let id = b.n_nodes in
    (match b.target with
    | Shape -> ()
    | Serial _ ->
      let node = Node.create b.pools.(0) ~id in
      if id = Array.length b.nodes then b.nodes <- grow b.nodes node;
      b.nodes.(id) <- node
    | Partitioned coordinator ->
      while Array.length b.islands <= island do
        b.islands <- Array.append b.islands [| Pdes.add_island coordinator |];
        b.pools <- Array.append b.pools [| Packet.create_pool () |]
      done;
      let node = Node.create b.pools.(island) ~id in
      if id = Array.length b.nodes then begin
        b.nodes <- grow b.nodes node;
        b.node_island <- grow b.node_island island
      end;
      b.nodes.(id) <- node;
      b.node_island.(id) <- island);
    b.n_nodes <- id + 1;
    id

  let add_link b ?(label = "") ~src ~dst ~bandwidth_bps ~delay_s ~capacity_pkts () =
    check_node b src;
    check_node b dst;
    if not (Float.is_finite bandwidth_bps && bandwidth_bps > 0.) then
      invalid_arg "Topology.Graph.add_link: bandwidth_bps must be finite and positive";
    if not (Float.is_finite delay_s && delay_s >= 0.) then
      invalid_arg "Topology.Graph.add_link: delay_s must be finite and non-negative";
    if capacity_pkts < 1 then invalid_arg "Topology.Graph.add_link: capacity_pkts must be >= 1";
    let ix = b.n_links in
    (match b.target with
    | Shape -> ()
    | Serial engine ->
      let link = direct b engine b.pools.(0) ~dst ~bandwidth_bps ~delay_s ~capacity_pkts in
      if ix = Array.length b.links then b.links <- grow b.links link;
      b.links.(ix) <- link
    | Partitioned coordinator ->
      let si = b.node_island.(src) and di = b.node_island.(dst) in
      let link =
        if si = di then
          direct b (Pdes.engine b.islands.(si)) b.pools.(si) ~dst ~bandwidth_bps ~delay_s
            ~capacity_pkts
        else begin
          let bl =
            Boundary_link.create coordinator ~src:b.islands.(si) ~dst:b.islands.(di)
              ~src_pool:b.pools.(si) ~dst_pool:b.pools.(di) ~bandwidth_bps ~delay_s
              ~capacity_pkts
          in
          Boundary_link.set_receiver bl (Node.receive b.nodes.(dst));
          b.boundaries <- (ix, bl) :: b.boundaries;
          Boundary_link.egress bl
        end
      in
      if ix = Array.length b.links then begin
        b.links <- grow b.links link;
        b.link_island <- grow b.link_island si
      end;
      b.links.(ix) <- link;
      b.link_island.(ix) <- si);
    if String.length label > 0 then b.labels <- (label, ix) :: b.labels;
    b.n_links <- ix + 1;
    ix

  let[@inline never] other_island ~at ~via =
    invalid_arg
      (Printf.sprintf "Topology.Graph: route at node %d uses link %d from another island" at via)

  (* A node can only transmit into a link that starts on its own island
     (a boundary's egress half lives on the source island). *)
  let[@inline] check_via b ~at ~via =
    check_node b at;
    check_link b via;
    match b.target with
    | Partitioned _ -> if b.node_island.(at) <> b.link_island.(via) then other_island ~at ~via
    | Shape | Serial _ -> ()

  let add_route b ~at ~dst ~via =
    check_via b ~at ~via;
    check_node b dst;
    match b.target with
    | Shape -> ()
    | Serial _ | Partitioned _ -> Node.add_route b.nodes.(at) ~dst b.links.(via)

  let set_default_route b ~at ~via =
    check_via b ~at ~via;
    match b.target with
    | Shape -> ()
    | Serial _ | Partitioned _ -> Node.set_default_route b.nodes.(at) b.links.(via)
end

type built = builder

let serial engine = builder (Serial engine) ~pools:[| Packet.create_pool () |]

let build engine declare =
  let b = serial engine in
  declare b;
  b

let build_partitioned coordinator declare =
  let b = builder (Partitioned coordinator) ~pools:[||] in
  declare b;
  b

let node b ~id =
  check_node b id;
  b.nodes.(id)

let node_engine b ~id =
  check_node b id;
  match b.target with
  | Serial engine -> engine
  | Partitioned _ -> Pdes.engine b.islands.(b.node_island.(id))
  | Shape -> invalid_arg "Topology.node_engine: a shape replay has no engine"

(* A serial build keeps one pool for every island. *)
let island_pool b ~island =
  match b.target with Partitioned _ -> b.pools.(island) | Shape | Serial _ -> b.pools.(0)

let link_of b ix =
  check_link b ix;
  b.links.(ix)

let boundary_of b ix = List.find_map (fun (i, bl) -> if i = ix then Some bl else None) b.boundaries

let find_link b ~label =
  match List.find_opt (fun (l, _) -> String.equal l label) b.labels with
  | Some (_, ix) -> ix
  | None -> invalid_arg (Printf.sprintf "Topology.find_link: no link labeled %S" label)

let total_events b =
  match b.target with
  | Serial engine -> Engine.executed engine
  | Partitioned _ ->
    Array.fold_left (fun acc isl -> acc + Engine.executed (Pdes.engine isl)) 0 b.islands
  | Shape -> 0

(* {2 The topology zoo}

   Named scenario-plane topologies, each a declaration with its island
   assignments baked in ({!build} ignores them), so the same entry
   runs serial, pool-fanned or partitioned. *)

module Zoo = struct
  type flow_path = { src : int; dst : int; rtt_s : float }

  type t = {
    name : string;
    declare : Graph.t -> unit;
    flow_paths : flow_path array;
    bottlenecks : int array;
    bottleneck_bw_bps : float;
    incast_sink : int;
    incast_sources : int array;
  }

  (* A zoo entry from its declaration.  [declare g] declares the
     topology into [g] and returns its description: a function giving
     the entry in terms of the ids [g] handed out, with a placeholder
     [declare].  [described] completes that description with the
     declaration.  One replay against a builder that creates nothing
     yields a description; {!build} and {!build_partitioned} replay
     the declaration for real and never describe. *)
  let described declare describe =
    { (describe ()) with declare = (fun g -> let _describe = declare g in ()) }

  let of_declaration declare = described declare (declare (builder Shape ~pools:[||]))

  (* {3 Dumbbell} — the paper's Figure 1.  Senders take ids [0..n-1],
     receivers [n..2n-1] and the left and right routers [2n] and [2n+1];
     the bottleneck is link 0 and its reverse link 1.  The left side is
     island 0 and the right side island 1, so the cut runs through the
     bottleneck. *)

  (* One-way bottleneck propagation delay such that the two-way path
     delay (two access links each way plus the bottleneck each way)
     equals the requested RTT. *)
  let bottleneck_delay (spec : spec) =
    let d = (spec.rtt_s /. 2.) -. (2. *. spec.access_delay_s) in
    if d <= 0. then invalid_arg "Topology.dumbbell: rtt too small for access delays";
    d

  let declare_dumbbell spec =
    if spec.n < 1 then invalid_arg "Topology.dumbbell: need at least one sender";
    if not (Float.is_finite spec.rtt_s && spec.rtt_s > 0.) then
      invalid_arg "Topology.dumbbell: rtt_s must be finite and positive";
    if not (Float.is_finite spec.buffer_bdp_factor && spec.buffer_bdp_factor > 0.) then
      invalid_arg "Topology.dumbbell: buffer_bdp_factor must be finite and positive";
    let n = spec.n and bneck_delay = bottleneck_delay spec and capacity = buffer_packets spec in
    fun g ->
      for _ = 1 to n do
        ignore (Graph.add_node g ~island:0 ())
      done;
      for _ = 1 to n do
        ignore (Graph.add_node g ~island:1 ())
      done;
      let left = Graph.add_node g ~island:0 () in
      let right = Graph.add_node g ~island:1 () in
      let core ~label ~src ~dst =
        Graph.add_link g ~label ~src ~dst ~bandwidth_bps:spec.bottleneck_bw_bps
          ~delay_s:bneck_delay ~capacity_pkts:capacity ()
      in
      let bottleneck = core ~label:"bottleneck" ~src:left ~dst:right in
      let reverse = core ~label:"reverse_bottleneck" ~src:right ~dst:left in
      let access ~src ~dst =
        Graph.add_link g ~src ~dst ~bandwidth_bps:spec.access_bw_bps ~delay_s:spec.access_delay_s
          ~capacity_pkts:10_000 ()
      in
      for s = 0 to n - 1 do
        Graph.set_default_route g ~at:s ~via:(access ~src:s ~dst:left);
        Graph.add_route g ~at:left ~dst:s ~via:(access ~src:left ~dst:s)
      done;
      for r = n to (2 * n) - 1 do
        Graph.add_route g ~at:right ~dst:r ~via:(access ~src:right ~dst:r);
        Graph.set_default_route g ~at:r ~via:(access ~src:r ~dst:right)
      done;
      (* Traffic crossing the core: receivers live behind the right
         router and senders behind the left one. *)
      Graph.set_default_route g ~at:left ~via:bottleneck;
      Graph.set_default_route g ~at:right ~via:reverse;
      fun () ->
        {
          name = "dumbbell";
          declare = ignore;
          flow_paths = Array.init n (fun i -> { src = i; dst = n + i; rtt_s = spec.rtt_s });
          bottlenecks = [| bottleneck |];
          bottleneck_bw_bps = spec.bottleneck_bw_bps;
          (* Any sender can reach any receiver across the bottleneck. *)
          incast_sink = n;
          incast_sources = Array.init n Fun.id;
        }

  let dumbbell ?(spec = paper_spec) () = of_declaration (declare_dumbbell spec)

  (* {3 Parking lot} — the multi-bottleneck chain the partitioned
     engine runs: one island per segment, long flows crossing every
     cut. *)

  type parking_lot_spec = {
    segments : int;
    local_pairs : int;
    long_flows : int;
    hop_bw_bps : float;
    hop_delay_s : float;
    cut_bw_bps : float;
    cut_delay_s : float;
    pl_access_bw_bps : float;
    pl_access_delay_s : float;
    buffer_pkts : int;
  }

  (* A light matrix-cell sizing; the partitioned bench passes its own
     heavier spec. *)
  let default_parking_lot =
    {
      segments = 3;
      local_pairs = 3;
      long_flows = 3;
      hop_bw_bps = 40e6;
      hop_delay_s = 0.005;
      cut_bw_bps = 80e6;
      cut_delay_s = 0.010;
      pl_access_bw_bps = 1e9;
      pl_access_delay_s = 0.0005;
      buffer_pkts = 300;
    }

  let parking_lot ?(spec = default_parking_lot) () =
    if spec.segments < 1 then invalid_arg "Zoo.parking_lot: need at least one segment";
    if spec.local_pairs < 0 || spec.long_flows < 0 then
      invalid_arg "Zoo.parking_lot: negative flow counts";
    let s_count = spec.segments and last = spec.segments - 1 in
    of_declaration (fun g ->
        let node island = Graph.add_node g ~island () in
        let left = Array.make s_count 0 and right = Array.make s_count 0 in
        for s = 0 to last do
          left.(s) <- node s;
          right.(s) <- node s
        done;
        let local_src = Array.make_matrix s_count spec.local_pairs 0 in
        let local_dst = Array.make_matrix s_count spec.local_pairs 0 in
        for s = 0 to last do
          for j = 0 to spec.local_pairs - 1 do
            local_src.(s).(j) <- node s;
            local_dst.(s).(j) <- node s
          done
        done;
        let long_src = Array.make spec.long_flows 0 and long_dst = Array.make spec.long_flows 0 in
        for i = 0 to spec.long_flows - 1 do
          long_src.(i) <- node 0;
          long_dst.(i) <- node last
        done;
        (* Links: hops forward, hops reverse, forward cuts, reverse cuts
           (the cut order fixes the boundary-drain registration order),
           then host access pairs. *)
        let hop ~label ~src ~dst =
          Graph.add_link g ~label ~src ~dst ~bandwidth_bps:spec.hop_bw_bps
            ~delay_s:spec.hop_delay_s ~capacity_pkts:spec.buffer_pkts ()
        in
        let hop_fwd =
          Array.init s_count (fun s ->
              hop ~label:(Printf.sprintf "hop_fwd:%d" s) ~src:left.(s) ~dst:right.(s))
        in
        let hop_rev =
          Array.init s_count (fun s ->
              hop ~label:(Printf.sprintf "hop_rev:%d" s) ~src:right.(s) ~dst:left.(s))
        in
        let cut ~label ~src ~dst =
          Graph.add_link g ~label ~src ~dst ~bandwidth_bps:spec.cut_bw_bps
            ~delay_s:spec.cut_delay_s ~capacity_pkts:10_000 ()
        in
        let f_cut =
          Array.init last (fun s ->
              cut ~label:(Printf.sprintf "f_cut:%d" s) ~src:right.(s) ~dst:left.(s + 1))
        in
        let r_cut =
          Array.init last (fun s ->
              cut ~label:(Printf.sprintf "r_cut:%d" s) ~src:left.(s + 1) ~dst:right.(s))
        in
        (* Hosts: up link with the host's default route, down link with
           the router's route. *)
        let attach ~host ~router =
          let access ~src ~dst =
            Graph.add_link g ~src ~dst ~bandwidth_bps:spec.pl_access_bw_bps
              ~delay_s:spec.pl_access_delay_s ~capacity_pkts:10_000 ()
          in
          Graph.set_default_route g ~at:host ~via:(access ~src:host ~dst:router);
          Graph.add_route g ~at:router ~dst:host ~via:(access ~src:router ~dst:host)
        in
        for s = 0 to last do
          for j = 0 to spec.local_pairs - 1 do
            attach ~host:local_src.(s).(j) ~router:left.(s);
            attach ~host:local_dst.(s).(j) ~router:right.(s)
          done
        done;
        for i = 0 to spec.long_flows - 1 do
          attach ~host:long_src.(i) ~router:left.(0);
          attach ~host:long_dst.(i) ~router:right.(last)
        done;
        (* Router forwarding: left router [s] sends long-sender traffic
           back toward segment 0 and defaults forward over the hop; right
           router [s] sends any sender traffic back over the reverse hop
           and long-receiver traffic onward. *)
        for s = 0 to last do
          if s > 0 then
            Array.iter
              (fun src -> Graph.add_route g ~at:left.(s) ~dst:src ~via:r_cut.(s - 1))
              long_src;
          Graph.set_default_route g ~at:left.(s) ~via:hop_fwd.(s);
          Array.iter
            (fun src -> Graph.add_route g ~at:right.(s) ~dst:src ~via:hop_rev.(s))
            local_src.(s);
          for i = 0 to spec.long_flows - 1 do
            Graph.add_route g ~at:right.(s) ~dst:long_src.(i) ~via:hop_rev.(s);
            if s < last then Graph.add_route g ~at:right.(s) ~dst:long_dst.(i) ~via:f_cut.(s)
          done;
          Graph.set_default_route g ~at:right.(s) ~via:(if s = last then hop_rev.(s) else f_cut.(s))
        done;
        fun () ->
          let local_rtt = 2. *. ((2. *. spec.pl_access_delay_s) +. spec.hop_delay_s) in
          let long_rtt =
            2.
            *. ((2. *. spec.pl_access_delay_s)
                +. (float_of_int s_count *. spec.hop_delay_s)
                +. (float_of_int last *. spec.cut_delay_s))
          in
          (* Flow paths: the local pairs segment-major, then the long flows. *)
          let local s j = { src = local_src.(s).(j); dst = local_dst.(s).(j); rtt_s = local_rtt } in
          let flow_paths =
            Array.concat
              (List.init s_count (fun s -> Array.init spec.local_pairs (local s))
              @ [ Array.init spec.long_flows (fun i ->
                      { src = long_src.(i); dst = long_dst.(i); rtt_s = long_rtt }) ])
          in
          (* Incast anchors must respect the chain's directional routing:
             the only hosts with a return route from segment 0's right
             router are that segment's local senders and the long
             senders. *)
          let incast_sink, incast_sources =
            if spec.local_pairs > 0 then (local_dst.(0).(0), Array.append local_src.(0) long_src)
            else if spec.long_flows > 0 then (long_dst.(0), long_src)
            else (-1, [||])
          in
          {
            name = "parking_lot";
            declare = ignore;
            flow_paths;
            bottlenecks = hop_fwd;
            bottleneck_bw_bps = spec.hop_bw_bps;
            incast_sink;
            incast_sources;
          })

  (* {3 Fat-tree pod} — one pod of a k-ary fat tree: k/2 edge switches,
     k/2 aggregation switches, k/2 hosts per edge.  Paths between hosts
     on different edge switches climb to an aggregation switch chosen
     deterministically by destination (ECMP-by-destination), so routing
     stays purely destination-based. *)

  let fat_tree_pod () =
    let half = 2 (* k = 4 *) and core_bw_bps = 40e6 and core_delay_s = 0.002 in
    let host_bw_bps = 400e6 and host_delay_s = 0.0005 and buffer_pkts = 200 in
    of_declaration (fun g ->
        let edges = Array.init half (fun _ -> Graph.add_node g ()) in
        let aggs = Array.init half (fun _ -> Graph.add_node g ()) in
        let hosts = Array.init half (fun _ -> Array.init half (fun _ -> Graph.add_node g ())) in
        (* Core fabric: an up and a down link per (edge, agg) pair. *)
        let up = Array.make_matrix half half (-1) in
        let down = Array.make_matrix half half (-1) in
        for e = 0 to half - 1 do
          for a = 0 to half - 1 do
            up.(e).(a) <-
              Graph.add_link g
                ~label:(Printf.sprintf "up:%d:%d" e a)
                ~src:edges.(e) ~dst:aggs.(a) ~bandwidth_bps:core_bw_bps ~delay_s:core_delay_s
                ~capacity_pkts:buffer_pkts ();
            down.(e).(a) <-
              Graph.add_link g ~src:aggs.(a) ~dst:edges.(e) ~bandwidth_bps:core_bw_bps
                ~delay_s:core_delay_s ~capacity_pkts:buffer_pkts ()
          done
        done;
        (* Host access links and destination routes. *)
        for e = 0 to half - 1 do
          for h = 0 to half - 1 do
            let host = hosts.(e).(h) in
            let host_up =
              Graph.add_link g ~src:host ~dst:edges.(e) ~bandwidth_bps:host_bw_bps
                ~delay_s:host_delay_s ~capacity_pkts:10_000 ()
            in
            Graph.set_default_route g ~at:host ~via:host_up;
            let host_down =
              Graph.add_link g ~src:edges.(e) ~dst:host ~bandwidth_bps:host_bw_bps
                ~delay_s:host_delay_s ~capacity_pkts:10_000 ()
            in
            Graph.add_route g ~at:edges.(e) ~dst:host ~via:host_down;
            (* Every other edge climbs to this host's home aggregation
               switch; the aggregation switch descends to its edge. *)
            let agg = ((e * half) + h) mod half in
            Graph.add_route g ~at:aggs.(agg) ~dst:host ~via:down.(e).(agg);
            for e' = 0 to half - 1 do
              if e' <> e then Graph.add_route g ~at:edges.(e') ~dst:host ~via:up.(e').(agg)
            done
          done
        done;
        fun () ->
          let rtt_s = 2. *. ((2. *. host_delay_s) +. (2. *. core_delay_s)) in
          let all_hosts = Array.concat (Array.to_list hosts) in
          {
            name = "fat_tree_pod";
            declare = ignore;
            (* Host i talks to its slot-mate one edge over: every flow
               crosses the fabric, and the deterministic agg choice spreads
               them. *)
            flow_paths =
              Array.init (half * half) (fun i ->
                  let e = i / half and h = i mod half in
                  { src = hosts.(e).(h); dst = hosts.((e + 1) mod half).(h); rtt_s });
            bottlenecks = Array.init (half * half) (fun i -> up.(i / half).(i mod half));
            bottleneck_bw_bps = core_bw_bps;
            (* All-pairs destination routing: every other host can converge
               on host (0, 0). *)
            incast_sink = all_hosts.(0);
            incast_sources = Array.sub all_hosts 1 (Array.length all_hosts - 1);
          })

  (* {3 WAN} — a handful of sites joined by a full mesh of
     heterogeneous-RTT long-haul links (the inter-datacenter setting of
     the CC thesis in PAPERS.md): island per site, every long-haul link
     a cut.  One-way delays spread ~15–105 ms across the pairs, so
     algorithm behaviour at short and long RTT lands in the same run.
     The site routers are declared first, then the hosts site by
     site. *)

  let wan_sites = 4
  let wan_hosts_per_site = 3
  let wan_site_router_id i = i
  let wan_host_id ~site ~slot = wan_sites + (site * wan_hosts_per_site) + slot

  (* Deterministic heterogeneous one-way delay for the pair (i, j),
     i < j: 15 ms plus 18 ms per enumeration step. *)
  let wan_pair_delay_s ~i ~j =
    let rec pair_index acc a b =
      if a = i && b = j then acc
      else if b = wan_sites - 1 then pair_index (acc + 1) (a + 1) (a + 2)
      else pair_index (acc + 1) a (b + 1)
    in
    0.015 +. (0.018 *. float_of_int (pair_index 0 0 1))

  let wan () =
    let sites = wan_sites and hosts_per_site = wan_hosts_per_site and wan_bw_bps = 30e6 in
    let access_bw_bps = 1e9 and access_delay_s = 0.0005 and buffer_pkts = 400 in
    of_declaration (fun g ->
        let routers = Array.init sites (fun i -> Graph.add_node g ~island:i ()) in
        let hosts =
          Array.init sites (fun i ->
              Array.init hosts_per_site (fun _ -> Graph.add_node g ~island:i ()))
        in
        (* Long-haul mesh: one directed link each way per site pair. *)
        let mesh = Array.make_matrix sites sites (-1) in
        let long_haul i j ~delay_s =
          mesh.(i).(j) <-
            Graph.add_link g
              ~label:(Printf.sprintf "wan:%d:%d" i j)
              ~src:routers.(i) ~dst:routers.(j) ~bandwidth_bps:wan_bw_bps ~delay_s
              ~capacity_pkts:buffer_pkts ()
        in
        for i = 0 to sites - 1 do
          for j = i + 1 to sites - 1 do
            let delay_s = wan_pair_delay_s ~i ~j in
            long_haul i j ~delay_s;
            long_haul j i ~delay_s
          done
        done;
        (* Hosts and destination-based routing: the mesh is one hop, so
           every router routes a remote host over the direct long-haul
           link and a local host down its access link. *)
        for i = 0 to sites - 1 do
          Array.iter
            (fun host ->
              let host_up =
                Graph.add_link g ~src:host ~dst:routers.(i) ~bandwidth_bps:access_bw_bps
                  ~delay_s:access_delay_s ~capacity_pkts:10_000 ()
              in
              Graph.set_default_route g ~at:host ~via:host_up;
              let host_down =
                Graph.add_link g ~src:routers.(i) ~dst:host ~bandwidth_bps:access_bw_bps
                  ~delay_s:access_delay_s ~capacity_pkts:10_000 ()
              in
              Graph.add_route g ~at:routers.(i) ~dst:host ~via:host_down;
              for j = 0 to sites - 1 do
                if j <> i then Graph.add_route g ~at:routers.(j) ~dst:host ~via:mesh.(j).(i)
              done)
            hosts.(i)
        done;
        fun () ->
          (* Flows: round-robin over the ordered site pairs, so every RTT
             class carries traffic in both directions. *)
          let pairs =
            Array.of_list
              (List.concat_map
                 (fun i ->
                   List.filter_map
                     (fun j -> if j <> i then Some (i, j) else None)
                     (List.init sites Fun.id))
                 (List.init sites Fun.id))
          in
          let flow_paths =
            Array.init (sites * hosts_per_site) (fun f ->
                let i, j = pairs.(f mod Array.length pairs) in
                let slot = f / Array.length pairs mod hosts_per_site in
                let d = wan_pair_delay_s ~i:(Int.min i j) ~j:(Int.max i j) in
                {
                  src = hosts.(i).(slot);
                  dst = hosts.(j).(slot);
                  rtt_s = 2. *. ((2. *. access_delay_s) +. d);
                })
          in
          let all_hosts = Array.concat (Array.to_list hosts) in
          {
            name = "wan";
            declare = ignore;
            flow_paths;
            bottlenecks =
              Array.of_list
                (List.concat_map
                   (fun i ->
                     List.filter_map
                       (fun j -> if j <> i then Some mesh.(i).(j) else None)
                       (List.init sites Fun.id))
                   (List.init sites Fun.id));
            bottleneck_bw_bps = wan_bw_bps;
            (* Full mesh: every other host can converge on host (0, 0). *)
            incast_sink = all_hosts.(0);
            incast_sources = Array.sub all_hosts 1 (Array.length all_hosts - 1);
          })

  let names = [ "dumbbell"; "parking_lot"; "fat_tree_pod"; "wan" ]

  let by_name = function
    | "dumbbell" -> dumbbell ()
    | "parking_lot" -> parking_lot ()
    | "fat_tree_pod" -> fat_tree_pod ()
    | "wan" -> wan ()
    | other -> invalid_arg (Printf.sprintf "Zoo.by_name: unknown topology %S" other)
end

type dumbbell = {
  built : built;
  zoo : Zoo.t;
  pool : Packet.pool;
  senders : Node.t array;
  receivers : Node.t array;
  left_router : Node.t;
  right_router : Node.t;
  bottleneck : Link.t;
  reverse_bottleneck : Link.t;
}

(* The paper's Figure 1 dumbbell, declared straight into the engine in
   one pass: the declaration that realizes it also hands back the
   description {!Zoo.dumbbell} learns from a shape replay. *)
let dumbbell engine spec =
  let declare = Zoo.declare_dumbbell spec in
  let b = serial engine in
  let zoo = Zoo.described declare (declare b) in
  let n = spec.n in
  {
    built = b;
    zoo;
    pool = b.pools.(0);
    senders = Array.sub b.nodes 0 n;
    receivers = Array.sub b.nodes n n;
    left_router = b.nodes.(2 * n);
    right_router = b.nodes.((2 * n) + 1);
    bottleneck = b.links.(0);
    reverse_bottleneck = b.links.(1);
  }

let receiver_id t i = Node.id t.receivers.(i)
