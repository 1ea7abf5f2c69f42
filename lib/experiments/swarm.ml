module Engine = Phi_sim.Engine
module Pool = Phi_runner.Pool
module Stats = Phi_util.Stats
module Prng = Phi_util.Prng
module Cloud_trace = Phi_workload.Cloud_trace
module Context_server = Phi.Context_server
module Context_wire = Phi.Context_wire
module Context = Phi.Context
module Policy = Phi.Policy
module Cc_algo = Phi.Cc_algo

type config = {
  n_flows : int;
  seed : int;
  cells : int;
  shards_per_cell : int;
  epoch_s : float;
  window_s : float;
  ttl_epochs : int;
  max_paths_per_shard : int;
}

let default_config =
  {
    n_flows = 1_000_000;
    seed = 42;
    cells = 8;
    shards_per_cell = 8;
    epoch_s = 1.;
    window_s = 10.;
    ttl_epochs = 120;
    max_paths_per_shard = 4096;
  }

type result = {
  flows : int;
  lookups : int;
  reports : int;
  resident_paths : int;
  evictions : int;
  flushes : int;
  checksum : int;
  jain_index : float;
  choice_counts : (string * int) list;
  fingerprint : string;
  elapsed_s : float;
  lookups_per_s : float;
  reports_per_s : float;
  p50_lookup_s : float;
  p99_lookup_s : float;
}

(* {2 The fleet policy}

   Every lookup response closes the client-side loop: decode the
   context, ask the (compiled) policy which algorithm this connection
   should run.  The policy is a deterministic learned table covering all
   five registered algorithms, so the swarm exercises both the
   flat-array hits and the heuristic fallback. *)

let swarm_policy () =
  let policy = Policy.create () in
  let bucket u n q = { Context.u_bucket = u; n_bucket = n; q_bucket = q } in
  List.iter
    (fun (b, choice) -> Policy.learn policy b choice)
    [
      (bucket 0 0 0, Cc_algo.Remy);
      (bucket 0 1 0, Cc_algo.Remy_phi);
      (bucket 1 2 1, Cc_algo.Vegas);
      (bucket 2 3 1, Cc_algo.Reno 1.);
      (bucket 3 3 2, Cc_algo.Cubic Phi_tcp.Cubic.default_params);
    ];
  policy

(* Fixed tally slots, one per registered algorithm. *)
let algo_slot = function
  | Cc_algo.Cubic _ -> 0
  | Cc_algo.Reno _ -> 1
  | Cc_algo.Vegas -> 2
  | Cc_algo.Remy -> 3
  | Cc_algo.Remy_phi -> 4

let slots = 5

let slot_name = function
  | 0 -> "cubic"
  | 1 -> "reno"
  | 2 -> "vegas"
  | 3 -> "remy"
  | _ -> "remy-phi"

(* The same FNV-1a the context server uses for shard placement.  The
   cell index takes the hash's {e high} bits: the server takes it mod
   the shard count, and using the same low bits for both would send
   every path of a cell to a single shard. *)
let fnv1a s =
  let h = ref 0x811c9dc5 in
  String.iter (fun ch -> h := (!h lxor Char.code ch) * 0x01000193 land 0xffffffff) s;
  !h

(* One pre-encoded wire message, stamped with its firing time and a
   global sequence number (the deterministic tie-break for messages
   landing in the same instant). *)
type op = { time : float; seq : int; wire : string }

(* {2 Workload generation}

   The million flows come from the Section 2.1 trace generator: Zipf
   destination subnets, Pareto sizes, Poisson arrivals.  Each flow is
   the paper's two-message protocol — a lookup when it starts, a report
   when it ends — pre-encoded into wire form and binned to one of
   [cells] independent server groups by path hash, so the execution
   phase is pure decode/serve/encode. *)

let generate config =
  let buckets = Array.make config.cells [] in
  let rng = Prng.create ~seed:config.seed in
  let trace =
    {
      Cloud_trace.default_config with
      Cloud_trace.flows_per_minute = 120_000.;
      (* Over-provision the horizon, then cut at exactly [n_flows]: a
         Poisson draw can come up short of its mean, never by 30 %. *)
      Cloud_trace.horizon_minutes =
        1 + int_of_float (Float.ceil (1.3 *. float_of_int config.n_flows /. 120_000.));
    }
  in
  let emitted = ref 0 in
  let exception Enough in
  (try
     Cloud_trace.iter rng trace (fun flow ->
         if !emitted >= config.n_flows then raise Enough;
         let i = !emitted in
         incr emitted;
         let path = "subnet-" ^ string_of_int (Cloud_trace.dst_subnet flow) in
         let cell = fnv1a path lsr 13 mod config.cells in
         (* Three quarters of the fleet tolerates two epochs of
            staleness; the rest demands a fresh answer, keeping both
            lookup paths hot. *)
         let max_staleness = if i land 3 = 0 then 0 else 2 in
         let lookup =
           Context_wire.request_to_string (Context_wire.Lookup { path; max_staleness })
         in
         let report =
           Context_wire.request_to_string
             (Context_wire.Report
                {
                  path;
                  bytes = flow.Cloud_trace.bytes;
                  duration_s = flow.Cloud_trace.duration_s;
                  min_rtt = 0.02;
                  mean_rtt = 0.02 +. (float_of_int (i land 15) *. 1e-4);
                  retransmitted = (if i mod 50 = 0 then 1 else 0);
                  segments = flow.Cloud_trace.packets;
                })
         in
         buckets.(cell) <-
           { time = flow.Cloud_trace.start_s; seq = 2 * i; wire = lookup }
           :: {
                time = flow.Cloud_trace.start_s +. flow.Cloud_trace.duration_s;
                seq = (2 * i) + 1;
                wire = report;
              }
           :: buckets.(cell))
   with Enough -> ());
  if !emitted < config.n_flows then
    invalid_arg "Swarm.run: trace horizon too short for the requested flow count";
  buckets

(* {2 Cell execution} *)

(* CLOCK_MONOTONIC in ns (bechamel's allocation-free clock_gettime
   stub): latencies and elapsed time never see a wall-clock step. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

type cell_out = {
  c_lookups : int;
  c_reports : int;
  c_checksum : int;
  c_shard_lookups : int array;
  c_resident : int;
  c_evictions : int;
  c_flushes : int;
  c_choices : int array;  (* per-algorithm policy-choice tally *)
  c_lat : floatarray;  (* per-lookup service latencies, seconds *)
  c_lat_n : int;
}

(* Fold a response's wire bytes into a cell's FNV checksum: the
   determinism fingerprint covers every byte the swarm's clients would
   have seen. *)
let checksum_add acc wire =
  let h = ref acc in
  String.iter (fun ch -> h := (!h lxor Char.code ch) * 0x01000193 land 0xffffffff) wire;
  !h

let run_cell config policy ops =
  let ops = Array.of_list ops in
  Array.sort
    (fun a b ->
      match Float.compare a.time b.time with 0 -> Int.compare a.seq b.seq | c -> c)
    ops;
  let engine = Engine.create () in
  let server =
    Context_server.create engine ~capacity_bps:1e9 ~window_s:config.window_s
      ~epoch_s:config.epoch_s ~shards:config.shards_per_cell
      ~max_paths_per_shard:config.max_paths_per_shard ~ttl_epochs:config.ttl_epochs ()
  in
  let lookups = ref 0 and reports = ref 0 and checksum = ref 0x811c9dc5 in
  let choices = Array.make slots 0 in
  let lat = Float.Array.make (Array.length ops) 0. in
  let lat_n = ref 0 in
  Array.iter
    (fun op ->
      Engine.run ~until:op.time engine;
      match Context_wire.decode_request op.wire with
      | Error e -> invalid_arg ("Swarm.run: corrupt pre-encoded request: " ^ e)
      | Ok req ->
        let t0 = now_ns () in
        let resp = Context_server.handle server req in
        let t1 = now_ns () in
        let resp_wire = Context_wire.response_to_string resp in
        (* The client half of the protocol: decode the response and, for
           lookups, run the decoded context through the compiled policy —
           the same algorithm choice a real connection setup would make. *)
        (match Context_wire.decode_response resp_wire with
        | Ok (Context_wire.Context_of { ctx; epoch = _ }) ->
          let slot = algo_slot (Policy.Compiled.choice_for policy ctx) in
          choices.(slot) <- choices.(slot) + 1
        | Ok (Context_wire.Accepted _) -> ()
        | Error e -> invalid_arg ("Swarm.run: response failed to round-trip: " ^ e));
        checksum := checksum_add !checksum resp_wire;
        (match req with
        | Context_wire.Lookup _ ->
          incr lookups;
          Float.Array.set lat !lat_n (float_of_int (t1 - t0) *. 1e-9);
          incr lat_n
        | Context_wire.Report _ -> incr reports))
    ops;
  (* Quiesce so the final residency/eviction numbers reflect every
     report, not an open batch. *)
  Context_server.flush server;
  let stats = Context_server.shard_stats server in
  {
    c_lookups = !lookups;
    c_reports = !reports;
    c_checksum = !checksum;
    c_shard_lookups = Array.map (fun s -> s.Context_server.lookups) stats;
    c_resident = Context_server.resident_paths server;
    c_evictions = Context_server.eviction_count server;
    c_flushes = Context_server.flush_count server;
    c_choices = choices;
    c_lat = lat;
    c_lat_n = !lat_n;
  }

let run ?jobs ?(config = default_config) () =
  if config.n_flows < 1 then invalid_arg "Swarm.run: need at least one flow";
  if config.cells < 1 then invalid_arg "Swarm.run: need at least one cell";
  let buckets = generate config in
  (* Compiled once; immutable, so all cells share it across domains. *)
  let policy = Policy.Compiled.compile (swarm_policy ()) in
  let t0 = now_ns () in
  let outs = Pool.map ?jobs (run_cell config policy) (Array.to_list buckets) in
  let elapsed_s = Float.max 1e-9 (float_of_int (now_ns () - t0) *. 1e-9) in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outs in
  let lookups = sum (fun o -> o.c_lookups) and reports = sum (fun o -> o.c_reports) in
  let checksum =
    List.fold_left (fun acc o -> (acc * 0x01000193 lxor o.c_checksum) land 0xffffffff)
      0x811c9dc5 outs
  in
  let shard_lookups = Array.concat (List.map (fun o -> o.c_shard_lookups) outs) in
  (* Jain over per-shard lookup loads: 1 is a perfectly balanced hash,
     1/n is every lookup on one shard. *)
  let jain_index = Stats.jain (Array.map float_of_int shard_lookups) in
  let resident_paths = sum (fun o -> o.c_resident) in
  let evictions = sum (fun o -> o.c_evictions) in
  let flushes = sum (fun o -> o.c_flushes) in
  let latencies =
    let n = sum (fun o -> o.c_lat_n) in
    let arr = Array.make (Stdlib.max 1 n) 0. in
    let k = ref 0 in
    List.iter
      (fun o ->
        for i = 0 to o.c_lat_n - 1 do
          arr.(!k) <- Float.Array.get o.c_lat i;
          incr k
        done)
      outs;
    arr
  in
  let choice_totals =
    let totals = Array.make slots 0 in
    List.iter (fun o -> Array.iteri (fun i c -> totals.(i) <- totals.(i) + c) o.c_choices) outs;
    totals
  in
  let choice_counts =
    List.init slots (fun i -> (slot_name i, choice_totals.(i)))
  in
  let fingerprint =
    Printf.sprintf
      "flows=%d lookups=%d reports=%d checksum=%08x resident=%d evicted=%d jain=%.6f choices=%s"
      config.n_flows lookups reports checksum resident_paths evictions jain_index
      (String.concat ","
         (List.map (fun (name, count) -> Printf.sprintf "%s:%d" name count) choice_counts))
  in
  {
    flows = config.n_flows;
    lookups;
    reports;
    resident_paths;
    evictions;
    flushes;
    checksum;
    jain_index;
    choice_counts;
    fingerprint;
    elapsed_s;
    lookups_per_s = float_of_int lookups /. elapsed_s;
    reports_per_s = float_of_int reports /. elapsed_s;
    p50_lookup_s = Stats.percentile latencies ~p:50.;
    p99_lookup_s = Stats.percentile latencies ~p:99.;
  }
