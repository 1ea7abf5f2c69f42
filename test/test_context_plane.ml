(* The sharded, epoch-batched context plane: sharding transparency
   against a single-shard reference, the lookup-no-persist regression,
   bounded staleness, decay/LRU eviction, and the wire dispatch path. *)

module Engine = Phi_sim.Engine
module Server = Phi.Context_server
module Wire = Phi.Context_wire
module Context = Phi.Context

let feq = Float.equal

(* {2 Lookups on unknown prefixes must not allocate persistent state}

   The pre-sharding server lazily created [path_state] on lookup, so a
   scan over never-reported prefixes grew the table forever. *)
let test_lookup_does_not_persist () =
  let engine = Engine.create () in
  let server = Server.create engine ~capacity_bps:1e9 ~epoch_s:1. ~shards:4 ~ttl_epochs:2 () in
  for i = 1 to 100 do
    ignore (Server.lookup server ~path:(Printf.sprintf "scan-%d" i))
  done;
  Alcotest.(check int) "nothing committed" 0 (Server.resident_paths server);
  Alcotest.(check bool) "scan is pending" true (Server.pending_paths server > 0);
  Engine.run ~until:2. engine;
  Server.flush server;
  (* Never committed; pending only until the scan outlives the ttl. *)
  Alcotest.(check int) "nothing committed by the flush" 0 (Server.resident_paths server);
  Engine.run ~until:10. engine;
  Server.flush server;
  Alcotest.(check int) "still nothing committed" 0 (Server.resident_paths server);
  Alcotest.(check int) "scan decayed out of pending" 0 (Server.pending_paths server);
  (* A prefix that reports does survive. *)
  ignore (Server.lookup server ~path:"real");
  Server.report server ~path:"real" ~bytes:10_000 ~duration_s:1. ~min_rtt:0.01
    ~mean_rtt:0.02 ~retransmitted:0 ~segments:10;
  Engine.run ~until:12. engine;
  Server.flush server;
  Alcotest.(check int) "reported prefix committed" 1 (Server.resident_paths server)

(* {2 Sharding transparency}

   The same operation stream must produce the same per-prefix answers
   whatever the shard count: shards change who shares a flush schedule,
   never what a path's state is.  The reference is the 1-shard server. *)

let paths = [| "pfx-a"; "pfx-b"; "pfx-c"; "pfx-d"; "pfx-e"; "pfx-f" |]

let context_equal (a : Context.t) (b : Context.t) =
  feq a.Context.utilization b.Context.utilization
  && feq a.Context.queue_delay_s b.Context.queue_delay_s
  && a.Context.competing_senders = b.Context.competing_senders
  && feq a.Context.loss_rate b.Context.loss_rate

(* Ops: 0-1 lookup (fresh / stale), 2 report, 3 advance the clock. *)
let apply_stream ~shards ops =
  let engine = Engine.create () in
  let server = Server.create engine ~epoch_s:1. ~window_s:5. ~shards () in
  let outstanding = Array.make (Array.length paths) 0 in
  List.iter
    (fun (p, kind) ->
      let path = paths.(p) in
      match kind with
      | 0 -> ignore (Server.lookup server ~path); outstanding.(p) <- outstanding.(p) + 1
      | 1 ->
        ignore (Server.lookup server ~max_staleness:2 ~path);
        outstanding.(p) <- outstanding.(p) + 1
      | 2 ->
        (* Only close a connection some lookup opened, so active counts
           stay meaningful. *)
        if outstanding.(p) > 0 then begin
          outstanding.(p) <- outstanding.(p) - 1;
          Server.report server ~path ~bytes:((p + 1) * 40_000) ~duration_s:1.5
            ~min_rtt:0.01
            ~mean_rtt:(0.01 +. (0.001 *. float_of_int (p + 1)))
            ~retransmitted:(p mod 2) ~segments:40
        end
      | _ -> Engine.run ~until:(Engine.now engine +. 0.7) engine)
    ops;
  (* Quiesce at an epoch boundary and read every path's answer. *)
  Engine.run ~until:(Float.of_int (int_of_float (Engine.now engine) + 1)) engine;
  Server.flush server;
  ( Array.map (fun path -> Server.peek server ~path) paths,
    Array.map (fun path -> Server.active_connections server ~path) paths,
    Array.map (fun path -> Server.learned_capacity_bps server ~path) paths )

let prop_sharded_matches_reference =
  QCheck.Test.make
    ~name:"sharded server matches 1-shard reference on any op stream" ~count:120
    QCheck.(
      pair (int_range 2 7)
        (list_of_size Gen.(int_range 0 120) (pair (int_bound 5) (int_bound 3))))
    (fun (shards, ops) ->
      let ctx1, act1, cap1 = apply_stream ~shards:1 ops in
      let ctxn, actn, capn = apply_stream ~shards ops in
      let cap_eq = function
        | Some a, Some b -> feq a b
        | None, None -> true
        | Some _, None | None, Some _ -> false
      in
      let ok = ref true in
      Array.iteri
        (fun i c1 ->
          ok :=
            !ok && context_equal c1 ctxn.(i) && act1.(i) = actn.(i)
            && cap_eq (cap1.(i), capn.(i)))
        ctx1;
      !ok)

(* {2 Bounded staleness} *)

let test_staleness_bounds () =
  let engine = Engine.create () in
  let server = Server.create engine ~capacity_bps:1e6 ~epoch_s:1. () in
  ignore (Server.lookup server ~path:"p");
  Engine.run ~until:0.5 engine;
  Server.report server ~path:"p" ~bytes:125_000 ~duration_s:0.5 ~min_rtt:0.01
    ~mean_rtt:0.05 ~retransmitted:0 ~segments:100;
  Engine.run ~until:1.2 engine;
  (* Within the staleness budget: served from the committed snapshot,
     which predates the report. *)
  let ctx, epoch = Server.lookup_epoch ~max_staleness:3 server ~path:"p" in
  Alcotest.(check int) "answered from epoch 0" 0 epoch;
  Alcotest.(check (float 0.)) "stale answer predates report" 0. ctx.Context.utilization;
  (* A fresh lookup sees the pending report and commits the epoch. *)
  let ctx, epoch = Server.lookup_epoch ~max_staleness:0 server ~path:"p" in
  Alcotest.(check int) "fresh answer at current epoch" 1 epoch;
  Alcotest.(check bool) "fresh answer sees report" true (ctx.Context.utilization > 0.);
  (* Staleness-tolerant lookups now ride the committed snapshot. *)
  let ctx, epoch = Server.lookup_epoch ~max_staleness:3 server ~path:"p" in
  Alcotest.(check int) "committed epoch" 1 epoch;
  Alcotest.(check bool) "committed answer has the report" true (ctx.Context.utilization > 0.);
  (* Beyond the budget the shard must recommit first. *)
  Engine.run ~until:10. engine;
  let _, epoch = Server.lookup_epoch ~max_staleness:3 server ~path:"p" in
  Alcotest.(check int) "stale snapshot refreshed" 10 epoch

(* {2 Decay and LRU eviction} *)

let test_eviction () =
  let engine = Engine.create () in
  let server =
    Server.create engine ~capacity_bps:1e9 ~epoch_s:1. ~shards:1 ~max_paths_per_shard:4
      ~ttl_epochs:2 ()
  in
  let names = [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ] in
  List.iter
    (fun path ->
      ignore (Server.lookup server ~path);
      Server.report server ~path ~bytes:1000 ~duration_s:0.5 ~min_rtt:0.01 ~mean_rtt:0.02
        ~retransmitted:0 ~segments:1)
    names;
  Engine.run ~until:1. engine;
  Server.flush server;
  (* Capacity eviction: 8 resident, budget 4 — the overflow goes. *)
  Alcotest.(check int) "trimmed to budget" 4 (Server.resident_paths server);
  Alcotest.(check int) "evictions counted" 4 (Server.eviction_count server);
  Alcotest.(check bool) "flushes counted" true (Server.flush_count server > 0);
  (* TTL decay: every path idles past the ttl. *)
  Engine.run ~until:10. engine;
  Server.flush server;
  Alcotest.(check int) "no path survives the ttl" 0 (Server.resident_paths server)

(* {2 Wire dispatch} *)

let test_handle_matches_direct_api () =
  let mk () =
    let engine = Engine.create () in
    (engine, Server.create engine ~capacity_bps:1e6 ~epoch_s:1. ~shards:4 ())
  in
  let engine_a, via_wire = mk () in
  let engine_b, direct = mk () in
  let drive engine server f =
    ignore (f server "p" `Lookup);
    Engine.run ~until:0.5 engine;
    ignore (f server "p" `Report);
    Engine.run ~until:1.5 engine;
    f server "p" `Lookup
  in
  let wire_step server path op =
    let req =
      match op with
      | `Lookup -> Wire.Lookup { path; max_staleness = 0 }
      | `Report ->
        Wire.Report
          {
            path;
            bytes = 62_500;
            duration_s = 0.5;
            min_rtt = 0.01;
            mean_rtt = 0.03;
            retransmitted = 1;
            segments = 50;
          }
    in
    (* Full trip: encode, decode, serve, encode the response, decode. *)
    match Wire.decode_request (Wire.request_to_string req) with
    | Error e -> Alcotest.fail e
    | Ok req -> (
      match Wire.decode_response (Wire.response_to_string (Server.handle server req)) with
      | Error e -> Alcotest.fail e
      | Ok (Wire.Context_of { ctx; _ }) -> Some ctx
      | Ok (Wire.Accepted _) -> None)
  in
  let direct_step server path op =
    match op with
    | `Lookup -> Some (Server.lookup server ~path)
    | `Report ->
      Server.report server ~path ~bytes:62_500 ~duration_s:0.5 ~min_rtt:0.01 ~mean_rtt:0.03
        ~retransmitted:1 ~segments:50;
      None
  in
  match (drive engine_a via_wire wire_step, drive engine_b direct direct_step) with
  | Some a, Some b ->
    Alcotest.(check bool) "wire dispatch serves the same context" true (context_equal a b);
    Alcotest.(check bool) "report moved utilization" true (a.Context.utilization > 0.)
  | _ -> Alcotest.fail "lookup did not answer with a context"

(* {2 Pinned replay without a configured capacity}

   Neither the swarm nor the benchmark exercises capacity learning:
   both configure a capacity.  This replay mixes staleness-0 and
   staleness-2 lookups with reports (some with the NaN "no RTT"
   sentinel) over five prefixes on two shards with a two-path budget,
   so it carries lookup-only batches across flushes, drops them past
   the ttl, and evicts by LRU and then by TTL.  Every answer and epoch
   is pinned in hex ([%h]), as recorded before the one-table shard. *)

let learned_replay_golden =
  [
    "0 pfx-0 e=0 u=0x0p+0 q=0x0p+0 n=0 l=0x0p+0";
    "1 pfx-2 e=0 u=0x0p+0 q=0x0p+0 n=0 l=0x0p+0";
    "3 pfx-1 e=0 u=0x0p+0 q=0x0p+0 n=0 l=0x0p+0";
    "4 pfx-3 e=2 u=0x0p+0 q=0x0p+0 n=0 l=0x0p+0";
    "6 pfx-2 e=3 u=0x0p+0 q=0x0p+0 n=1 l=0x0p+0";
    "7 pfx-4 e=3 u=0x1.aaaaaaaaaaaa9p-1 q=0x1.0624dd2f1a9fcp-8 n=0 l=0x1.745d1745d1746p-4";
    "9 pfx-3 e=4 u=0x0p+0 q=0x0p+0 n=0 l=0x0p+0";
    "10 pfx-0 e=6 u=0x1p+0 q=0x1.47ae147ae147bp-7 n=0 l=0x1.47ae147ae147bp-4";
    "12 pfx-4 e=7 u=0x0p+0 q=0x0p+0 n=0 l=0x0p+0";
    "13 pfx-1 e=7 u=0x1.3333333333333p-1 q=0x1.0624dd2f1a9fcp-8 n=0 l=0x1.2492492492492p-4";
    "15 pfx-0 e=7 u=0x0p+0 q=0x1.47ae147ae147bp-7 n=1 l=0x1.47ae147ae147bp-4";
    "16 pfx-2 e=9 u=0x1.b333333333332p-1 q=0x1.47ae147ae147bp-7 n=0 l=0x1.0842108421084p-4";
    "18 pfx-1 e=10 u=0x0p+0 q=0x1.0624dd2f1a9fcp-8 n=1 l=0x1.2492492492492p-4";
    "19 pfx-3 e=10 u=0x1p-1 q=0x0p+0 n=0 l=0x1.e1e1e1e1e1e1ep-5";
    "21 pfx-2 e=12 u=0x0p+0 q=0x1.47ae147ae147bp-7 n=1 l=0x1.0842108421084p-4";
    "22 pfx-4 e=13 u=0x0p+0 q=0x0p+0 n=0 l=0x0p+0";
    "24 pfx-3 e=14 u=0x0p+0 q=0x0p+0 n=1 l=0x1.e1e1e1e1e1e1ep-5";
    "25 pfx-0 e=13 u=0x1p+0 q=0x1.0624dd2f1a9fcp-8 n=0 l=0x1.999999999999ap-5";
    "27 pfx-4 e=15 u=0x0p+0 q=0x0p+0 n=0 l=0x0p+0";
    "28 pfx-1 e=16 u=0x1.333333333332cp-1 q=0x1.54c985f06f694p-8 n=1 l=0x1.1028d2ec7044p-4";
    "30 pfx-0 e=18 u=0x0p+0 q=0x1.0624dd2f1a9fcp-8 n=1 l=0x1.999999999999ap-5";
    "31 pfx-2 e=18 u=0x1.466666666666cp-1 q=0x1.205bc01a36e2fp-7 n=1 l=0x1.ee0c35238bab4p-5";
    "33 pfx-1 e=17 u=0x0p+0 q=0x1.54c985f06f694p-8 n=2 l=0x1.1028d2ec7044p-4";
    "34 pfx-3 e=20 u=0x1.5555555555555p-2 q=0x1.47ae147ae147bp-7 n=1 l=0x1.c4611d3217f8ap-5";
    "36 pfx-2 e=21 u=0x0p+0 q=0x1.205bc01a36e2fp-7 n=2 l=0x1.ee0c35238bab4p-5";
    "37 pfx-4 e=21 u=0x1.aaaaaaaaaaaafp-1 q=0x1.0624dd2f1a9fcp-8 n=0 l=0x1.3b13b13b13b14p-5";
    "39 pfx-3 e=22 u=0x0p+0 q=0x1.47ae147ae147bp-7 n=2 l=0x1.c4611d3217f8ap-5";
    "40 pfx-0 e=24 u=0x0p+0 q=0x0p+0 n=0 l=0x0p+0";
    "42 pfx-4 e=25 u=0x0p+0 q=0x1.0624dd2f1a9fcp-8 n=1 l=0x1.3b13b13b13b14p-5";
    "43 pfx-1 e=25 u=0x1.cccccccccccd1p-2 q=0x1.450efdc9c4da9p-8 n=2 l=0x1.ebf3a2b1085ebp-5";
    "45 pfx-0 e=25 u=0x0p+0 q=0x0p+0 n=0 l=0x0p+0";
    "46 pfx-2 e=27 u=0x1.b33333333332fp-2 q=0x1.2839042d8c2a5p-7 n=2 l=0x1.c0f4c84ecc102p-5";
    "resident=4 pending=0 evicted=5 flushes=31";
    "pfx-0 cap=none";
    "pfx-1 cap=0x1.d4bfffffffffep+18";
    "pfx-2 cap=0x1.d4bfffffffffep+18";
    "pfx-3 cap=0x1.5f9p+18";
    "pfx-4 cap=0x1.d4bfffffffffap+18";
    "idle resident=0 pending=0 evicted=9 flushes=31";
  ]

let test_learned_replay_pinned () =
  let engine = Engine.create () in
  let server =
    Server.create engine ~epoch_s:0.5 ~window_s:2. ~shards:2 ~max_paths_per_shard:2 ~ttl_epochs:3 ()
  in
  let lines = ref [] in
  let emit line = lines := line :: !lines in
  let counts prefix =
    emit
      (Printf.sprintf "%sresident=%d pending=%d evicted=%d flushes=%d" prefix
         (Server.resident_paths server) (Server.pending_paths server)
         (Server.eviction_count server) (Server.flush_count server))
  in
  for k = 0 to 47 do
    let path = Printf.sprintf "pfx-%d" (k * 7 mod 5) in
    Engine.run ~until:(0.3 *. float_of_int k) engine;
    if k mod 3 = 2 then begin
      let no_rtt = k mod 7 = 0 in
      Server.report server ~path
        ~bytes:(((k mod 4) + 1) * 30_000)
        ~duration_s:(0.2 *. float_of_int ((k mod 5) + 1))
        ~min_rtt:(if no_rtt then Float.nan else 0.01)
        ~mean_rtt:(if no_rtt then Float.nan else 0.01 +. (0.002 *. float_of_int (k mod 6)))
        ~retransmitted:(k mod 3) ~segments:(20 + k)
    end
    else begin
      let ctx, epoch =
        Server.lookup_epoch ~max_staleness:(if k mod 2 = 0 then 0 else 2) server ~path
      in
      emit
        (Printf.sprintf "%d %s e=%d u=%h q=%h n=%d l=%h" k path epoch ctx.Context.utilization
           ctx.Context.queue_delay_s ctx.Context.competing_senders ctx.Context.loss_rate)
    end
  done;
  Server.flush server;
  counts "";
  Array.iter
    (fun path ->
      emit
        (Printf.sprintf "%s cap=%s" path
           (match Server.learned_capacity_bps server ~path with
           | Some c -> Printf.sprintf "%h" c
           | None -> "none")))
    [| "pfx-0"; "pfx-1"; "pfx-2"; "pfx-3"; "pfx-4" |];
  Engine.run ~until:20. engine;
  Server.flush server;
  counts "idle ";
  Alcotest.(check (list string)) "replay" learned_replay_golden (List.rev !lines)

(* {2 Non-finite parameters}

   A NaN or infinite window, epoch or capacity used to pass the
   positivity guards and then answer a wrong utilization for every path
   (NaN, or 0 whatever the load). *)

let expect_rejected field make =
  List.iter
    (fun v ->
      let expected =
        Printf.sprintf "Context_server.create: %s must be positive and finite, got %g" field v
      in
      match make (Engine.create ()) v with
      | (_ : Server.t) -> Alcotest.failf "%s = %g accepted" field v
      | exception Invalid_argument msg -> Alcotest.(check string) "names field and value" expected msg)
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_create_rejects_nonfinite_window () =
  expect_rejected "window_s" (fun engine v -> Server.create engine ~capacity_bps:1e7 ~window_s:v ())

let test_create_rejects_nonfinite_epoch () =
  expect_rejected "epoch_s" (fun engine v -> Server.create engine ~capacity_bps:1e7 ~epoch_s:v ())

let test_create_rejects_nonfinite_capacity () =
  expect_rejected "capacity_bps" (fun engine v -> Server.create engine ~capacity_bps:v ())

let suite =
  [
    Alcotest.test_case "lookups never persist unknown prefixes" `Quick
      test_lookup_does_not_persist;
    QCheck_alcotest.to_alcotest prop_sharded_matches_reference;
    Alcotest.test_case "bounded staleness honours its budget" `Quick test_staleness_bounds;
    Alcotest.test_case "ttl + lru eviction" `Quick test_eviction;
    Alcotest.test_case "wire handle matches the direct api" `Quick
      test_handle_matches_direct_api;
    Alcotest.test_case "learned-capacity replay is pinned" `Quick test_learned_replay_pinned;
    Alcotest.test_case "create rejects a non-finite window" `Quick
      test_create_rejects_nonfinite_window;
    Alcotest.test_case "create rejects a non-finite epoch" `Quick
      test_create_rejects_nonfinite_epoch;
    Alcotest.test_case "create rejects a non-finite capacity" `Quick
      test_create_rejects_nonfinite_capacity;
  ]
