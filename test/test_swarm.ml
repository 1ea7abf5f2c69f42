(* The swarm benchmark harness, on a reduced fleet: completion,
   structural sanity of the metrics, and the jobs-invariance of the
   deterministic fingerprint. *)

module Swarm = Phi_experiments.Swarm

let small =
  { Swarm.default_config with Swarm.n_flows = 20_000; Swarm.cells = 4; Swarm.shards_per_cell = 4 }

let test_swarm_completes () =
  let r = Swarm.run ~jobs:1 ~config:small () in
  Alcotest.(check int) "flows" 20_000 r.Swarm.flows;
  Alcotest.(check int) "one lookup per flow" 20_000 r.Swarm.lookups;
  Alcotest.(check int) "one report per flow" 20_000 r.Swarm.reports;
  Alcotest.(check bool) "jain in (0, 1]" true
    (r.Swarm.jain_index > 0. && r.Swarm.jain_index <= 1.);
  Alcotest.(check bool) "hash spreads load" true (r.Swarm.jain_index > 0.2);
  Alcotest.(check bool) "paths resident" true (r.Swarm.resident_paths > 0);
  Alcotest.(check bool) "epochs flushed" true (r.Swarm.flushes > 0);
  Alcotest.(check bool) "rates positive" true
    (r.Swarm.lookups_per_s > 0. && r.Swarm.reports_per_s > 0.);
  Alcotest.(check bool) "p99 at least p50" true (r.Swarm.p99_lookup_s >= r.Swarm.p50_lookup_s);
  Alcotest.(check bool) "latencies non-negative" true (r.Swarm.p50_lookup_s >= 0.)

(* The fingerprint (counts, response checksum, residency, balance) must
   not depend on the domain fan-out; only the timing half may. *)
let test_swarm_fingerprint_jobs_invariant () =
  let serial = Swarm.run ~jobs:1 ~config:small () in
  let parallel = Swarm.run ~jobs:4 ~config:small () in
  Alcotest.(check string) "serial and parallel fingerprints identical" serial.Swarm.fingerprint
    parallel.Swarm.fingerprint

let test_swarm_seed_changes_fingerprint () =
  let a = Swarm.run ~jobs:2 ~config:small () in
  let b = Swarm.run ~jobs:2 ~config:{ small with Swarm.seed = small.Swarm.seed + 1 } () in
  Alcotest.(check bool) "different workload, different fingerprint" true
    (not (String.equal a.Swarm.fingerprint b.Swarm.fingerprint))

(* {2 Pinned fingerprints}

   The response checksum, residency and evictions of the reduced fleet,
   recorded before the context server moved to one table per shard.
   [small] never evicts; the eviction-heavy variant (a 4-epoch ttl and
   32 paths per shard) runs the LRU sort, drops expired lookup-only
   batches and carries open ones across flushes. *)

let reduced_fingerprint config =
  let r = Swarm.run ~jobs:1 ~config () in
  ( Printf.sprintf "checksum=%08x resident=%d evicted=%d" r.Swarm.checksum r.Swarm.resident_paths
      r.Swarm.evictions,
    r.Swarm.evictions )

let test_swarm_fingerprint_pinned () =
  let fp, _ = reduced_fingerprint small in
  Alcotest.(check string) "small" "checksum=be317d97 resident=3350 evicted=0" fp

let test_swarm_eviction_fingerprint_pinned () =
  let fp, evictions =
    reduced_fingerprint { small with Swarm.ttl_epochs = 4; Swarm.max_paths_per_shard = 32 }
  in
  Alcotest.(check bool) "evicts" true (evictions > 0);
  Alcotest.(check string) "eviction-heavy" "checksum=fee97133 resident=144 evicted=5423" fp

let suite =
  [
    Alcotest.test_case "swarm completes and reports sane metrics" `Quick test_swarm_completes;
    Alcotest.test_case "fingerprint is jobs-invariant" `Quick
      test_swarm_fingerprint_jobs_invariant;
    Alcotest.test_case "fingerprint tracks the workload" `Quick
      test_swarm_seed_changes_fingerprint;
    Alcotest.test_case "reduced fingerprint is pinned" `Quick test_swarm_fingerprint_pinned;
    Alcotest.test_case "eviction-heavy fingerprint is pinned" `Quick
      test_swarm_eviction_fingerprint_pinned;
  ]
