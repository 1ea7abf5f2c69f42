module J = Phi_util.Json

let schema = "phi-bench-report/11"

(* The allocation-regression budget: minor words allocated per packet
   through the saturated link loop (pool acquire -> enqueue -> tx ->
   deliver).  The pooled packet path allocates nothing per packet in
   steady state, so the measured value is ~0; the budget leaves room for
   measurement noise (a stray minor collection's bookkeeping) but fails
   the moment someone reintroduces a per-packet box — one record on the
   hot path costs >= 3 words and blows straight past it. *)
let max_minor_words_per_packet = 0.5

(* The end-to-end allocation budget: minor words allocated per data
   packet delivered on the paper dumbbell (8 persistent Cubic flows),
   sender, receiver, controller and set-up included.  The path reads
   about 9 to 10 words; what remains is the controller hooks' boxed
   float arguments and their window stores.  It read 23 to 25 before
   the transport and controller state was unboxed, so the budget trips
   when several float boxes come back onto the per-packet path. *)
let max_dumbbell_minor_words_per_packet = 12.

(* The same gate on the remy-phi WAN cell under link flaps (perfbench's
   [wan_remyphi_flap] composition): minor words per delivered
   bottleneck packet, whisker lookups, link dynamics and the context
   server's per-connection lookup and report included.  It reads about
   6; a float box is 2 words, so one more per packet on both directions'
   bottlenecks trips it. *)
let max_wan_minor_words_per_packet = 8.

(* The swarm-regression budgets.  The quick-budget swarm serves one
   million flows (two million wire messages); even a single-core
   sandboxed runner clears ~4x this floor, so tripping it means the
   context plane's service path got several times slower — a
   per-message mutation sneaking back in, a flush turning quadratic.
   The p99 bound is per-lookup service latency (measured ~4 us): the
   budget leaves ~500x for scheduler noise on shared runners while
   still catching any lookup that starts walking a table. *)
let min_swarm_lookups_per_s = 15_000.
let max_swarm_p99_lookup_s = 0.002

(* The decision-plane budgets.  The compiled whisker table runs ~150x
   the interpreted scan on the converged-size benchmark table (512
   whiskers); the committed floor of 10x catches the flat table
   degenerating back into a walk while leaving wide headroom for
   runner noise.  The per-lookup allocation budget is effectively
   zero: the branch-free search passes only ints and pointers, so a
   single boxed float sneaking into the lookup path (2 words) blows
   straight past it. *)
let min_decision_speedup = 10.
let max_minor_words_per_lookup = 0.01

(* The parallel-DES scaling floor: the 1000-sender parking lot must run
   at least twice as fast on four domains as on one.  Conservative
   windowing costs two barriers per 10 ms of virtual time — noise next
   to the millions of events per window — so a healthy partition scales
   near-linearly and 2x at 4 domains leaves room for one congested
   island dominating a window.  The floor is only enforceable where
   four domains can actually run in parallel, so it applies when the
   report's box has >= 4 cores and the section carries a >= 4-job run;
   the determinism gates (identical fingerprints and event counts
   across every width) apply everywhere, always. *)
let min_pdes_speedup_at_4 = 2.

type failure = { message : string }

exception Bad of failure

let bad fmt = Printf.ksprintf (fun message -> raise (Bad { message })) fmt

(* Field readers shared by every section; [where] names the object in
   error messages. *)
let number ~path ~where obj field =
  match J.member field obj with
  | Some (J.Float v) -> v
  | Some (J.Int v) -> float_of_int v
  | Some _ -> bad "%s: %s field \"%s\" must be a number" path where field
  | None -> bad "%s: %s section missing \"%s\"" path where field

let int_field ~path ~where obj field =
  match J.member field obj with
  | Some (J.Int v) -> v
  | Some _ -> bad "%s: %s field \"%s\" must be an integer" path where field
  | None -> bad "%s: %s section missing \"%s\"" path where field

let string_field ~path ~where obj field =
  match J.member field obj with
  | Some (J.String s) when String.length s > 0 -> s
  | Some _ | None -> bad "%s: %s missing a non-empty \"%s\" string" path where field

let obj ~path name = function
  | J.Obj _ as o -> o
  | _ -> bad "%s: \"%s\" must be an object" path name

(* Validates the schema and the top-level fields, and returns the ids
   of the experiments that ran — what decides which sections the report
   must carry. *)
let check_header ~path doc =
  if J.member "schema" doc <> Some (J.String schema) then
    bad "%s: missing or unknown \"schema\" field (expected %S)" path schema;
  List.iter
    (fun field ->
      match J.member field doc with
      | Some _ -> ()
      | None -> bad "%s: missing \"%s\" field" path field)
    [ "budget"; "jobs"; "cores"; "experiments"; "headline" ];
  match J.member "experiments" doc with
  | Some (J.List (_ :: _ as experiments)) ->
    List.map
      (fun e ->
        match J.member "id" e with
        | Some (J.String id) -> id
        | Some _ | None -> bad "%s: every experiment needs a string \"id\"" path)
      experiments
  | _ -> bad "%s: \"experiments\" must be a non-empty array" path

(* "micro": both metric families with positive rates — a zero or
   missing rate means the harness mis-ran. *)
let check_micro ~path micro =
  let micro = obj ~path "micro" micro in
  let positive_rate section field =
    if number ~path ~where:"micro" section field <= 0. then
      bad "%s: micro field \"%s\" must be a positive number" path field
  in
  List.iter
    (fun (family, fields) ->
      match J.member family micro with
      | Some (J.Obj _ as section) -> List.iter (positive_rate section) fields
      | Some _ | None -> bad "%s: micro section missing \"%s\" object" path family)
    [
      ("events", [ "new_events_per_s"; "port_events_per_s" ]);
      ("packets", [ "link_loop_packets_per_s"; "dumbbell_packets_per_s" ]);
    ]

(* "alloc": the per-packet figures are enforced against the committed
   budgets so an allocation regression on the packet path fails CI, not
   just a benchmark graph. *)
let check_alloc ~path alloc =
  let alloc = obj ~path "alloc" alloc in
  let number = number ~path ~where:"alloc" alloc in
  let per_packet = number "minor_words_per_packet" in
  let per_event = number "minor_words_per_event" in
  let dumbbell = number "dumbbell_minor_words_per_packet" in
  let wan = number "wan_minor_words_per_packet" in
  if per_packet < 0. || per_event < 0. || dumbbell < 0. || wan < 0. then
    bad "%s: alloc counters must be non-negative" path;
  if number "pool_high_water" < 1. then bad "%s: alloc \"pool_high_water\" must be >= 1" path;
  if per_packet > max_minor_words_per_packet then
    bad "%s: allocation regression: %.4f minor words/packet exceeds the budget of %g" path
      per_packet max_minor_words_per_packet;
  if dumbbell > max_dumbbell_minor_words_per_packet then
    bad
      "%s: allocation regression: %.4f minor words per dumbbell data packet exceeds the budget \
       of %g"
      path dumbbell max_dumbbell_minor_words_per_packet;
  if wan > max_wan_minor_words_per_packet then
    bad
      "%s: allocation regression: %.4f minor words per WAN bottleneck packet exceeds the budget \
       of %g"
      path wan max_wan_minor_words_per_packet

(* "swarm": the million-flow context-plane benchmark, gated against the
   committed service floors, so a throughput or tail-latency regression
   in the sharded server fails CI, not just a dashboard. *)
let check_swarm ~path swarm =
  let swarm = obj ~path "swarm" swarm in
  let number = number ~path ~where:"swarm" swarm in
  let int_field = int_field ~path ~where:"swarm" swarm in
  let flows = int_field "flows" in
  let lookups = int_field "lookups" in
  let reports = int_field "reports" in
  if flows < 1 then bad "%s: swarm must have served at least one flow" path;
  if lookups <> flows || reports <> flows then
    bad "%s: swarm flow accounting broken: %d flows, %d lookups, %d reports" path flows lookups
      reports;
  ignore (string_field ~path ~where:"swarm section" swarm "fingerprint");
  let jain = number "jain_index" in
  if jain <= 0. || jain > 1. then bad "%s: swarm \"jain_index\" must be in (0, 1]" path;
  (* The Zipf-skewed workload legitimately concentrates load (measured
     ~0.3 over 64 shards); total collapse onto one shard would read
     ~1/64, so the floor only catches a broken prefix hash. *)
  if jain < 0.05 then
    bad "%s: swarm shard balance collapsed: jain index %.4f (the prefix hash is broken)" path jain;
  let p50 = number "p50_lookup_s" in
  let p99 = number "p99_lookup_s" in
  if p50 < 0. || p99 < p50 then bad "%s: swarm lookup percentiles are inconsistent" path;
  let lookups_per_s = number "lookups_per_s" in
  if number "reports_per_s" <= 0. then bad "%s: swarm \"reports_per_s\" must be positive" path;
  if lookups_per_s < min_swarm_lookups_per_s then
    bad "%s: swarm regression: %.0f lookups/s is below the committed floor of %.0f" path
      lookups_per_s min_swarm_lookups_per_s;
  if p99 > max_swarm_p99_lookup_s then
    bad "%s: swarm regression: p99 lookup latency %.6fs exceeds the budget of %gs" path p99
      max_swarm_p99_lookup_s

(* "decision": the compiled decision plane (flat whisker tables and the
   64-entry policy array), gated against the committed speedup floor
   and the zero-allocation budget, so the hot lookup regressing to the
   interpreted scan — or starting to box — fails CI. *)
let check_decision ~path decision =
  let decision = obj ~path "decision" decision in
  let number = number ~path ~where:"decision" decision in
  List.iter
    (fun field ->
      if number field <= 0. then
        bad "%s: decision field \"%s\" must be a positive number" path field)
    [
      "whiskers";
      "cells";
      "interpreted_lookups_per_s";
      "compiled_lookups_per_s";
      "policy_interpreted_choices_per_s";
      "policy_compiled_choices_per_s";
    ];
  let speedup = number "speedup" in
  if speedup < min_decision_speedup then
    bad "%s: decision regression: compiled lookup is only %.1fx the interpreted scan (floor %g)"
      path speedup min_decision_speedup;
  let words = number "minor_words_per_lookup" in
  if words < 0. then bad "%s: decision \"minor_words_per_lookup\" must be non-negative" path;
  if words > max_minor_words_per_lookup then
    bad "%s: decision regression: %.4f minor words/lookup exceeds the budget of %g" path words
      max_minor_words_per_lookup

(* "pdes": the conservative-parallel-DES scaling curve over the
   1000-sender parking lot.  Determinism is gated unconditionally —
   every run of the curve must report the same fingerprint and event
   count, or the partitioned engine diverged from its jobs=1 golden
   reference.  The speedup floor is gated only where it is measurable:
   a box with >= 4 cores whose curve includes a >= 4-domain run. *)
let check_pdes ~path pdes =
  let pdes = obj ~path "pdes" pdes in
  if int_field ~path ~where:"pdes" pdes "islands" < 1 then
    bad "%s: pdes \"islands\" must be >= 1" path;
  if number ~path ~where:"pdes" pdes "window_s" <= 0. then
    bad "%s: pdes \"window_s\" must be positive" path;
  let cores = int_field ~path ~where:"pdes" pdes "cores" in
  if cores < 1 then bad "%s: pdes \"cores\" must be >= 1" path;
  let runs =
    match J.member "runs" pdes with
    | Some (J.List (_ :: _ as runs)) -> runs
    | Some _ | None -> bad "%s: pdes section needs a non-empty \"runs\" array" path
  in
  let parsed =
    List.map
      (fun run ->
        match run with
        | J.Obj _ ->
          let int_field = int_field ~path ~where:"pdes run" run in
          let number = number ~path ~where:"pdes run" run in
          let jobs = int_field "jobs" in
          if jobs < 1 then bad "%s: pdes run \"jobs\" must be >= 1" path;
          let wall_s = number "wall_s" in
          if wall_s <= 0. then bad "%s: pdes run \"wall_s\" must be positive" path;
          let events = int_field "events" in
          if events < 1 then bad "%s: pdes run \"events\" must be positive" path;
          if number "events_per_s" <= 0. then
            bad "%s: pdes run \"events_per_s\" must be positive" path;
          let fingerprint = string_field ~path ~where:"pdes run" run "fingerprint" in
          (jobs, wall_s, events, fingerprint)
        | _ -> bad "%s: pdes runs must be objects" path)
      runs
  in
  let _, ref_wall, ref_events, ref_fp =
    match List.find_opt (fun (jobs, _, _, _) -> jobs = 1) parsed with
    | Some r -> r
    | None -> List.hd parsed
  in
  List.iter
    (fun (jobs, _, events, fp) ->
      if fp <> ref_fp then
        bad "%s: pdes determinism broken: fingerprint diverges at jobs %d" path jobs;
      if events <> ref_events then
        bad "%s: pdes determinism broken: %d events at jobs %d vs %d at the reference" path
          events jobs ref_events)
    parsed;
  match List.find_opt (fun (jobs, _, _, _) -> jobs >= 4) parsed with
  | Some (jobs, wall, _, _) when cores >= 4 ->
    let speedup = ref_wall /. wall in
    if speedup < min_pdes_speedup_at_4 then
      bad "%s: pdes scaling regression: %.2fx at %d domains is below the floor of %gx" path
        speedup jobs min_pdes_speedup_at_4
  | _ -> ()

(* "cc_matrix" and "wan_matrix": the two sections of the one algorithm
   matrix share a layout — duration, seeds, jobs and one row per
   (algorithm, cell) — and its per-row sanity gates: a positive
   delivery rate, loss in [0, 1], Jain fairness in (0, 1], and a
   99th-percentile flow completion time within the cell's duration.
   Returns the algorithms the rows cover. *)
let check_matrix ~path ~section m =
  let m = obj ~path section m in
  let duration_s = number ~path ~where:section m "duration_s" in
  if duration_s <= 0. then bad "%s: %s \"duration_s\" must be positive" path section;
  let rows =
    match J.member "cells" m with
    | Some (J.List (_ :: _ as rows)) -> rows
    | Some _ | None -> bad "%s: %s section needs a non-empty \"cells\" array" path section
  in
  List.map
    (fun row ->
      match row with
      | J.Obj _ ->
        let name = string_field ~path ~where:(section ^ " cell") row in
        let algorithm = name "algorithm" in
        let where = Printf.sprintf "%s cell %s/%s" section algorithm (name "cell") in
        let number = number ~path ~where row in
        ignore (string_field ~path ~where row "aqm");
        (match J.member "connections" row with
        | Some (J.Int n) when n > 0 -> ()
        | Some _ | None -> bad "%s: %s missing positive \"connections\"" path where);
        if number "throughput_bps" <= 0. then
          bad "%s: %s \"throughput_bps\" must be positive" path where;
        let loss = number "loss_rate" in
        if loss < 0. || loss > 1. then bad "%s: %s \"loss_rate\" must be in [0, 1]" path where;
        if number "power" < 0. then bad "%s: %s \"power\" must be non-negative" path where;
        let jain = number "jain" in
        if jain <= 0. || jain > 1. +. 1e-9 then bad "%s: %s \"jain\" must be in (0, 1]" path where;
        let p99 = number "p99_fct_s" in
        (* Flow completion times are measured inside the run, so the
           p99 can never exceed the cell duration; 0 would mean no
           connection completed, which the connections gate above
           already excludes. *)
        if p99 <= 0. || p99 > duration_s then
          bad "%s: %s \"p99_fct_s\" %.4f outside (0, %g]" path where p99 duration_s;
        algorithm
      | _ -> bad "%s: %s cells must be objects" path section)
    rows

(* "cc_matrix" (the registry over the paper dumbbell loads) must cover
   every algorithm registered in the unified control plane, so a
   registry addition that never reaches the harness fails CI here. *)
let check_cc_matrix ~path m =
  let covered = check_matrix ~path ~section:"cc_matrix" m in
  List.iter
    (fun name ->
      if not (List.mem name covered) then
        bad "%s: cc_matrix does not cover registered algorithm %S" path name)
    Phi.Cc_algo.names

(* "wan_matrix" (topology zoo x adversarial dynamics) carries a serial
   determinism probe that must match its pool-fanned counterpart, so a
   jobs-dependent cell (worker state leaking between runs, rng draw
   order depending on the fan-out) fails CI instead of silently
   drifting the dashboards. *)
let check_wan_matrix ~path m =
  ignore (check_matrix ~path ~section:"wan_matrix" m);
  match J.member "determinism" m with
  | Some (J.Obj _ as probe) ->
    let field = string_field ~path ~where:"wan_matrix determinism" probe in
    let cell = field "cell" in
    if field "parallel" <> field "serial" then
      bad "%s: wan_matrix determinism broken: cell %s diverges from its serial replay" path cell
  | Some _ | None -> bad "%s: wan_matrix section missing a \"determinism\" probe" path

(* The one table: every report section, the experiment that emits it,
   and its validator.  A listed experiment must carry its sections and a
   section must come from a listed experiment, so a partial run
   ([--only swarm]) is as checkable as a full one. *)
let sections =
  [
    ("micro", "micro", check_micro);
    ("alloc", "micro", check_alloc);
    ("decision", "micro", check_decision);
    ("cc_matrix", "matrix", check_cc_matrix);
    ("swarm", "swarm", check_swarm);
    ("pdes", "pdes", check_pdes);
    ("wan_matrix", "wan_matrix", check_wan_matrix);
  ]

let check ~path doc =
  match
    let ran = check_header ~path doc in
    List.iter
      (fun (section, experiment, validate) ->
        match (J.member section doc, List.mem experiment ran) with
        | Some json, true -> validate ~path json
        | None, false -> ()
        | None, true ->
          bad "%s: experiment %S requires a \"%s\" section" path experiment section
        | Some _, false ->
          bad "%s: \"%s\" section without its %S experiment" path section experiment)
      sections
  with
  | () -> Ok ()
  | exception Bad { message } -> Error message
