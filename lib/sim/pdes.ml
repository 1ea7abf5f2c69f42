(* Conservative parallel discrete-event simulation.

   A topology is partitioned into islands — disjoint sub-simulations,
   each with its own {!Engine} (and, one layer up, its own packet pool)
   — connected only by latency links.  A cross-island link's
   propagation delay is *lookahead*: an event executed on the source
   island at time [t] can influence the destination island no earlier
   than [t + delay].  That bound makes a window/barrier scheme safe:
   pick a window [W <= min lookahead over every boundary], let every
   island execute all events with [time <= (k+1) * W] in parallel,
   exchange the cross-island traffic produced, barrier, and repeat.
   Anything an island handed off during window [k] arrives strictly
   after window [k+1] begins, so no island ever receives an event in
   its past — the classic conservative (Chandy–Misra–Bryant) argument
   with the null messages replaced by a shared window.

   Determinism is the contract the rest of the repo holds us to
   (`--jobs 1` golden replays): each island's event sequence must not
   depend on the number of worker domains.  Two properties deliver it:

   - Within a window, islands share no mutable state at all — handoffs
     are appended to outboxes (see [Phi_net.Boundary_link]) that the
     consumer only reads *between* windows.  Nor do they share a cache
     line: a partitioned topology builds its islands one after another,
     so the islands' equal-sized blocks end up side by side in the
     major heap, and a block that a window writes on every event keeps
     at least 64 bytes between its live words and its neighbours.  The
     engine pads its clock and scratch slots and keeps its per-event
     counters mid-record, the packet pool pads its record, and a
     boundary link keeps its two writers' counters at opposite ends of
     its record.  Without the padding two domains write the same lines
     on every event, and a 2-domain run is no faster than one domain.

   - Between windows, every island (a) publishes its horizon, (b) waits
     at a barrier until all horizons reach the window end, (c) drains
     its inbound outboxes in registration order, and (d) barriers again
     before anyone starts the next window.  All engine scheduling
     therefore happens either inside the island's own window execution
     or in the fixed-order drain phase, so the engine's FIFO tie-break
     sequence numbers come out identical whether the phases of
     different islands run on one domain or eight.

   The barrier blocks on a [Mutex]/[Condition] pair rather than
   spinning: benchmarks run with more workers than cores (CI boxes are
   routinely 1–2 cores), and a spinning waiter would starve the very
   island it is waiting for. *)

type island = {
  index : int;
  engine : Engine.t;
  (* Inbound boundary drains, kept in registration order — the order is
     part of the determinism contract (drains schedule deliveries, and
     engine tie-breaks follow scheduling order). *)
  mutable drains_rev : (unit -> unit) list;
  (* Published after the island finishes executing a window; boundary
     drains read their peer's horizon to assert the conservative bound.
     An [Atomic] both publishes the store to other domains and makes
     the happens-before explicit. *)
  horizon : float Atomic.t;
}

type t = {
  mutable islands_rev : island list;
  mutable n_islands : int;
  (* Minimum lookahead over every registered boundary; [infinity] until
     the first boundary registers (an unpartitioned topology runs in
     one window). *)
  mutable min_lookahead : float;
  (* Window barrier (generation-counted so it is reusable). *)
  mu : Mutex.t;
  cond : Condition.t;
  mutable arrived : int;
  mutable barrier_gen : int;
  (* First failure raised inside any worker; the run re-raises it after
     the domains join.  Once set, the remaining windows become no-ops
     (every worker still visits every barrier, so nobody deadlocks). *)
  failure : exn option Atomic.t;
}

let create () =
  {
    islands_rev = [];
    n_islands = 0;
    min_lookahead = infinity;
    mu = Mutex.create ();
    cond = Condition.create ();
    arrived = 0;
    barrier_gen = 0;
    failure = Atomic.make None;
  }

let add_island t =
  let island =
    {
      index = t.n_islands;
      engine = Engine.create ();
      drains_rev = [];
      horizon = Atomic.make 0.;
    }
  in
  t.islands_rev <- island :: t.islands_rev;
  t.n_islands <- t.n_islands + 1;
  island

let engine island = island.engine
let index island = island.index
let islands t = t.n_islands
let on_drain island f = island.drains_rev <- f :: island.drains_rev

let note_lookahead t lookahead_s =
  if not (Float.is_finite lookahead_s) || lookahead_s <= 0. then
    invalid_arg "Pdes.note_lookahead: lookahead must be positive and finite";
  if lookahead_s < t.min_lookahead then t.min_lookahead <- lookahead_s

let lookahead_s t = t.min_lookahead
let horizon_s island = Atomic.get island.horizon

let barrier t ~parties =
  if parties > 1 then begin
    Mutex.lock t.mu;
    t.arrived <- t.arrived + 1;
    if t.arrived = parties then begin
      t.arrived <- 0;
      t.barrier_gen <- t.barrier_gen + 1;
      Condition.broadcast t.cond
    end
    else begin
      let gen = t.barrier_gen in
      while t.barrier_gen = gen do
        Condition.wait t.cond t.mu
      done
    end;
    Mutex.unlock t.mu
  end

let record_failure t e = ignore (Atomic.compare_and_set t.failure None (Some e))

(* One worker's share of a window: execute every owned island up to the
   window end and publish the horizons, barrier, drain every owned
   island's inbound outboxes, barrier.  Ownership is by index stride so
   the assignment is a pure function of (island, jobs) — results do not
   depend on it, only load balance does. *)
let exec_window t isls ~who ~jobs ~parties ~w_end =
  Array.iter
    (fun isl ->
      if isl.index mod jobs = who then begin
        (if Atomic.get t.failure = None then
           try Engine.run ~until:w_end isl.engine with e -> record_failure t e);
        Atomic.set isl.horizon w_end
      end)
    isls;
  barrier t ~parties;
  Array.iter
    (fun isl ->
      if isl.index mod jobs = who then
        if Atomic.get t.failure = None then (
          try List.iter (fun f -> f ()) (List.rev isl.drains_rev)
          with e -> record_failure t e))
    isls;
  barrier t ~parties

let run ?jobs ?window_s ~until t =
  let isls = Array.of_list (List.rev t.islands_rev) in
  let n = Array.length isls in
  if n = 0 then invalid_arg "Pdes.run: no islands";
  if not (Float.is_finite until) || until < 0. then
    invalid_arg "Pdes.run: until must be non-negative and finite";
  let window =
    match window_s with
    | Some w ->
      if not (Float.is_finite w) || w <= 0. then
        invalid_arg "Pdes.run: window must be positive and finite";
      if w > t.min_lookahead then
        invalid_arg "Pdes.run: window exceeds the minimum boundary lookahead";
      w
    | None -> if Float.is_finite t.min_lookahead then t.min_lookahead else until
  in
  let window = if window > 0. then window else until in
  let n_windows =
    if window <= 0. then 1
    else Int.max 1 (int_of_float (Float.ceil (until /. window)))
  in
  let jobs =
    let requested = match jobs with Some j -> j | None -> n in
    if requested < 1 then invalid_arg "Pdes.run: jobs must be >= 1";
    (* Across domains the invariant sanitizer would keep violations in
       scheduling order; armed runs stay serial so reports replay. *)
    if Invariant.enabled () then 1 else Int.min requested n
  in
  Atomic.set t.failure None;
  let parties = jobs in
  let worker who () =
    for k = 0 to n_windows - 1 do
      (* Every worker computes the same [w_end] from [k] alone, so all
         horizons agree bit-for-bit whatever the domain count. *)
      let w_end = Float.min until (window *. float_of_int (k + 1)) in
      exec_window t isls ~who ~jobs ~parties ~w_end
    done
  in
  if jobs = 1 then worker 0 ()
  else begin
    let spawned = List.init (jobs - 1) (fun i -> Domain.spawn (worker (i + 1))) in
    worker 0 ();
    List.iter Domain.join spawned
  end;
  match Atomic.get t.failure with Some e -> raise e | None -> ()
