(* Tests for phi_sim: the ring buffer and the discrete-event engine
   with its recycled event cells. *)

module Ring = Phi_sim.Ring
module Engine = Phi_sim.Engine
module Invariant = Phi_sim.Invariant

(* Strict-mode raise behavior only holds while the sanitizer is
   disarmed; with PHI_SANITIZE=1 anomalies are recorded instead. *)
let with_sanitizer_disarmed f =
  let prev = Invariant.enabled () in
  Invariant.set_enabled false;
  Fun.protect ~finally:(fun () -> Invariant.set_enabled prev) f

(* {2 Ring} *)

let test_ring_fifo () =
  let r = Ring.create () in
  Alcotest.(check bool) "starts empty" true (Ring.is_empty r);
  List.iter (Ring.push r) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "length" 5 (Ring.length r);
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.init 5 (fun _ -> Ring.pop r));
  Alcotest.(check bool) "drained" true (Ring.is_empty r)

(* Interleaved pushes and pops walk head and tail around the backing
   array across several in-place growth cycles; FIFO order must survive
   every wrap. *)
let test_ring_wraparound () =
  let r = Ring.create () in
  let next_in = ref 0 in
  let next_out = ref 0 in
  for _ = 1 to 300 do
    for _ = 1 to 3 do
      Ring.push r !next_in;
      incr next_in
    done;
    Alcotest.(check int) "fifo through wrap" !next_out (Ring.pop r);
    incr next_out
  done;
  while not (Ring.is_empty r) do
    Alcotest.(check int) "drain in order" !next_out (Ring.pop r);
    incr next_out
  done;
  Alcotest.(check int) "every element seen once" !next_in !next_out

let test_ring_peek_fold_clear () =
  let r = Ring.create () in
  List.iter (Ring.push r) [ 1; 2; 3 ];
  Alcotest.(check int) "peek" 1 (Ring.peek r);
  Alcotest.(check int) "peek is non-destructive" 1 (Ring.peek r);
  Alcotest.(check int) "length after peeks" 3 (Ring.length r);
  Alcotest.(check int) "fold sum" 6 (Ring.fold ( + ) 0 r);
  let seen = ref [] in
  Ring.iter (fun v -> seen := v :: !seen) r;
  Alcotest.(check (list int)) "iter head-to-tail" [ 1; 2; 3 ] (List.rev !seen);
  Ring.clear r;
  Alcotest.(check bool) "cleared" true (Ring.is_empty r);
  Alcotest.(check bool) "peek_opt none" true (Ring.peek_opt r = None);
  Alcotest.(check bool) "pop_opt none" true (Ring.pop_opt r = None)

let test_ring_empty_pop_raises () =
  let r : Ring.t = Ring.create () in
  let raises f = try ignore (f r); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "pop raises" true (raises Ring.pop);
  Alcotest.(check bool) "peek raises" true (raises Ring.peek)

(* {2 Engine} *)

let test_engine_runs_in_time_order () =
  let engine = Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Engine.schedule_at engine ~time:3. (note "c"));
  ignore (Engine.schedule_at engine ~time:1. (note "a"));
  ignore (Engine.schedule_at engine ~time:2. (note "b"));
  Engine.run engine;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 0.)) "clock at last event" 3. (Engine.now engine)

let test_engine_same_time_fifo () =
  let engine = Engine.create () in
  let log = ref [] in
  for i = 0 to 4 do
    ignore (Engine.schedule_at engine ~time:1. (fun () -> log := i :: !log))
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "fifo at equal times" [ 0; 1; 2; 3; 4 ] (List.rev !log)

let test_engine_rejects_past () =
  let engine = Engine.create () in
  ignore (Engine.schedule_at engine ~time:5. (fun () -> ()));
  Engine.run engine;
  Alcotest.(check bool) "clock advanced" true (Float.equal (Engine.now engine) 5.);
  let raised =
    with_sanitizer_disarmed (fun () ->
        try
          ignore (Engine.schedule_at engine ~time:1. (fun () -> ()));
          false
        with Invalid_argument _ -> true)
  in
  Alcotest.(check bool) "past rejected" true raised

let test_engine_schedule_after () =
  let engine = Engine.create () in
  let fired_at = ref (-1.) in
  ignore
    (Engine.schedule_after engine ~delay:2. (fun () ->
         fired_at := Engine.now engine;
         ignore (Engine.schedule_after engine ~delay:3. (fun () -> ()))));
  Engine.run engine;
  Alcotest.(check (float 0.)) "fired at 2" 2. !fired_at;
  Alcotest.(check (float 0.)) "chained until 5" 5. (Engine.now engine)

let test_engine_cancellation () =
  let engine = Engine.create () in
  let fired = ref false in
  let handle = Engine.schedule_at engine ~time:1. (fun () -> fired := true) in
  Alcotest.(check bool) "not yet cancelled" false (Engine.cancelled engine handle);
  Engine.cancel engine handle;
  Alcotest.(check bool) "cancelled" true (Engine.cancelled engine handle);
  Engine.run engine;
  Alcotest.(check bool) "did not fire" false !fired

let test_engine_cancel_twice_is_noop () =
  let engine = Engine.create () in
  let handle = Engine.schedule_at engine ~time:1. (fun () -> ()) in
  Engine.cancel engine handle;
  Engine.cancel engine handle;
  Engine.run engine

(* A fired event's cell is recycled for the next schedule; the handle of
   the fired event must read as stale and cancelling it must not touch
   the new occupant of the cell. *)
let test_engine_cell_recycling_generation_safety () =
  let engine = Engine.create () in
  let first = ref false in
  let second = ref false in
  let h1 = Engine.schedule_at engine ~time:1. (fun () -> first := true) in
  Engine.run engine;
  Alcotest.(check bool) "first fired" true !first;
  Alcotest.(check bool) "fired handle is stale" true (Engine.cancelled engine h1);
  (* The slab hands low indices out first, so h2 reuses h1's cell. *)
  let h2 = Engine.schedule_at engine ~time:2. (fun () -> second := true) in
  Engine.cancel engine h1;
  Alcotest.(check bool) "new occupant unaffected" false (Engine.cancelled engine h2);
  Engine.run engine;
  Alcotest.(check bool) "second fired" true !second

(* Cancelling recycles the cell immediately; the stale entry still in
   the heap must be skipped when its time comes, without disturbing the
   event that reused the cell. *)
let test_engine_cancel_then_recycle_stale_heap_entry () =
  let engine = Engine.create () in
  let cancelled_fired = ref false in
  let reused_fired = ref false in
  let h1 = Engine.schedule_at engine ~time:1. (fun () -> cancelled_fired := true) in
  Engine.cancel engine h1;
  ignore (Engine.schedule_at engine ~time:1. (fun () -> reused_fired := true));
  Engine.run engine;
  Alcotest.(check bool) "cancelled event silent" false !cancelled_fired;
  Alcotest.(check bool) "recycled cell's event fired" true !reused_fired;
  Alcotest.(check (float 0.)) "clock advanced" 1. (Engine.now engine)

(* The cell is consumed before the action runs, so a handler cancelling
   its own handle is a generation-checked no-op. *)
let test_engine_cancel_self_inside_handler () =
  let engine = Engine.create () in
  let fired = ref false in
  let self = ref None in
  let h =
    Engine.schedule_at engine ~time:1. (fun () ->
        (match !self with Some h -> Engine.cancel engine h | None -> ());
        fired := true)
  in
  self := Some h;
  Engine.run engine;
  Alcotest.(check bool) "fired despite self-cancel" true !fired

let test_engine_cancel_other_inside_handler () =
  let engine = Engine.create () in
  let victim_fired = ref false in
  let h2 = Engine.schedule_at engine ~time:2. (fun () -> victim_fired := true) in
  ignore (Engine.schedule_at engine ~time:1. (fun () -> Engine.cancel engine h2));
  Engine.run engine;
  Alcotest.(check bool) "victim cancelled from handler" false !victim_fired

(* Ports: registered once, scheduled by reference, including a port that
   reschedules itself — the link transmit loop's shape. *)
let test_engine_ports () =
  let engine = Engine.create () in
  let count = ref 0 in
  let p = ref Engine.null_port in
  p :=
    Engine.port engine (fun _ ->
        incr count;
        if !count < 5 then Engine.schedule_port_after engine ~delay:1. !p 0);
  Engine.schedule_port_at engine ~time:1. !p 0;
  Engine.run engine;
  Alcotest.(check int) "self-rescheduling port fired 5 times" 5 !count;
  Alcotest.(check (float 0.)) "clock at last firing" 5. (Engine.now engine)

(* Heavy churn through the slab: a long self-rescheduling chain plus
   cancelled bystanders must leave the engine fully drained. *)
let test_engine_slab_churn () =
  let engine = Engine.create () in
  let count = ref 0 in
  let rec chain () =
    incr count;
    if !count < 1000 then begin
      ignore (Engine.schedule_after engine ~delay:1. chain);
      let doomed = Engine.schedule_after engine ~delay:0.5 (fun () -> Alcotest.fail "doomed") in
      Engine.cancel engine doomed
    end
  in
  ignore (Engine.schedule_after engine ~delay:1. chain);
  Engine.run engine;
  Alcotest.(check int) "chain completed" 1000 !count;
  Alcotest.(check int) "queue drained" 0 (Engine.pending engine)

let test_engine_until_horizon () =
  let engine = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun t -> ignore (Engine.schedule_at engine ~time:t (fun () -> fired := t :: !fired)))
    [ 1.; 2.; 3.; 10. ];
  Engine.run ~until:5. engine;
  Alcotest.(check (list (float 0.))) "events before horizon" [ 1.; 2.; 3. ] (List.rev !fired);
  Alcotest.(check (float 0.)) "clock at horizon" 5. (Engine.now engine);
  Alcotest.(check int) "pending event survives" 1 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check (float 0.)) "resumes past horizon" 10. (Engine.now engine)

(* [next > nan] is false, so a NaN horizon would never stop a source
   that keeps rescheduling itself.  It is rejected before anything
   runs. *)
let test_engine_rejects_nan_horizon () =
  let engine = Engine.create () in
  List.iter (fun t -> ignore (Engine.schedule_at engine ~time:t ignore)) [ 1.; 2.; 3. ];
  Alcotest.check_raises "nan horizon" (Invalid_argument "Engine.run: until must be finite")
    (fun () -> Engine.run ~until:Float.nan engine);
  Alcotest.(check int) "nothing ran" 0 (Engine.executed engine);
  Engine.run ~until:2.5 engine;
  Alcotest.(check int) "a finite horizon still runs" 2 (Engine.executed engine)

(* An infinite horizon would never return under a self-rescheduling
   source, or would set the clock to infinity once the queue drained. *)
let test_engine_rejects_infinite_horizon () =
  let engine = Engine.create () in
  ignore (Engine.schedule_at engine ~time:1. ignore);
  List.iter
    (fun limit ->
      Alcotest.check_raises (Printf.sprintf "%g horizon" limit)
        (Invalid_argument "Engine.run: until must be finite") (fun () ->
          Engine.run ~until:limit engine))
    [ Float.infinity; Float.neg_infinity ];
  Alcotest.(check int) "nothing ran" 0 (Engine.executed engine);
  Engine.run engine;
  Alcotest.(check (float 0.)) "clock at the last event" 1. (Engine.now engine)

let test_engine_step () =
  let engine = Engine.create () in
  ignore (Engine.schedule_at engine ~time:1. (fun () -> ()));
  Alcotest.(check bool) "step true" true (Engine.step engine);
  Alcotest.(check bool) "step false when empty" false (Engine.step engine)

let test_engine_negative_delay_rejected () =
  let engine = Engine.create () in
  let raised =
    with_sanitizer_disarmed (fun () ->
        try
          ignore (Engine.schedule_after engine ~delay:(-1.) (fun () -> ()));
          false
        with Invalid_argument _ -> true)
  in
  Alcotest.(check bool) "negative delay rejected" true raised

(* [delay < 0.] is false for NaN and infinity: a NaN delay fired at
   virtual time NaN, and an infinite one (or a NaN port delay) left the
   clock non-finite once the queue drained. *)
let test_engine_non_finite_delay_rejected () =
  with_sanitizer_disarmed (fun () ->
      let engine = Engine.create () in
      let port = Engine.port engine ignore in
      List.iter
        (fun delay ->
          let raises what f =
            Alcotest.check_raises
              (Printf.sprintf "%s %g" what delay)
              (Invalid_argument (Printf.sprintf "Engine.schedule_after: non-finite delay %g" delay))
              f
          in
          raises "schedule_after" (fun () -> ignore (Engine.schedule_after engine ~delay ignore));
          raises "schedule_port_after" (fun () -> Engine.schedule_port_after engine ~delay port 0);
          raises "rearm_after" (fun () ->
              ignore (Engine.rearm_after engine Engine.null ~delay ignore)))
        [ Float.nan; Float.infinity; Float.neg_infinity ];
      Engine.run engine;
      Alcotest.(check int) "nothing was queued" 0 (Engine.executed engine);
      Alcotest.(check (float 0.)) "clock untouched" 0. (Engine.now engine))

(* Only a firing moves the clock: popping a cancelled entry must not. *)
let test_engine_cancelled_entry_keeps_clock () =
  let engine = Engine.create () in
  ignore (Engine.schedule_at engine ~time:1. (fun () -> ()));
  Engine.cancel engine (Engine.schedule_at engine ~time:5. (fun () -> ()));
  Engine.run engine;
  Alcotest.(check (float 0.)) "clock at the last firing" 1. (Engine.now engine);
  Alcotest.(check int) "one event executed" 1 (Engine.executed engine)

(* A timer re-armed later in place keeps its heap entry; when that entry
   reaches the root it is re-seated without firing or moving the clock,
   and the event fires at the re-armed time. *)
let test_engine_rearm_in_place () =
  let engine = Engine.create () in
  let fired_at = ref [] in
  let note () = fired_at := Engine.now engine :: !fired_at in
  let h = Engine.schedule_at engine ~time:1. note in
  let h' = Engine.rearm_after engine h ~delay:5. note in
  Alcotest.(check bool) "old handle stale" true (Engine.cancelled engine h);
  Alcotest.(check bool) "new handle live" false (Engine.cancelled engine h');
  Engine.cancel engine h;
  Alcotest.(check bool) "cancelling the old handle is a no-op" false
    (Engine.cancelled engine h');
  Alcotest.(check int) "one heap entry" 1 (Engine.pending engine);
  Alcotest.(check bool) "step re-seats" true (Engine.step engine);
  Alcotest.(check (float 0.)) "clock unmoved by the re-seat" 0. (Engine.now engine);
  Alcotest.(check int) "nothing executed yet" 0 (Engine.executed engine);
  Engine.run ~until:3. engine;
  Alcotest.(check (list (float 0.))) "not fired before its time" [] !fired_at;
  Engine.run engine;
  Alcotest.(check (list (float 0.))) "fired once at the re-armed time" [ 5. ] !fired_at;
  Alcotest.(check bool) "fired handle stale" true (Engine.cancelled engine h')

(* In place or not, a re-arm returns the handle [cancel] +
   [schedule_after] would, on a twin engine given the same calls. *)
let test_engine_rearm_handle_matches_cancel_schedule () =
  let a = Engine.create () and b = Engine.create () in
  let ha = ref (Engine.schedule_at a ~time:2. ignore) in
  let hb = ref (Engine.schedule_at b ~time:2. ignore) in
  List.iter
    (fun delay ->
      ha := Engine.rearm_after a !ha ~delay ignore;
      Engine.cancel b !hb;
      hb := Engine.schedule_after b ~delay ignore;
      Alcotest.(check bool) (Printf.sprintf "same handle after re-arm to +%g" delay) true
        (!ha = !hb))
    [ 3.; 4.; 1.; 1.; 6. ];
  Engine.run a;
  Engine.run b;
  Alcotest.(check (float 0.)) "same clock" (Engine.now b) (Engine.now a);
  Alcotest.(check int) "same executed" (Engine.executed b) (Engine.executed a)

(* A port's events fire in scheduling order while only the earliest sits
   in the heap, interleaved by (time, seq) with another port and with
   closure events. *)
let test_engine_port_fifo () =
  let engine = Engine.create () in
  let log = ref [] in
  let note tag () = log := (tag, Engine.now engine) :: !log in
  let a = Engine.port engine (fun _ -> note "a" ())
  and b = Engine.port engine (fun _ -> note "b" ()) in
  List.iter (fun time -> Engine.schedule_port_at engine ~time a 0) [ 1.; 1.; 2.; 4. ];
  List.iter (fun time -> Engine.schedule_port_at engine ~time b 0) [ 1.; 3. ];
  ignore (Engine.schedule_at engine ~time:2. (note "c"));
  Alcotest.(check int) "one heap entry per port plus the cell" 3 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check (list (pair string (float 0.))))
    "(time, seq) order"
    [ ("a", 1.); ("a", 1.); ("b", 1.); ("a", 2.); ("c", 2.); ("b", 3.); ("a", 4.) ]
    (List.rev !log);
  Alcotest.(check int) "all executed" 7 (Engine.executed engine)

let test_engine_port_out_of_order_raises () =
  let engine = Engine.create () in
  let p = Engine.port engine ignore in
  Engine.schedule_port_at engine ~time:2. p 0;
  let raised =
    with_sanitizer_disarmed (fun () ->
        try
          Engine.schedule_port_at engine ~time:1. p 0;
          false
        with Invalid_argument _ -> true)
  in
  Alcotest.(check bool) "earlier than the port's pending event rejected" true raised;
  Engine.run engine;
  Alcotest.(check int) "the rejected schedule left nothing behind" 1 (Engine.executed engine);
  Alcotest.(check (float 0.)) "clock" 2. (Engine.now engine)

let test_engine_null_port_rejected () =
  let engine = Engine.create () in
  let raised =
    try
      Engine.schedule_port_after engine ~delay:1. Engine.null_port 0;
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "null port rejected" true raised

(* {3 The engine against a reference model}

   Random programs of closure schedules, cancels, re-arms (later,
   earlier, on fired, cancelled and null handles) and port schedules in
   nondecreasing time per port, interleaved with runs with and without
   a horizon.  The reference is the sorted-list model plus a clock, a
   live set and an executed count; after every run the engine must have
   fired the same events in the same order at the same times, and agree
   on [executed], [now] and which handles are [cancelled]. *)

(* The reference queue: a list of (priority, seq, payload) kept sorted
   by (priority, seq) ascending. *)
let sorted_insert model p s v =
  let rec go = function
    | [] -> [ (p, s, v) ]
    | ((p', s', _) as hd) :: tl ->
      let c = Float.compare p p' in
      if c < 0 || (c = 0 && s < s') then (p, s, v) :: hd :: tl else hd :: go tl
  in
  model := go !model

type label = Cell of int | Port of int | Payload of int * int  (* port, payload *)

type op =
  | At of int  (* schedule_at now + k/2 *)
  | After of int  (* schedule_after k/2 *)
  | Cancel of int  (* cancel a handle picked by index *)
  | Rearm of int * int  (* rearm_after a handle picked by index, delay k/2 *)
  | Port_at of int * int  (* port p at max (now, its latest time) + k/2 *)
  | Run_until of int  (* run ~until:(now + k/2) *)
  | Run

let n_model_ports = 3

let print_op = function
  | At k -> Printf.sprintf "At %d" k
  | After k -> Printf.sprintf "After %d" k
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Rearm (i, k) -> Printf.sprintf "Rearm (%d, %d)" i k
  | Port_at (p, k) -> Printf.sprintf "Port_at (%d, %d)" p k
  | Run_until k -> Printf.sprintf "Run_until %d" k
  | Run -> "Run"

let gen_op =
  QCheck.Gen.(
    let k = int_bound 6 and i = int_bound 1000 in
    frequency
      [
        (4, map (fun k -> At k) k);
        (4, map (fun k -> After k) k);
        (2, map (fun i -> Cancel i) i);
        (4, map2 (fun i k -> Rearm (i, k)) i k);
        (5, map2 (fun p k -> Port_at (p, k)) (int_bound (n_model_ports - 1)) k);
        (2, map (fun k -> Run_until k) k);
        (1, return Run);
      ])

let run_program prog =
  let half k = float_of_int k /. 2. in
  let e = Engine.create () in
  let log = ref [] in
  let ports =
    Array.init n_model_ports (fun p ->
        Engine.port e (fun _ -> log := (Port p, Engine.now e) :: !log))
  in
  (* Handle [j] is the j-th one returned; the model knows it by [j]. *)
  let handles = Array.make (List.length prog) Engine.null in
  let n_handles = ref 0 in
  let clock = ref 0. and seq = ref 0 and executed = ref 0 in
  let pending = ref [] and expected = ref [] in
  let live = Array.make (List.length prog) false in
  let port_last = Array.make n_model_ports 0. in
  let insert time label =
    sorted_insert pending time !seq label;
    incr seq
  in
  let add_cell time h =
    let j = !n_handles in
    handles.(j) <- h;
    live.(j) <- true;
    incr n_handles;
    insert time (Cell j)
  in
  let fire j () = log := (Cell j, Engine.now e) :: !log in
  (* Index [i] picks a handle, or {!Engine.null} one time in [n + 1]. *)
  let pick i = if i mod (!n_handles + 1) = !n_handles then -1 else i mod (!n_handles + 1) in
  let model_cancel j =
    if j >= 0 && live.(j) then begin
      live.(j) <- false;
      let other (_, _, l) = match l with Cell c -> c <> j | Port _ | Payload _ -> true in
      pending := List.filter other !pending
    end
  in
  let model_run ?until () =
    let limit = Option.value until ~default:infinity in
    let rec go () =
      match !pending with
      | (time, _, l) :: rest when time <= limit ->
        pending := rest;
        clock := time;
        incr executed;
        expected := (l, time) :: !expected;
        (match l with Cell j -> live.(j) <- false | Port _ | Payload _ -> ());
        go ()
      | _ -> ()
    in
    go ();
    (* A horizon run leaves the clock at the horizon; otherwise it rests
       at the last firing. *)
    match until with Some limit when limit > !clock -> clock := limit | _ -> ()
  in
  let agrees () =
    List.rev !log = List.rev !expected
    && Engine.executed e = !executed
    && Float.equal (Engine.now e) !clock
    && List.for_all
         (fun j -> Engine.cancelled e handles.(j) = not live.(j))
         (List.init !n_handles Fun.id)
  in
  List.for_all
    (fun op ->
      match op with
      | At k ->
        let time = !clock +. half k in
        add_cell time (Engine.schedule_at e ~time (fire !n_handles));
        true
      | After k ->
        add_cell (!clock +. half k) (Engine.schedule_after e ~delay:(half k) (fire !n_handles));
        true
      | Cancel i ->
        let j = pick i in
        Engine.cancel e (if j < 0 then Engine.null else handles.(j));
        model_cancel j;
        true
      | Rearm (i, k) ->
        let j = pick i in
        let h = if j < 0 then Engine.null else handles.(j) in
        let h' = Engine.rearm_after e h ~delay:(half k) (fire !n_handles) in
        model_cancel j;
        add_cell (!clock +. half k) h';
        true
      | Port_at (p, k) ->
        let time = Float.max !clock port_last.(p) +. half k in
        port_last.(p) <- time;
        Engine.schedule_port_at e ~time ports.(p) 0;
        insert time (Port p);
        true
      | Run_until k ->
        let limit = !clock +. half k in
        Engine.run ~until:limit e;
        model_run ~until:limit ();
        agrees ()
      | Run ->
        Engine.run e;
        model_run ();
        agrees ())
    (prog @ [ Run ])

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"engine matches sorted-list reference over random programs" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list print_op)
       QCheck.Gen.(list_size (int_range 0 150) gen_op))
    run_program

let prop_engine_fires_all_in_order =
  QCheck.Test.make ~name:"engine fires every event in time order" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 50) (float_bound_exclusive 100.))
    (fun times ->
      let engine = Engine.create () in
      let fired = ref [] in
      List.iter
        (fun t -> ignore (Engine.schedule_at engine ~time:t (fun () -> fired := t :: !fired)))
        times;
      Engine.run engine;
      let fired = List.rev !fired in
      List.length fired = List.length times
      && fired = List.sort Float.compare times)

(* The ring against a list model, over random operation sequences long
   enough to double the ring several times and wrap its head around;
   a rare [Clear] starts it over from no storage. *)
type ring_op = Push of int | Pop | Peek | Length | Clear

let ring_op_gen =
  QCheck.Gen.(
    frequency
      [
        (60, map (fun x -> Push x) int);
        (40, return Pop);
        (20, return Peek);
        (10, return Length);
        (1, return Clear);
      ])

let show_ring_op = function
  | Push x -> Printf.sprintf "push %d" x
  | Pop -> "pop"
  | Peek -> "peek"
  | Length -> "length"
  | Clear -> "clear"

let prop_ring_matches_list_model =
  QCheck.Test.make ~name:"ring matches a list model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_ring_op ops))
       QCheck.Gen.(list_size (int_range 0 600) ring_op_gen))
    (fun ops ->
      let r = Ring.create () in
      (* The model queue, head first. *)
      let model = ref [] in
      let empty_raises f = match f r with _ -> false | exception Invalid_argument _ -> true in
      List.for_all
        (fun op ->
          (match (op, !model) with
          | Push x, m ->
            Ring.push r x;
            model := m @ [ x ];
            true
          | Pop, [] -> empty_raises Ring.pop
          | Pop, x :: rest ->
            model := rest;
            Ring.pop r = x
          | Peek, [] -> empty_raises Ring.peek
          | Peek, x :: _ -> Ring.peek r = x
          | Length, _ -> true
          | Clear, _ ->
            Ring.clear r;
            model := [];
            true)
          && Ring.length r = List.length !model
          && Ring.is_empty r = (!model = [])
          && Ring.fold (fun acc x -> x :: acc) [] r = List.rev !model)
        ops)

(* {3 Shared delay lanes against the reference model}

   Port events live in lanes: [schedule_port_after] appends to the lane
   shared by every port scheduled with that exact delay, and
   [schedule_port_at] to the port's own lane.  Random mixes of both
   (delays drawn from a small set, so lanes are shared), closure events
   with [cancel] and [rearm_after], and [run ~until] horizons must fire
   exactly as one sorted list of every event by (time, seq) does: the
   same labels at the same times in the same order, with the same
   [executed], [now] and handle liveness. *)

type lane_op =
  | L_after of int * int  (* schedule_port_after port p, delay lane_delays.(d) *)
  | L_at of int * int  (* schedule_port_at port p, max (now, its latest) + k/4 *)
  | L_cell of int  (* schedule_after k/4 *)
  | L_cancel of int  (* cancel a handle picked by index *)
  | L_rearm of int * int  (* rearm_after a handle picked by index, delay k/4 *)
  | L_until of int  (* run ~until:(now + k/4) *)
  | L_burst of int * int  (* 20 x L_after (p, d): grows the lane's ring *)

let lane_delays = [| 0.; 0.25; 0.5; 1.25 |]
let n_lane_ports = 4

let print_lane_op = function
  | L_after (p, d) -> Printf.sprintf "L_after (%d, %d)" p d
  | L_at (p, k) -> Printf.sprintf "L_at (%d, %d)" p k
  | L_cell k -> Printf.sprintf "L_cell %d" k
  | L_cancel i -> Printf.sprintf "L_cancel %d" i
  | L_rearm (i, k) -> Printf.sprintf "L_rearm (%d, %d)" i k
  | L_until k -> Printf.sprintf "L_until %d" k
  | L_burst (p, d) -> Printf.sprintf "L_burst (%d, %d)" p d

let gen_lane_op =
  QCheck.Gen.(
    let port = int_bound (n_lane_ports - 1) and k = int_bound 8 and i = int_bound 1000 in
    frequency
      [
        (8, map2 (fun p d -> L_after (p, d)) port (int_bound (Array.length lane_delays - 1)));
        (3, map2 (fun p k -> L_at (p, k)) port k);
        (3, map (fun k -> L_cell k) k);
        (2, map (fun i -> L_cancel i) i);
        (3, map2 (fun i k -> L_rearm (i, k)) i k);
        (2, map (fun k -> L_until k) k);
      ])

(* With [payloads], each port event carries a payload of its own, drawn
   from its model seq and port (not equal to the seq, which the engine
   also stores), and the log records what the handler received, so the
   comparison also checks that every handler got exactly its own
   event's payload. *)
let run_lane_program ~payloads prog =
  let quarter k = float_of_int k /. 4. in
  let e = Engine.create () in
  let log = ref [] in
  let ports =
    Array.init n_lane_ports (fun p ->
        Engine.port e (fun v ->
            log := ((if payloads then Payload (p, v) else Port p), Engine.now e) :: !log))
  in
  let handles = Array.make (List.length prog) Engine.null in
  let live = Array.make (List.length prog) false in
  let n_handles = ref 0 in
  let clock = ref 0. and seq = ref 0 and executed = ref 0 in
  let pending = ref [] and expected = ref [] in
  let port_last = Array.make n_lane_ports 0. in
  let insert time label =
    sorted_insert pending time !seq label;
    incr seq
  in
  (* The payload and model label of the next port event for port [p]. *)
  let payload p = if payloads then (!seq * 37) + p + 1 else 0 in
  let port_label p = if payloads then Payload (p, payload p) else Port p in
  let add_cell time h =
    let j = !n_handles in
    handles.(j) <- h;
    live.(j) <- true;
    incr n_handles;
    insert time (Cell j)
  in
  let fire j () = log := (Cell j, Engine.now e) :: !log in
  let pick i = if !n_handles = 0 then -1 else i mod !n_handles in
  let model_cancel j =
    if j >= 0 && live.(j) then begin
      live.(j) <- false;
      pending := List.filter (fun (_, _, l) -> l <> Cell j) !pending
    end
  in
  let model_run limit =
    let rec go () =
      match !pending with
      | (time, _, l) :: rest when time <= limit ->
        pending := rest;
        clock := time;
        incr executed;
        expected := (l, time) :: !expected;
        (match l with Cell j -> live.(j) <- false | Port _ | Payload _ -> ());
        go ()
      | _ -> ()
    in
    go ()
  in
  let agrees () =
    List.rev !log = List.rev !expected
    && Engine.executed e = !executed
    && Float.equal (Engine.now e) !clock
    && List.for_all
         (fun j -> Engine.cancelled e handles.(j) = not live.(j))
         (List.init !n_handles Fun.id)
  in
  (* Only schedules that keep the port's FIFO contract. *)
  let after p d =
    let delay = lane_delays.(d) in
    let time = !clock +. delay in
    if time >= port_last.(p) then begin
      port_last.(p) <- time;
      Engine.schedule_port_after e ~delay ports.(p) (payload p);
      insert time (port_label p)
    end
  in
  List.for_all
    (function
      | L_after (p, d) ->
        after p d;
        true
      | L_burst (p, d) ->
        for _ = 1 to 20 do
          after p d
        done;
        true
      | L_at (p, k) ->
        let time = Float.max !clock port_last.(p) +. quarter k in
        port_last.(p) <- time;
        Engine.schedule_port_at e ~time ports.(p) (payload p);
        insert time (port_label p);
        true
      | L_cell k ->
        add_cell (!clock +. quarter k) (Engine.schedule_after e ~delay:(quarter k) (fire !n_handles));
        true
      | L_cancel i ->
        let j = pick i in
        Engine.cancel e (if j < 0 then Engine.null else handles.(j));
        model_cancel j;
        true
      | L_rearm (i, k) ->
        let j = pick i in
        let h = if j < 0 then Engine.null else handles.(j) in
        let h' = Engine.rearm_after e h ~delay:(quarter k) (fire !n_handles) in
        model_cancel j;
        add_cell (!clock +. quarter k) h';
        true
      | L_until k ->
        let limit = !clock +. quarter k in
        Engine.run ~until:limit e;
        model_run limit;
        if limit > !clock then clock := limit;
        agrees ())
    prog
  &&
  (Engine.run e;
   model_run infinity;
   agrees () && Engine.pending e = 0)

let prop_engine_lanes_match_reference =
  QCheck.Test.make
    ~name:"engine lanes fire in (time, seq) order against a sorted-list model" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list print_lane_op)
       QCheck.Gen.(list_size (int_range 0 200) gen_lane_op))
    (run_lane_program ~payloads:false)

(* The same programs with a payload on every port event, plus bursts of
   20 schedules on one lane that make its ring grow with events
   pending: each handler receives exactly its own event's payload, in
   (time, seq) order. *)
let prop_engine_lanes_deliver_payloads =
  QCheck.Test.make
    ~name:"engine port handlers receive their own payloads in (time, seq) order" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list print_lane_op)
       QCheck.Gen.(
         list_size (int_range 0 200)
           (frequency
              [
                (20, gen_lane_op);
                ( 1,
                  map2
                    (fun p d -> L_burst (p, d))
                    (int_bound (n_lane_ports - 1))
                    (int_bound (Array.length lane_delays - 1)) );
              ])))
    (run_lane_program ~payloads:true)

let suite =
  [
    ("ring fifo", `Quick, test_ring_fifo);
    ("ring wraparound", `Quick, test_ring_wraparound);
    ("ring peek/fold/clear", `Quick, test_ring_peek_fold_clear);
    ("ring empty pop raises", `Quick, test_ring_empty_pop_raises);
    ("engine time order", `Quick, test_engine_runs_in_time_order);
    ("engine same-time fifo", `Quick, test_engine_same_time_fifo);
    ("engine rejects past", `Quick, test_engine_rejects_past);
    ("engine schedule_after", `Quick, test_engine_schedule_after);
    ("engine cancellation", `Quick, test_engine_cancellation);
    ("engine cancel twice", `Quick, test_engine_cancel_twice_is_noop);
    ("engine cell recycling", `Quick, test_engine_cell_recycling_generation_safety);
    ("engine cancel then recycle", `Quick, test_engine_cancel_then_recycle_stale_heap_entry);
    ("engine cancel self in handler", `Quick, test_engine_cancel_self_inside_handler);
    ("engine cancel other in handler", `Quick, test_engine_cancel_other_inside_handler);
    ("engine ports", `Quick, test_engine_ports);
    ("engine slab churn", `Quick, test_engine_slab_churn);
    ("engine run until", `Quick, test_engine_until_horizon);
    ("engine rejects nan horizon", `Quick, test_engine_rejects_nan_horizon);
    ("engine rejects infinite horizon", `Quick, test_engine_rejects_infinite_horizon);
    ("engine step", `Quick, test_engine_step);
    ("engine negative delay", `Quick, test_engine_negative_delay_rejected);
    ("engine non-finite delay", `Quick, test_engine_non_finite_delay_rejected);
    ("engine cancelled entry keeps clock", `Quick, test_engine_cancelled_entry_keeps_clock);
    ("engine rearm in place", `Quick, test_engine_rearm_in_place);
    ("engine rearm handle", `Quick, test_engine_rearm_handle_matches_cancel_schedule);
    ("engine port fifo", `Quick, test_engine_port_fifo);
    ("engine port out of order", `Quick, test_engine_port_out_of_order_raises);
    ("engine null port", `Quick, test_engine_null_port_rejected);
    QCheck_alcotest.to_alcotest prop_engine_matches_reference;
    QCheck_alcotest.to_alcotest prop_engine_fires_all_in_order;
    QCheck_alcotest.to_alcotest prop_ring_matches_list_model;
    QCheck_alcotest.to_alcotest prop_engine_lanes_match_reference;
    QCheck_alcotest.to_alcotest prop_engine_lanes_deliver_payloads;
  ]
