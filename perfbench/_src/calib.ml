(* A fixed CPU probe that uses no phi code: string-keyed [Hashtbl]
   finds, replaces and removes with a small string allocation each,
   under a millisecond of the same kind of work (hashing, pointer
   chasing, minor allocation) the simulator and the context server do.
   Timing it next to each repetition tells a slower machine apart from
   slower code: the probe's time moves only with the machine.  A
   workload that runs on several domains is probed on as many.

   The benchmark shares its host with other tenants, and their load
   changes the speed of a core by up to 2x over minutes.  Reported times
   are therefore scaled to the probe: a repetition's time multiplied by
   [reference_ns] over the probe's time around it, i.e. the time the
   repetition would have taken had the probe run in [reference_ns].  A
   change to phi moves the scaled time as it moves the raw one; a change
   of machine speed moves both the repetition and the probe.  Of the
   probes tried, this one tracked both the dumbbell cell and the context
   replay best (per-repetition correlation about 0.8; a probe of random
   array increments managed 0.5 to 0.75). *)

(* The probe's median time on an idle core of a 2 GHz Xeon (Sapphire
   Rapids) under KVM. *)
let reference_ns = 800_000.

let keys = Array.init 4096 (fun i -> "subnet-" ^ string_of_int (i * 7919))

(* One table per participating domain, kept across probes so every probe
   after the first finds it in the same steady state. *)
let tables : (string, int) Hashtbl.t array ref = ref [||]

let kernel table =
  let x = ref 1 and acc = ref 0 in
  for _ = 1 to 5_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = keys.(!x land 4095) in
    (match Hashtbl.find_opt table k with
    | Some v ->
      acc := !acc + v;
      Hashtbl.replace table k (v + 1)
    | None -> Hashtbl.replace table k 1);
    if !x land 7 = 0 then Hashtbl.remove table k;
    acc := !acc + String.length (k ^ "x")
  done;
  !acc

let rounds = 5

(* One domain's part of a probe: [rounds] timed kernel runs, each started
   once all [domains] participants have reached [arrived]. *)
let run_rounds ~domains arrived table =
  Array.init rounds (fun r ->
      Atomic.incr arrived;
      while Atomic.get arrived < domains * (r + 1) do
        Domain.cpu_relax ()
      done;
      let t0 = Clock.now_ns () in
      ignore (Sys.opaque_identity (kernel table));
      Clock.now_ns () - t0)

(* The median over five rounds of the slowest domain's kernel time, in
   nanoseconds, with the kernel running on [domains] domains at once.  A
   workload whose domains meet at a barrier runs at the pace of its
   slowest core, so it is probed on as many cores as it uses. *)
let probe_ns ?(domains = 1) () =
  let have = Array.length !tables in
  if have < domains then
    tables := Array.append !tables (Array.init (domains - have) (fun _ -> Hashtbl.create 1024));
  let arrived = Atomic.make 0 in
  let helpers =
    List.init (domains - 1) (fun i ->
        let table = !tables.(i + 1) in
        Domain.spawn (fun () -> run_rounds ~domains arrived table))
  in
  let mine = run_rounds ~domains arrived !tables.(0) in
  let runs =
    List.fold_left (fun acc d -> Array.map2 Stdlib.max acc (Domain.join d)) mine helpers
  in
  Array.sort compare runs;
  runs.(rounds / 2)
