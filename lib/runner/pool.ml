type error = { index : int; exn : exn; backtrace : string }

exception Job_failed of error list

let positive_env name =
  match Sys.getenv_opt name with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some v when v >= 1 -> Some v
    | Some _ | None -> None)

(* [Domain.recommended_domain_count] folds in cgroup quotas and CPU
   affinity, so it is the robust default; PHI_CORES overrides it for
   containers that misreport (a CI runner pinned to one core used to
   make bench reports claim "cores": 1 while running --jobs 4). *)
let available_cores () =
  match positive_env "PHI_CORES" with
  | Some c -> c
  | None -> Domain.recommended_domain_count ()

let default_jobs () =
  match positive_env "PHI_JOBS" with
  | Some j -> j
  | None -> available_cores ()

(* With the engine and packet pools recycling their cells, steady-state
   minor allocation is near zero, so minor collections are rare whatever
   the heap size — what matters is that the minor heap stays resident in
   cache alongside the slabs the simulation actually walks.  64 Kwords
   (512 KB, a quarter of a typical L2) measured best on the sweep
   workloads; the stock 256 Kwords and anything larger just evict slab
   lines.  PHI_MINOR_HEAP=<words> overrides in either direction. *)
let tune_gc () =
  let target =
    match positive_env "PHI_MINOR_HEAP" with
    | Some words -> words
    | None -> 1 lsl 16 (* 64 Kwords = 512 KB per domain *)
  in
  let g = Gc.get () in
  if g.Gc.minor_heap_size <> target then Gc.set { g with Gc.minor_heap_size = target }

(* The worker count a [try_map] actually uses — also what bench
   sections stamp into report metadata, so BENCH_*.json records the
   parallelism a section really ran with (a [--jobs] override included)
   rather than the machine default. *)
let effective_jobs ?jobs ~cells () =
  let requested = match jobs with Some j -> j | None -> default_jobs () in
  if requested < 1 then invalid_arg "Pool.effective_jobs: jobs must be >= 1";
  Stdlib.min requested (Stdlib.max 1 cells)

let run_one f items results i =
  let r =
    try Ok (f items.(i))
    with e -> Error { index = i; exn = e; backtrace = Printexc.get_backtrace () }
  in
  results.(i) <- Some r

let try_map ?jobs f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let results = Array.make n None in
  let workers =
    try effective_jobs ?jobs ~cells:n ()
    with Invalid_argument _ -> invalid_arg "Pool.try_map: jobs must be >= 1"
  in
  let workers = Stdlib.min workers n in
  if workers <= 1 then begin
    (* The serial path: no domain is spawned, jobs run in submission
       order in the calling domain. *)
    tune_gc ();
    for i = 0 to n - 1 do
      run_one f items results i
    done
  end
  else begin
    (* Work-stealing over a shared cursor: each worker claims the next
       unclaimed index.  Each slot of [results] is written by exactly
       one domain, and [Domain.join] publishes those writes before the
       reassembly below reads them. *)
    let next = Atomic.make 0 in
    let worker () =
      tune_gc ();
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false else run_one f items results i
      done
    in
    let spawned = List.init (workers - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned
  end;
  List.init n (fun i ->
      match results.(i) with
      | Some r -> r
      | None -> Error { index = i; exn = Not_found; backtrace = "" })

let map ?jobs f xs =
  let results = try_map ?jobs f xs in
  let errors =
    List.filter_map (function Error e -> Some e | Ok _ -> None) results
  in
  if errors <> [] then raise (Job_failed errors);
  List.map (function Ok v -> v | Error _ -> assert false) results

let fan_out ?jobs ~seeds f groups =
  if seeds = [] then invalid_arg "Pool.fan_out: no seeds";
  let n = List.length seeds in
  let results =
    Array.of_list
      (map ?jobs (fun (g, s) -> f g s) (List.concat_map (fun g -> List.map (fun s -> (g, s)) seeds) groups))
  in
  List.mapi (fun i g -> (g, Array.sub results (i * n) n)) groups

let error_to_string e = Printf.sprintf "job %d: %s" e.index (Printexc.to_string e.exn)
