(* The compiled decision plane (Phi_remy.Compiled_table,
   Phi.Policy.Compiled) against its interpreted reference: lookup
   equivalence on random tables and random points (qcheck), on cut-plane
   boundary points, and on every pretrained table; physically identical
   policy choices; exact float-for-float action application. *)

module Whisker = Phi_remy.Whisker
module Rule_table = Phi_remy.Rule_table
module Compiled_table = Phi_remy.Compiled_table
module Memory = Phi_remy.Memory
module Context = Phi.Context
module Policy = Phi.Policy
module Cc_algo = Phi.Cc_algo
module Prng = Phi_util.Prng

(* {2 Random tables}

   A deterministic mutation walk from one seed: random splits (full and
   single-axis) interleaved with random action rewrites — the same
   operation mix training performs, so the compiled grid sees realistic
   uneven partitions. *)

let random_action rng =
  {
    Whisker.window_increment = Prng.float_range rng ~lo:(-12.) ~hi:35.;
    Whisker.window_multiple = Prng.float_range rng ~lo:0.05 ~hi:2.3;
    Whisker.intersend_s = Prng.float_range rng ~lo:0.0001 ~hi:0.6;
  }

let random_table ~seed ~dims ~splits =
  let rng = Prng.create ~seed in
  let table = Rule_table.create ~dims Whisker.default_action in
  for _ = 1 to splits do
    let ws = Array.of_list (Rule_table.whiskers table) in
    let w = Prng.choose rng ws in
    if Prng.bool rng then Rule_table.split_axis table w ~axis:(Prng.int rng ~bound:dims)
    else Rule_table.split table w;
    let ws = Array.of_list (Rule_table.whiskers table) in
    Rule_table.set_action table (Prng.choose rng ws) (random_action rng)
  done;
  table

let random_point rng dims = Array.init dims (fun _ -> Prng.float rng)

let check_point ?(msg = "compiled = interpreted") table compiled point =
  Alcotest.(check int) msg
    (Rule_table.lookup_index table point)
    (Compiled_table.lookup_point compiled point)

(* {2 qcheck equivalence on random tables and points} *)

let prop_equivalence =
  QCheck.Test.make ~name:"compiled lookup = interpreted lookup" ~count:60
    QCheck.(triple (int_range 0 10_000) (int_range 3 4) (int_range 0 6))
    (fun (seed, dims, splits) ->
      let table = random_table ~seed ~dims ~splits in
      let compiled = Compiled_table.compile table in
      let rng = Prng.create ~seed:(seed + 1) in
      let ok = ref true in
      for _ = 1 to 50 do
        let p = random_point rng dims in
        if Rule_table.lookup_index table p <> Compiled_table.lookup_point compiled p then
          ok := false
      done;
      !ok)

(* {2 Boundary points: cut planes resolve identically}

   The half-open box contract says a point sitting exactly on a cut
   belongs to the interval the cut opens — the compiled binary search
   must agree with the interpreted containment scan on every whisker
   face, including the inclusive x = 1 upper face. *)

let boundary_values table axis =
  List.sort_uniq Float.compare
    (List.concat_map
       (fun w -> [ w.Whisker.box.Whisker.lo.(axis); w.Whisker.box.Whisker.hi.(axis) ])
       (Rule_table.whiskers table))

let test_boundary_points () =
  List.iter
    (fun (seed, dims, splits) ->
      let table = random_table ~seed ~dims ~splits in
      let compiled = Compiled_table.compile table in
      let rng = Prng.create ~seed:(seed + 2) in
      for axis = 0 to dims - 1 do
        List.iter
          (fun v ->
            (* The boundary coordinate on [axis], the rest random — and
               the all-boundary corner point. *)
            let p = random_point rng dims in
            p.(axis) <- v;
            check_point ~msg:"cut plane" table compiled p;
            let corner = Array.init dims (fun a -> if a = axis then v else 0.5) in
            check_point ~msg:"cut corner" table compiled corner)
          (boundary_values table axis)
      done)
    [ (3, 3, 5); (17, 4, 5); (23, 4, 6) ]

let test_unit_corners () =
  let table = random_table ~seed:7 ~dims:4 ~splits:6 in
  let compiled = Compiled_table.compile table in
  for mask = 0 to 15 do
    let p = Array.init 4 (fun a -> if mask land (1 lsl a) <> 0 then 1. else 0.) in
    check_point ~msg:"unit corner" table compiled p
  done

(* {2 Every pretrained table} *)

let test_pretrained_equivalence () =
  List.iter
    (fun (name, table) ->
      let compiled = Compiled_table.compile table in
      Alcotest.(check int)
        (name ^ " sizes agree")
        (Rule_table.size table) (Compiled_table.size compiled);
      let dims = Rule_table.dims table in
      let rng = Prng.create ~seed:42 in
      for _ = 1 to 500 do
        check_point ~msg:(name ^ " random point") table compiled (random_point rng dims)
      done;
      for axis = 0 to dims - 1 do
        List.iter
          (fun v ->
            let p = random_point rng dims in
            p.(axis) <- v;
            check_point ~msg:(name ^ " cut plane") table compiled p)
          (boundary_values table axis)
      done)
    [ ("remy", Phi_remy.Pretrained.remy ()); ("remy-phi", Phi_remy.Pretrained.remy_phi ()) ]

(* {2 Actions replay the exact float operations} *)

let test_apply_exact () =
  let table = random_table ~seed:9 ~dims:3 ~splits:6 in
  let compiled = Compiled_table.compile table in
  let whiskers = Array.of_list (Rule_table.whiskers table) in
  let rng = Prng.create ~seed:10 in
  for _ = 1 to 200 do
    let i = Prng.int rng ~bound:(Array.length whiskers) in
    let a = whiskers.(i).Whisker.action in
    let cwnd = Prng.float_range rng ~lo:1. ~hi:1500. in
    (* Bit-for-bit equality: the compiled apply must be the same float
       expression as Whisker.apply, or golden %h replays diverge. *)
    Alcotest.(check bool) "apply bit-identical" true
      (Int64.equal
         (Int64.bits_of_float (Whisker.apply a ~cwnd))
         (Int64.bits_of_float (Compiled_table.apply compiled i ~cwnd)));
    Alcotest.(check bool) "intersend bit-identical" true
      (Int64.equal
         (Int64.bits_of_float a.Whisker.intersend_s)
         (Int64.bits_of_float (Compiled_table.intersend_s compiled i)))
  done

(* {2 Memory scratch writes match the boxed projection} *)

let test_write_point_matches_to_point () =
  let m = Memory.create () in
  Memory.on_ack m ~now:1.0 ~echo_sent_at:0.87;
  Memory.on_ack m ~now:1.13 ~echo_sent_at:0.99;
  Memory.set_utilization m 0.62;
  List.iter
    (fun dims ->
      let boxed = Memory.to_point m ~dims in
      let scratch = Float.Array.make dims nan in
      Memory.write_point m ~dims scratch;
      for i = 0 to dims - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "coordinate %d identical" i)
          true
          (Int64.equal
             (Int64.bits_of_float boxed.(i))
             (Int64.bits_of_float (Float.Array.get scratch i)))
      done)
    [ Memory.dims_remy; Memory.dims_phi ]

(* {2 Policy: compiled choices are physically the interpreted ones} *)

let swarm_entries =
  let bucket u n q = { Context.u_bucket = u; Context.n_bucket = n; Context.q_bucket = q } in
  [
    (bucket 0 0 0, Cc_algo.Remy);
    (bucket 0 1 0, Cc_algo.Remy_phi);
    (bucket 1 2 1, Cc_algo.Vegas);
    (bucket 2 3 1, Cc_algo.Reno 1.4);
    (bucket 3 3 2, Cc_algo.Cubic Phi_tcp.Cubic.default_params);
  ]

let learned_policy () =
  let policy = Policy.create () in
  List.iter (fun (b, a) -> Policy.learn policy b a) swarm_entries;
  policy

let random_context rng =
  {
    Context.utilization = Prng.float rng;
    Context.queue_delay_s = Prng.float_range rng ~lo:0. ~hi:0.4;
    Context.competing_senders = Prng.int rng ~bound:80;
    Context.loss_rate = Prng.float_range rng ~lo:0. ~hi:0.08;
  }

let test_policy_compiled_identical () =
  let policy = learned_policy () in
  let compiled = Policy.Compiled.compile policy in
  let rng = Prng.create ~seed:21 in
  for _ = 1 to 2_000 do
    let ctx = random_context rng in
    Alcotest.(check bool) "physically the same choice" true
      (Policy.choice_for policy ctx == Policy.Compiled.choice_for compiled ctx)
  done;
  (* Every packed bucket code, via its bucket's representative context:
     full coverage of the 64-entry array including heuristic holes. *)
  for code = 0 to Context.bucket_codes - 1 do
    let b = Context.bucket_of_code code in
    Alcotest.(check int) "pack round-trips" code (Context.pack_bucket b)
  done

(* A table that leaves part of the cube uncovered does not compile:
   lookups would clamp the missing region onto an edge whisker. *)
let test_rejects_partial_cube () =
  let table whiskers = Rule_table.deserialize (String.concat "\n" ("remy-table|dims=2" :: whiskers)) in
  List.iter
    (fun (what, whiskers) ->
      let raised =
        try ignore (Compiled_table.compile (table whiskers)); false with Invalid_argument _ -> true
      in
      Alcotest.(check bool) what true raised)
    [
      ("short of 1", [ "w|0,0|0.5,1|1;1;0.001" ]);
      ("short of 0", [ "w|0,0.25|1,1|1;1;0.001" ]);
      ("gap inside", [ "w|0,0|0.25,1|1;1;0.001"; "w|0.5,0|1,1|1;1;0.001" ]);
    ];
  ignore (Compiled_table.compile (table [ "w|0,0|0.5,1|1;1;0.001"; "w|0.5,0|1,1|2;1;0.001" ]))

(* Whiskers that cover part of the cube twice do not compile either:
   lookups there would take whichever whisker comes first. *)
let test_rejects_overlap () =
  let table =
    Rule_table.deserialize
      (String.concat "\n"
         [ "remy-table|dims=3"; "w|0,0,0|1,1,1|1;1;0.001"; "w|0,0,0|0.5,1,1|1;1;0.001" ])
  in
  Alcotest.check_raises "whole cube plus its lower half"
    (Invalid_argument
       "Compiled_table.compile: whiskers overlap (their boxes cover 3 cells of the 2-cell grid)")
    (fun () -> ignore (Compiled_table.compile table))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_equivalence;
    Alcotest.test_case "cut-plane boundary points" `Quick test_boundary_points;
    Alcotest.test_case "unit-cube corners" `Quick test_unit_corners;
    Alcotest.test_case "pretrained tables equivalent" `Quick test_pretrained_equivalence;
    Alcotest.test_case "apply is bit-identical" `Quick test_apply_exact;
    Alcotest.test_case "write_point matches to_point" `Quick test_write_point_matches_to_point;
    Alcotest.test_case "policy choices physically identical" `Quick
      test_policy_compiled_identical;
    Alcotest.test_case "partial cube rejected" `Quick test_rejects_partial_cube;
    Alcotest.test_case "overlapping whiskers rejected" `Quick test_rejects_overlap;
  ]
