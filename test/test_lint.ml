(* Tests for phi-lint: every rule must fire on a minimal offending
   fixture, stay silent on the compliant variant, and honour the
   [phi-lint: allow] suppression comment. *)

let rules_of vs = List.map (fun v -> v.Lint.rule) vs

let lint ?(path = "lib/fake/fixture.ml") src = rules_of (Lint.lint_source ~path src)

let check_rules msg expected actual = Alcotest.(check (list string)) msg expected actual

(* {2 Token rules fire} *)

let test_obj_magic_fires () =
  check_rules "Obj.magic" [ "obj-magic" ] (lint "let f x = Obj.magic x\n")

let test_poly_compare_fires () =
  check_rules "bare compare" [ "poly-compare" ] (lint "let s l = List.sort compare l\n");
  check_rules "Stdlib.compare" [ "poly-compare" ]
    (lint "let s l = List.sort Stdlib.compare l\n");
  (* min/max are policed only where they sit on per-event paths. *)
  List.iter
    (fun path ->
      check_rules ("bare max in " ^ path) [ "poly-compare" ]
        (lint ~path "let f cap = max 64 (2 * cap)\n");
      check_rules ("Stdlib.min in " ^ path) [ "poly-compare" ]
        (lint ~path "let f a b = Stdlib.min a b\n");
      check_rules ("Int.max in " ^ path) [] (lint ~path "let f cap = Int.max 64 (2 * cap)\n"))
    [ "lib/sim/fixture.ml"; "lib/net/fixture.ml"; "lib/tcp/fixture.ml" ];
  check_rules "bare max elsewhere" [] (lint "let f cap = max 64 (2 * cap)\n");
  (* A label, a definition or a record field named min is not a call. *)
  let sim = "lib/sim/fixture.ml" in
  check_rules "min as a label" [] (lint ~path:sim "let f g = g ~min:3\nlet h ~min:lo = lo\n");
  check_rules "min as a definition" [] (lint ~path:sim "let min a b = if a < b then a else b\n");
  check_rules "min as a record field" []
    (lint ~path:sim "type r = { min : int }\nlet f r = r.min\nlet g x = { min = x }\n")

let test_float_equal_fires () =
  check_rules "= on float literal" [ "float-equal" ] (lint "let f x = x = 0.5\n");
  check_rules "<> on float literal" [ "float-equal" ] (lint "let f x = x <> 1.\n");
  check_rules "= on nan" [ "float-equal" ] (lint "let f x = x = nan\n");
  check_rules "= on infinity" [ "float-equal" ] (lint "let f x = x = infinity\n");
  check_rules "= after a comma" [ "float-equal" ] (lint "let f a b = (a, b = 0.5)\n")

let test_list_nth_fires () =
  check_rules "List.nth" [ "list-nth" ] (lint "let f l = List.nth l 3\n")

let test_hashtbl_find_fires () =
  check_rules "Hashtbl.find" [ "hashtbl-find" ] (lint "let f h k = Hashtbl.find h k\n")

let test_failwith_fires_in_lib_only () =
  check_rules "failwith in lib" [ "failwith" ] (lint "let f () = failwith \"boom\"\n");
  check_rules "failwith outside lib" []
    (lint ~path:"test/fixture.ml" "let f () = failwith \"boom\"\n")

let test_exit_fires_in_lib_only () =
  check_rules "exit in lib" [ "exit" ] (lint "let f () = exit 1\n");
  check_rules "exit outside lib" [] (lint ~path:"bin/fixture.ml" "let f () = exit 1\n")

(* {2 Compliant code stays silent} *)

let test_clean_code_passes () =
  check_rules "typed comparators" []
    (lint
       "let s l = List.sort Float.compare l\n\
        let eq a b = Float.equal a b\n\
        let f l = List.nth_opt l 3\n\
        let g h k = Hashtbl.find_opt h k\n")

let test_float_binding_not_flagged () =
  (* [=] in binding position is definition, not comparison. *)
  check_rules "let binding" [] (lint "let x = 0.5\n");
  check_rules "record field" [] (lint "let r = { weight = 0.5; bias = 1. }\n");
  check_rules "optional default" [] (lint "let f ?(alpha = 0.2) () = alpha\n");
  check_rules "mutable field decl" [] (lint "type t = { mutable w : float }\nlet d = { w = 0. }\n")

let test_comments_and_strings_immune () =
  check_rules "in comment" [] (lint "(* use Obj.magic? never; x = 0.5 is bad *)\nlet x = 1\n");
  check_rules "in string" [] (lint "let s = \"Obj.magic and List.nth and x = 0.5\"\n");
  check_rules "in nested comment" [] (lint "(* outer (* failwith *) still comment *)\nlet x = 1\n")

let test_line_numbers () =
  match Lint.lint_source ~path:"lib/fake/fixture.ml" "let a = 1\n\nlet f l = List.nth l 0\n" with
  | [ v ] ->
    Alcotest.(check int) "line 3" 3 v.Lint.line;
    Alcotest.(check string) "rule" "list-nth" v.Lint.rule
  | vs -> Alcotest.fail (Printf.sprintf "expected 1 violation, got %d" (List.length vs))

let test_syntax_error_is_an_input_error () =
  let expect_syntax_error msg f =
    match f () with
    | _ -> Alcotest.fail (msg ^ ": expected Lint.Syntax_error")
    | exception Lint.Syntax_error { file; line; message } ->
      Alcotest.(check string) (msg ^ ": file") "lib/fake/broken.ml" file;
      Alcotest.(check int) (msg ^ ": line") 2 line;
      Alcotest.(check bool) (msg ^ ": parser message") true (String.length message > 0)
  in
  let broken = "let ok = 1\nlet x = )\nlet z = 3\n" in
  expect_syntax_error "lint_source" (fun () -> Lint.lint_source ~path:"lib/fake/broken.ml" broken);
  expect_syntax_error "lint_tree" (fun () ->
      Lint.lint_tree [ ("lib/fake/ok.ml", "let y = 2\n"); ("lib/fake/broken.ml", broken) ])

(* {2 Suppression} *)

let test_allow_same_line () =
  check_rules "suppressed" []
    (lint "let f l = List.nth l 3 (* phi-lint: allow list-nth *)\n")

let test_allow_previous_line () =
  check_rules "suppressed" []
    (lint "(* phi-lint: allow hashtbl-find *)\nlet f h k = Hashtbl.find h k\n")

let test_allow_is_rule_specific () =
  (* An allow for one rule must not silence a different one. *)
  check_rules "wrong rule allowed" [ "list-nth" ]
    (lint "let f l = List.nth l 3 (* phi-lint: allow hashtbl-find *)\n")

let test_allow_does_not_leak_to_later_lines () =
  check_rules "second use still flagged" [ "list-nth" ]
    (lint "(* phi-lint: allow list-nth *)\nlet f l = List.nth l 3\nlet g l = List.nth l 4\n")

(* {2 File-scoped rules} *)

let test_mli_doc_fires () =
  check_rules "undocumented mli" [ "mli-doc" ]
    (rules_of (Lint.lint_source ~path:"lib/fake/fixture.mli" "val f : int -> int\n"))

let test_mli_doc_satisfied () =
  check_rules "documented mli" []
    (rules_of
       (Lint.lint_source ~path:"lib/fake/fixture.mli" "(** Documented. *)\n\nval f : int -> int\n"))

let test_missing_mli_fires () =
  let vs =
    Lint.lint_tree
      [ ("lib/fake/a.ml", "let x = 1\n"); ("lib/fake/b.ml", "let y = 2\n");
        ("lib/fake/b.mli", "(** Documented. *)\nval y : int\n") ]
  in
  check_rules "a.ml lacks interface" [ "missing-mli" ] (rules_of vs);
  match vs with
  | [ v ] -> Alcotest.(check string) "names the file" "lib/fake/a.ml" v.Lint.file
  | _ -> Alcotest.fail "expected exactly one violation"

let test_missing_mli_lib_only () =
  check_rules "non-library code needs no mli" []
    (rules_of (Lint.lint_tree [ ("bin/tool.ml", "let x = 1\n") ]))

let test_in_lib () =
  Alcotest.(check bool) "lib path" true (Lint.in_lib "lib/sim/engine.ml");
  Alcotest.(check bool) "test path" false (Lint.in_lib "test/test_sim.ml");
  Alcotest.(check bool) "bin path" false (Lint.in_lib "bin/phi_cli.ml")

let test_tree_sorted_and_rendered () =
  let vs =
    Lint.lint_tree
      [ ("lib/fake/z.ml", "let f l = List.nth l 0\nlet g h k = Hashtbl.find h k\n");
        ("lib/fake/z.mli", "(** Doc. *)\nval f : int list -> int\nval g : ('a, 'b) Hashtbl.t -> 'a -> 'b\n")
      ]
  in
  check_rules "sorted by line" [ "list-nth"; "hashtbl-find" ] (rules_of vs);
  match vs with
  | v :: _ ->
    Alcotest.(check string) "rendering"
      "lib/fake/z.ml:1: list-nth: List.nth is partial and O(n); use List.nth_opt or an array"
      (Lint.to_string v)
  | [] -> Alcotest.fail "expected violations"

(* {2 domain-global: shared mutable state in pooled libraries} *)

let exp_path = "lib/experiments/fixture.ml"

let test_domain_global_fires () =
  check_rules "top-level ref" [ "domain-global" ]
    (lint ~path:exp_path "let counter = ref 0\n");
  check_rules "top-level Hashtbl" [ "domain-global" ]
    (lint ~path:exp_path "let cache = Hashtbl.create 16\n");
  check_rules "top-level Atomic" [ "domain-global" ]
    (lint ~path:exp_path "let hits = Atomic.make 0\n");
  check_rules "lib/runner in scope" [ "domain-global" ]
    (lint ~path:"lib/runner/fixture.ml" "let state = Queue.create ()\n")

let test_domain_global_scope () =
  (* The rule covers only code that runs inside pool worker domains. *)
  check_rules "lib/sim out of scope" []
    (lint ~path:"lib/sim/fixture.ml" "let counter = ref 0\n");
  check_rules "bin out of scope" []
    (lint ~path:"bin/fixture.ml" "let counter = ref 0\n")

let test_domain_global_silent_on_local_state () =
  (* Functions that construct fresh mutable state per call are exactly
     the per-job isolation the pool wants — never flagged. *)
  check_rules "function returning ref" []
    (lint ~path:exp_path "let make_counter () = ref 0\n");
  check_rules "local ref inside function" []
    (lint ~path:exp_path "let f x =\n  let acc = ref x in\n  !acc\n");
  check_rules "plain immutable binding" []
    (lint ~path:exp_path "let default_seeds = [ 1; 2; 3 ]\n")

let test_domain_global_allow () =
  check_rules "suppressed with allow" []
    (lint ~path:exp_path
       "(* phi-lint: allow domain-global *)\nlet cache = Hashtbl.create 16\n")

let test_in_domain_pool () =
  Alcotest.(check bool) "experiments" true (Lint.in_domain_pool "lib/experiments/sweep.ml");
  Alcotest.(check bool) "runner" true (Lint.in_domain_pool "lib/runner/pool.ml");
  Alcotest.(check bool) "sim" false (Lint.in_domain_pool "lib/sim/engine.ml");
  Alcotest.(check bool) "test" false (Lint.in_domain_pool "test/test_runner.ml")

(* {2 hot-queue: Stdlib.Queue in per-packet libraries} *)

let test_hot_queue_fires () =
  check_rules "Queue.create in lib/net" [ "hot-queue" ]
    (lint ~path:"lib/net/fixture.ml" "let f () = Queue.create ()\n");
  check_rules "Queue.push in lib/sim" [ "hot-queue" ]
    (lint ~path:"lib/sim/fixture.ml" "let f q x = Queue.push x q\n");
  check_rules "Stdlib.Queue qualified" [ "hot-queue" ]
    (lint ~path:"lib/net/fixture.ml" "let f () = Stdlib.Queue.create ()\n");
  check_rules "bare Queue type use" [ "hot-queue" ]
    (lint ~path:"lib/sim/fixture.ml" "type t = { q : int Queue.t }\n")

let test_hot_queue_scope () =
  (* The per-packet libraries and the transport are covered (a sender's
     retransmit queue is pushed per lost segment); a test is not. *)
  check_rules "lib/tcp in scope" [ "hot-queue" ]
    (lint ~path:"lib/tcp/fixture.ml" "let f () = Queue.create ()\n");
  check_rules "test out of scope" []
    (lint ~path:"test/fixture.ml" "let f () = Queue.create ()\n")

let test_hot_queue_allow () =
  check_rules "suppressed with allow" []
    (lint ~path:"lib/net/fixture.ml"
       "(* phi-lint: allow hot-queue *)\nlet f () = Queue.create ()\n")

let test_in_hot_path () =
  Alcotest.(check bool) "net" true (Lint.in_hot_path "lib/net/link.ml");
  Alcotest.(check bool) "sim" true (Lint.in_hot_path "lib/sim/engine.ml");
  Alcotest.(check bool) "tcp" false (Lint.in_hot_path "lib/tcp/sender.ml");
  Alcotest.(check bool) "test" false (Lint.in_hot_path "test/test_sim.ml")

(* {2 hot-hashtbl: Stdlib.Hashtbl in per-packet libraries} *)

let test_hot_hashtbl_fires () =
  check_rules "Hashtbl.create in lib/net" [ "hot-hashtbl" ]
    (lint ~path:"lib/net/fixture.ml" "let f () = Hashtbl.create 16\n");
  check_rules "Hashtbl.mem in lib/sim" [ "hot-hashtbl" ]
    (lint ~path:"lib/sim/fixture.ml" "let f h k = Hashtbl.mem h k\n");
  check_rules "Stdlib.Hashtbl qualified" [ "hot-hashtbl" ]
    (lint ~path:"lib/net/fixture.ml" "let f h k = Stdlib.Hashtbl.replace h k ()\n");
  check_rules "bare Hashtbl type use" [ "hot-hashtbl" ]
    (lint ~path:"lib/sim/fixture.ml" "type t = { h : (int, int) Hashtbl.t }\n")

let test_hot_hashtbl_scope () =
  (* lib/tcp keeps the sender's retx table until it moves onto the
     scoreboard ring; tests and other libraries may hash freely. *)
  check_rules "lib/tcp out of scope" []
    (lint ~path:"lib/tcp/fixture.ml" "let f () = Hashtbl.create 16\n");
  check_rules "lib/experiments out of scope" []
    (lint ~path:"lib/experiments/fixture.ml" "let f () = Hashtbl.create 16\n");
  check_rules "test out of scope" []
    (lint ~path:"test/fixture.ml" "let f () = Hashtbl.create 16\n")

let test_hot_hashtbl_allow () =
  check_rules "suppressed with allow" []
    (lint ~path:"lib/net/fixture.ml"
       "(* phi-lint: allow hot-hashtbl *)\nlet f () = Hashtbl.create 16\n")

(* {2 packet-escape: pooled packet ownership} *)

let net_path = "lib/net/fixture.ml"

let test_packet_escape_fires_on_legacy_constructors () =
  check_rules "Packet.data outside the pool" [ "packet-escape" ]
    (lint ~path:net_path
       "let f () = Packet.data ~flow:0 ~src:0 ~dst:1 ~seq:0 ~now:0. ~retransmit:false\n");
  check_rules "Packet.ack outside the pool" [ "packet-escape" ]
    (lint ~path:"lib/tcp/fixture.ml" "let f () = Packet.ack ~flow:0\n")

let test_packet_escape_fires_on_mutable_handle_field () =
  check_rules "mutable handle field" [ "packet-escape" ]
    (lint ~path:net_path "type t = { mutable last : Packet.handle }\n")

let test_packet_escape_fires_on_use_after_release () =
  (* Both passes see this one: packet-escape flags the same-line use,
     and the lifetime pass tracks the handle's state. *)
  check_rules "handle touched after release" [ "packet-escape"; "handle-lifetime" ]
    (lint ~path:net_path "let f pool pkt = Packet.release pool pkt; consume pkt\n")

let test_packet_escape_silent_on_contract_code () =
  (* The pool's own acquire calls, immutable/callback handle positions,
     and release-as-last-use are exactly the contract. *)
  check_rules "acquire is fine" []
    (lint ~path:net_path
       "let f pool = Packet.acquire_data pool ~flow:0 ~src:0 ~dst:1 ~seq:0 ~now:0. \
        ~retransmit:false\n");
  check_rules "handle-consuming callback field is fine" []
    (lint ~path:net_path "type t = { mutable receiver : Packet.handle -> unit }\n");
  check_rules "non-mutable handle argument type is fine" []
    (lint ~path:net_path "val send : t -> Packet.handle -> unit\n");
  check_rules "release as last use is fine" []
    (lint ~path:net_path "let f pool pkt = Packet.release pool pkt\n")

let test_packet_escape_scope () =
  (* The pool module mints handles; code outside the packet layers never
     sees one. *)
  check_rules "packet.ml itself exempt" []
    (lint ~path:"lib/net/packet.ml" "let data = 1\nlet f () = Packet.data\n");
  check_rules "bench out of scope" []
    (lint ~path:"bench/fixture.ml" "let f () = Packet.data ~flow:0\n");
  Alcotest.(check bool) "link in scope" true (Lint.in_packet_scope "lib/net/link.ml");
  Alcotest.(check bool) "sender in scope" true (Lint.in_packet_scope "lib/tcp/sender.ml");
  Alcotest.(check bool) "pool exempt" false (Lint.in_packet_scope "lib/net/packet.ml");
  Alcotest.(check bool) "pool mli exempt" false (Lint.in_packet_scope "lib/net/packet.mli");
  Alcotest.(check bool) "sim out of scope" false (Lint.in_packet_scope "lib/sim/engine.ml")

let test_packet_escape_allow () =
  check_rules "suppressed with allow" []
    (lint ~path:net_path
       "(* phi-lint: allow packet-escape *)\ntype t = { mutable last : Packet.handle }\n")

(* {2 transport-unified: one sender transport} *)

let test_transport_unified_fires () =
  check_rules "Node.bind_flow outside the transport" [ "transport-unified" ]
    (lint ~path:"lib/experiments/fixture.ml"
       "let f node flow = Phi_net.Node.bind_flow node flow\n");
  check_rules "unqualified bind_flow" [ "transport-unified" ]
    (lint ~path:"lib/core/fixture.ml" "let f node flow = Node.bind_flow node flow\n");
  check_rules "legacy Remy_sender entry point" [ "transport-unified" ]
    (lint ~path:"lib/remy/fixture.ml" "let f () = Remy_sender.create ()\n");
  check_rules "qualified legacy sender" [ "transport-unified" ]
    (lint ~path:"lib/experiments/fixture.ml" "let f () = Phi_remy.Remy_sender.create ()\n")

let test_transport_unified_scope () =
  (* The transport itself and the substrate it binds to are the two
     places allowed to touch flow binding; tests and binaries are out of
     scope entirely. *)
  check_rules "lib/tcp may bind flows" []
    (lint ~path:"lib/tcp/fixture.ml" "let f node flow = Phi_net.Node.bind_flow node flow\n");
  check_rules "lib/net may bind flows" []
    (lint ~path:"lib/net/fixture.ml" "let f node flow = Node.bind_flow node flow\n");
  check_rules "tests out of scope" []
    (lint ~path:"test/fixture.ml" "let f node flow = Phi_net.Node.bind_flow node flow\n");
  check_rules "binaries out of scope" []
    (lint ~path:"bin/fixture.ml" "let f () = Remy_sender.create ()\n")

let test_transport_unified_allow () =
  check_rules "suppressed with allow" []
    (lint ~path:"lib/experiments/fixture.ml"
       "(* phi-lint: allow transport-unified *)\nlet f node flow = Node.bind_flow node flow\n")

(* {2 interpreted-lookup: compiled decision plane on hot paths} *)

let tcp_path = "lib/tcp/fixture.ml"

let test_interpreted_lookup_fires () =
  check_rules "Rule_table.lookup in lib/tcp" [ "interpreted-lookup" ]
    (lint ~path:tcp_path "let f table p = Rule_table.lookup table p\n");
  check_rules "qualified Rule_table.lookup" [ "interpreted-lookup" ]
    (lint ~path:tcp_path "let f table p = Phi_remy.Rule_table.lookup table p\n");
  check_rules "lookup_index is the same scan" [ "interpreted-lookup" ]
    (lint ~path:"lib/remy/remy_cc.ml" "let f table p = Rule_table.lookup_index table p\n");
  check_rules "Policy.choice_for in the swarm client" [ "interpreted-lookup" ]
    (lint ~path:"lib/experiments/swarm.ml" "let f policy ctx = Policy.choice_for policy ctx\n");
  check_rules "qualified Policy.choice_for in phi_client" [ "interpreted-lookup" ]
    (lint ~path:"lib/core/phi_client.ml" "let f p ctx = Phi.Policy.choice_for p ctx\n")

let test_interpreted_lookup_compiled_forms_pass () =
  check_rules "Compiled_table.lookup is the point" []
    (lint ~path:tcp_path "let f table p = Compiled_table.lookup table p\n");
  check_rules "Policy.Compiled.choice_for is the point" []
    (lint ~path:"lib/experiments/swarm.ml"
       "let f policy ctx = Policy.Compiled.choice_for policy ctx\n")

let test_interpreted_lookup_scope () =
  (* The compilers lower via the interpreted forms; training and cold
     code may scan freely. *)
  check_rules "compiled_table.ml may lower" []
    (lint ~path:"lib/remy/compiled_table.ml"
       "let f table p = Rule_table.lookup_index table p\n");
  check_rules "policy.ml may resolve" []
    (lint ~path:"lib/core/policy.ml" "let f p ctx = Policy.choice_for p ctx\n");
  check_rules "trainer out of scope" []
    (lint ~path:"lib/remy/trainer.ml" "let f table p = Rule_table.lookup table p\n");
  check_rules "tests out of scope" []
    (lint ~path:"test/fixture.ml" "let f table p = Rule_table.lookup table p\n")

let test_interpreted_lookup_allow () =
  check_rules "suppressed with allow" []
    (lint ~path:tcp_path
       "(* phi-lint: allow interpreted-lookup *)\nlet f table p = Rule_table.lookup table p\n")

let test_in_decision_scope () =
  Alcotest.(check bool) "tcp in scope" true (Lint.in_decision_scope "lib/tcp/sender.ml");
  Alcotest.(check bool) "remy controller in scope" true
    (Lint.in_decision_scope "lib/remy/remy_cc.ml");
  Alcotest.(check bool) "swarm in scope" true
    (Lint.in_decision_scope "lib/experiments/swarm.ml");
  Alcotest.(check bool) "phi_client in scope" true
    (Lint.in_decision_scope "lib/core/phi_client.ml");
  Alcotest.(check bool) "compiler exempt" false
    (Lint.in_decision_scope "lib/remy/compiled_table.ml");
  Alcotest.(check bool) "policy compiler exempt" false
    (Lint.in_decision_scope "lib/core/policy.ml");
  Alcotest.(check bool) "trainer exempt" false (Lint.in_decision_scope "lib/remy/trainer.ml");
  Alcotest.(check bool) "tests exempt" false (Lint.in_decision_scope "test/test_remy.ml")

let test_in_transport_scope () =
  Alcotest.(check bool) "experiments in scope" true
    (Lint.in_transport_scope "lib/experiments/scenario.ml");
  Alcotest.(check bool) "core in scope" true (Lint.in_transport_scope "lib/core/phi_client.ml");
  Alcotest.(check bool) "tcp exempt" false (Lint.in_transport_scope "lib/tcp/sender.ml");
  Alcotest.(check bool) "net exempt" false (Lint.in_transport_scope "lib/net/node.ml");
  Alcotest.(check bool) "test exempt" false (Lint.in_transport_scope "test/test_tcp.ml")

(* {2 Fixture corpus: every rule, paired good/bad, exact violations}

   The files under [lint_fixtures/] are data, not build inputs; each is
   linted under a pretend path so the rule's scoping applies.  The bad
   fixtures seed the shapes only a dataflow or cross-module pass sees
   (cross-line use-after-release, nested mutable globals, allocation two
   calls below a hot entry point); the good twins must stay perfectly
   clean. *)

let read_fixture name =
  let ic = open_in_bin (Filename.concat "lint_fixtures" name) in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let locs_of vs = List.map (fun v -> (v.Lint.rule, v.Lint.line)) vs

let check_locs msg expected vs =
  Alcotest.(check (list (pair string int))) msg expected (locs_of vs)

let fixture_lint ~path name = Lint.lint_source ~path (read_fixture name)

(* Multi-file groups: every file in the group maps to lib/fix/<name>. *)
let fixture_tree group names =
  List.map (fun n -> ("lib/fix/" ^ n, read_fixture (Filename.concat group n))) names

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let single_file_cases =
  [
    ("obj_magic", "lib/fake/fixture.ml", [ ("obj-magic", 2) ]);
    ("poly_compare", "lib/fake/fixture.ml", [ ("poly-compare", 2) ]);
    ("poly_minmax", "lib/sim/fixture.ml", [ ("poly-compare", 2); ("poly-compare", 3) ]);
    ("float_equal", "lib/fake/fixture.ml", [ ("float-equal", 2) ]);
    ("list_nth", "lib/fake/fixture.ml", [ ("list-nth", 2) ]);
    ("hashtbl_find", "lib/fake/fixture.ml", [ ("hashtbl-find", 2) ]);
    ("failwith", "lib/fake/fixture.ml", [ ("failwith", 2) ]);
    ("exit", "lib/fake/fixture.ml", [ ("exit", 2) ]);
    (* Nested and indented bindings count too. *)
    ("domain_global", "lib/runner/fixture.ml",
     [ ("domain-global", 6); ("domain-global", 9) ]);
    ("hot_queue", "lib/net/fixture.ml", [ ("hot-queue", 2) ]);
    ("hot_hashtbl", "lib/net/fixture.ml", [ ("hot-hashtbl", 2) ]);
    ("hot_float_field", "lib/tcp/fixture.ml", [ ("hot-float-field", 2) ]);
    ("packet_escape", "lib/net/fixture.ml",
     [ ("packet-escape", 2); ("packet-escape", 4) ]);
    ("transport_unified", "lib/experiments/fixture.ml",
     [ ("transport-unified", 2) ]);
    ("interpreted_lookup", "lib/tcp/fixture.ml",
     [ ("interpreted-lookup", 3); ("interpreted-lookup", 4) ]);
    (* Release and use lines apart: the same-line packet-escape check
       stays silent (no packet-escape entry expected) — the lifetime pass
       owns all three findings. *)
    ("handle_lifetime", "lib/net/fixture.ml",
     [ ("handle-lifetime", 6); ("handle-lifetime", 10); ("handle-lifetime", 13) ]);
  ]

let test_fixture_pairs () =
  List.iter
    (fun (stem, path, expected) ->
      check_locs (stem ^ " bad") expected (fixture_lint ~path (stem ^ "_bad.ml"));
      check_locs (stem ^ " good") [] (fixture_lint ~path (stem ^ "_good.ml")))
    single_file_cases

let test_fixture_mli_doc () =
  check_locs "mli-doc bad" [ ("mli-doc", 1) ]
    (fixture_lint ~path:"lib/fake/fixture.mli" "mli_doc_bad.mli");
  check_locs "mli-doc good" []
    (fixture_lint ~path:"lib/fake/fixture.mli" "mli_doc_good.mli")

let test_fixture_missing_mli () =
  let bad = Lint.lint_tree (fixture_tree "missing_mli_bad" [ "thing.ml" ]) in
  check_locs "missing-mli bad" [ ("missing-mli", 1) ] bad;
  (match bad with
  | [ v ] -> Alcotest.(check string) "names the file" "lib/fix/thing.ml" v.Lint.file
  | _ -> Alcotest.fail "expected exactly one violation");
  check_locs "missing-mli good" []
    (Lint.lint_tree (fixture_tree "missing_mli_good" [ "thing.ml"; "thing.mli" ]))

let hot_alloc_files = [ "link.ml"; "link.mli"; "chain.ml"; "chain.mli" ]

let test_fixture_hot_alloc_chain () =
  (* The seeded bug: a closure allocated two calls below Link.send.  No
     single-file rule can see it; the effect pass must report it at the
     allocation site with the full call chain. *)
  let vs = Lint.lint_tree (fixture_tree "hot_alloc_bad" hot_alloc_files) in
  check_locs "closure two calls deep" [ ("hot-alloc", 3) ] vs;
  (match vs with
  | [ v ] ->
    Alcotest.(check string) "at the allocation site" "lib/fix/chain.ml" v.Lint.file;
    Alcotest.(check bool) "chain rendered" true
      (contains v.Lint.message "Link.send -> Chain.stage1 -> Chain.stage2")
  | _ -> Alcotest.fail "expected exactly one violation");
  check_locs "hoisted twin is clean" []
    (Lint.lint_tree (fixture_tree "hot_alloc_good" hot_alloc_files))

let domain_race_files =
  [ "runner.ml"; "runner.mli"; "work.ml"; "work.mli"; "metrics.ml"; "metrics.mli" ]

let test_fixture_domain_race () =
  (* The seeded bug: a nested, indented mutable global in one module,
     bumped by a job function two modules away from the Pool.map site. *)
  let vs = Lint.lint_tree (fixture_tree "domain_race_bad" domain_race_files) in
  check_locs "nested global reachable from pool job" [ ("domain-race", 3) ] vs;
  (match vs with
  | [ v ] ->
    Alcotest.(check string) "at the global's definition" "lib/fix/metrics.ml" v.Lint.file;
    Alcotest.(check bool) "chain rendered" true
      (contains v.Lint.message "Runner.launch -> Work.step -> Metrics.bump")
  | _ -> Alcotest.fail "expected exactly one violation");
  check_locs "per-job twin is clean" []
    (Lint.lint_tree (fixture_tree "domain_race_good" domain_race_files))

let test_fixture_pdes_race () =
  (* Same rule, the parallel-DES entry points: an island drain callback
     registered through Pdes.on_drain runs on a worker domain, so a
     module-level mutable reachable from it is a race. *)
  let vs = Lint.lint_tree (fixture_tree "pdes_race_bad" domain_race_files) in
  check_locs "global reachable from island drain" [ ("domain-race", 3) ] vs;
  (match vs with
  | [ v ] ->
    Alcotest.(check string) "at the global's definition" "lib/fix/metrics.ml" v.Lint.file;
    Alcotest.(check bool) "chain rendered" true
      (contains v.Lint.message "Runner.wire -> Work.step -> Metrics.bump")
  | _ -> Alcotest.fail "expected exactly one violation");
  check_locs "per-island twin is clean" []
    (Lint.lint_tree (fixture_tree "pdes_race_good" domain_race_files))

let test_fixture_dynamics_race () =
  (* Same rule, the scenario-plane entry points: a callback scripted
     through Dynamics.at / Dynamics.every runs inside a pool-fanned
     matrix cell, so a module-level mutable reachable from it is a
     race. *)
  let vs = Lint.lint_tree (fixture_tree "dynamics_race_bad" domain_race_files) in
  check_locs "global reachable from scripted event" [ ("domain-race", 3) ] vs;
  (match vs with
  | [ v ] ->
    Alcotest.(check string) "at the global's definition" "lib/fix/metrics.ml" v.Lint.file;
    Alcotest.(check bool) "chain rendered" true
      (contains v.Lint.message "Work.step -> Metrics.bump")
  | _ -> Alcotest.fail "expected exactly one violation");
  check_locs "per-cell twin is clean" []
    (Lint.lint_tree (fixture_tree "dynamics_race_good" domain_race_files))

let test_fixture_fanout_race () =
  (* Same rule, the seeded fan-out helper: every (group, seed) job of
     Pool.fan_out runs on a worker domain, so a module-level mutable
     reachable from it is a race. *)
  let vs = Lint.lint_tree (fixture_tree "fanout_race_bad" domain_race_files) in
  check_locs "global reachable from seeded job" [ ("domain-race", 3) ] vs;
  (match vs with
  | [ v ] ->
    Alcotest.(check string) "at the global's definition" "lib/fix/metrics.ml" v.Lint.file;
    Alcotest.(check bool) "chain rendered" true
      (contains v.Lint.message "Runner.launch -> Work.step -> Metrics.bump")
  | _ -> Alcotest.fail "expected exactly one violation");
  check_locs "per-job twin is clean" []
    (Lint.lint_tree (fixture_tree "fanout_race_good" domain_race_files))

(* {2 --json report schema} *)

let test_json_report_roundtrip () =
  let module J = Phi_util.Json in
  let vs =
    Lint.lint_source ~path:"lib/fake/fixture.ml"
      "let f x = Obj.magic x\nlet g h k = Hashtbl.find h k\n"
  in
  let report = Lint.json_report vs in
  match J.of_string (J.to_string report) with
  | Error e -> Alcotest.fail ("report does not parse back: " ^ e)
  | Ok parsed ->
    Alcotest.(check bool) "round-trips structurally" true (parsed = report);
    (match J.member "total" parsed with
    | Some (J.Int n) -> Alcotest.(check int) "total" 2 n
    | _ -> Alcotest.fail "total missing or mistyped");
    (match J.member "violations" parsed with
    | Some (J.List [ first; _ ]) ->
      (match (J.member "file" first, J.member "line" first, J.member "rule" first,
              J.member "message" first) with
      | Some (J.String f), Some (J.Int l), Some (J.String r), Some (J.String m) ->
        Alcotest.(check string) "file" "lib/fake/fixture.ml" f;
        Alcotest.(check int) "line" 1 l;
        Alcotest.(check string) "rule" "obj-magic" r;
        Alcotest.(check bool) "message non-empty" true (String.length m > 0)
      | _ -> Alcotest.fail "violation entry missing a field")
    | _ -> Alcotest.fail "violations missing or wrong arity");
    (match J.member "by_rule" parsed with
    | Some (J.Obj [ ("hashtbl-find", J.Int 1); ("obj-magic", J.Int 1) ]) -> ()
    | _ -> Alcotest.fail "by_rule counts wrong");
    (match J.member "by_file" parsed with
    | Some (J.Obj [ ("lib/fake/fixture.ml", J.Int 2) ]) -> ()
    | _ -> Alcotest.fail "by_file counts wrong")

let test_every_rule_has_description () =
  Alcotest.(check bool) "non-empty rule list" true (List.length Lint.rules >= 10);
  List.iter
    (fun (name, desc) ->
      Alcotest.(check bool)
        (Printf.sprintf "rule %s described" name)
        true
        (String.length name > 0 && String.length desc > 0))
    Lint.rules

(* {2 hot-float-field: boxed float stores in transport and controller state} *)

let test_hot_float_field_fires () =
  let mixed = "type t = { name : string; mutable cwnd : float }\n" in
  check_rules "mixed record in lib/tcp" [ "hot-float-field" ]
    (lint ~path:"lib/tcp/fixture.ml" mixed);
  check_rules "mixed record in lib/remy" [ "hot-float-field" ]
    (lint ~path:"lib/remy/fixture.ml" mixed);
  check_rules "Float.t is a float" [ "hot-float-field" ]
    (lint ~path:"lib/tcp/fixture.ml" "type t = { mutable w : Float.t; n : int }\n");
  check_rules "a float option is not a float" [ "hot-float-field" ]
    (lint ~path:"lib/tcp/fixture.ml" "type s = { mutable e : float option; mutable k : float }\n");
  check_rules "one finding per record" [ "hot-float-field" ]
    (lint ~path:"lib/tcp/fixture.ml"
       "type t = {\n  name : string;\n  mutable a : float;\n  mutable b : float;\n}\n");
  match Lint.lint_source ~path:"lib/tcp/fixture.ml" mixed with
  | [ v ] ->
    Alcotest.(check int) "at the declaration" 1 v.Lint.line;
    Alcotest.(check bool) "names the record and field" true
      (contains v.Lint.message "record t stores cwnd boxed")
  | _ -> Alcotest.fail "expected one violation"

let test_hot_float_field_scope () =
  let mixed = "type t = { name : string; mutable cwnd : float }\n" in
  check_rules "all-float record is flat" []
    (lint ~path:"lib/tcp/fixture.ml" "type t = { mutable a : float; b : float }\n");
  check_rules "immutable float beside an int" []
    (lint ~path:"lib/tcp/fixture.ml" "type t = { a : float; mutable n : int }\n");
  check_rules "interfaces out of scope" []
    (lint ~path:"lib/tcp/fixture.mli" ("(** Doc. *)\n" ^ mixed));
  check_rules "lib/net out of scope" [] (lint ~path:"lib/net/fixture.ml" mixed);
  check_rules "test out of scope" [] (lint ~path:"test/fixture.ml" mixed)

let test_hot_float_field_allow () =
  check_rules "suppressed with allow" []
    (lint ~path:"lib/tcp/fixture.ml"
       "(* phi-lint: allow hot-float-field *)\ntype t = { name : string; mutable cwnd : float }\n")

let suite =
  [
    Alcotest.test_case "obj-magic fires" `Quick test_obj_magic_fires;
    Alcotest.test_case "poly-compare fires" `Quick test_poly_compare_fires;
    Alcotest.test_case "float-equal fires" `Quick test_float_equal_fires;
    Alcotest.test_case "list-nth fires" `Quick test_list_nth_fires;
    Alcotest.test_case "hashtbl-find fires" `Quick test_hashtbl_find_fires;
    Alcotest.test_case "failwith is library-only" `Quick test_failwith_fires_in_lib_only;
    Alcotest.test_case "exit is library-only" `Quick test_exit_fires_in_lib_only;
    Alcotest.test_case "clean code passes" `Quick test_clean_code_passes;
    Alcotest.test_case "float bindings not flagged" `Quick test_float_binding_not_flagged;
    Alcotest.test_case "comments and strings immune" `Quick test_comments_and_strings_immune;
    Alcotest.test_case "line numbers" `Quick test_line_numbers;
    Alcotest.test_case "syntax error is an input error" `Quick test_syntax_error_is_an_input_error;
    Alcotest.test_case "allow on same line" `Quick test_allow_same_line;
    Alcotest.test_case "allow on previous line" `Quick test_allow_previous_line;
    Alcotest.test_case "allow is rule-specific" `Quick test_allow_is_rule_specific;
    Alcotest.test_case "allow does not leak" `Quick test_allow_does_not_leak_to_later_lines;
    Alcotest.test_case "mli-doc fires" `Quick test_mli_doc_fires;
    Alcotest.test_case "mli-doc satisfied" `Quick test_mli_doc_satisfied;
    Alcotest.test_case "missing-mli fires" `Quick test_missing_mli_fires;
    Alcotest.test_case "missing-mli is library-only" `Quick test_missing_mli_lib_only;
    Alcotest.test_case "in_lib classification" `Quick test_in_lib;
    Alcotest.test_case "tree lint sorted and rendered" `Quick test_tree_sorted_and_rendered;
    Alcotest.test_case "domain-global fires" `Quick test_domain_global_fires;
    Alcotest.test_case "domain-global scope" `Quick test_domain_global_scope;
    Alcotest.test_case "domain-global local state ok" `Quick test_domain_global_silent_on_local_state;
    Alcotest.test_case "domain-global allow" `Quick test_domain_global_allow;
    Alcotest.test_case "in_domain_pool classification" `Quick test_in_domain_pool;
    Alcotest.test_case "hot-queue fires" `Quick test_hot_queue_fires;
    Alcotest.test_case "hot-queue scope" `Quick test_hot_queue_scope;
    Alcotest.test_case "hot-queue allow" `Quick test_hot_queue_allow;
    Alcotest.test_case "in_hot_path classification" `Quick test_in_hot_path;
    Alcotest.test_case "packet-escape fires on legacy constructors" `Quick
      test_packet_escape_fires_on_legacy_constructors;
    Alcotest.test_case "packet-escape fires on mutable handle field" `Quick
      test_packet_escape_fires_on_mutable_handle_field;
    Alcotest.test_case "packet-escape fires on use-after-release" `Quick
      test_packet_escape_fires_on_use_after_release;
    Alcotest.test_case "packet-escape silent on contract code" `Quick
      test_packet_escape_silent_on_contract_code;
    Alcotest.test_case "packet-escape scope" `Quick test_packet_escape_scope;
    Alcotest.test_case "packet-escape allow" `Quick test_packet_escape_allow;
    Alcotest.test_case "transport-unified fires" `Quick test_transport_unified_fires;
    Alcotest.test_case "transport-unified scope" `Quick test_transport_unified_scope;
    Alcotest.test_case "transport-unified allow" `Quick test_transport_unified_allow;
    Alcotest.test_case "in_transport_scope classification" `Quick test_in_transport_scope;
    Alcotest.test_case "interpreted-lookup fires" `Quick test_interpreted_lookup_fires;
    Alcotest.test_case "interpreted-lookup compiled forms pass" `Quick
      test_interpreted_lookup_compiled_forms_pass;
    Alcotest.test_case "interpreted-lookup scope" `Quick test_interpreted_lookup_scope;
    Alcotest.test_case "interpreted-lookup allow" `Quick test_interpreted_lookup_allow;
    Alcotest.test_case "in_decision_scope classification" `Quick test_in_decision_scope;
    Alcotest.test_case "every rule described" `Quick test_every_rule_has_description;
    Alcotest.test_case "fixture corpus: paired good/bad" `Quick test_fixture_pairs;
    Alcotest.test_case "fixture corpus: mli-doc" `Quick test_fixture_mli_doc;
    Alcotest.test_case "fixture corpus: missing-mli" `Quick test_fixture_missing_mli;
    Alcotest.test_case "fixture corpus: hot-alloc chain" `Quick test_fixture_hot_alloc_chain;
    Alcotest.test_case "fixture corpus: domain-race" `Quick test_fixture_domain_race;
    Alcotest.test_case "fixture corpus: pdes domain-race" `Quick test_fixture_pdes_race;
    Alcotest.test_case "fixture corpus: dynamics domain-race" `Quick test_fixture_dynamics_race;
    Alcotest.test_case "fixture corpus: fan-out domain-race" `Quick test_fixture_fanout_race;
    Alcotest.test_case "json report round-trips" `Quick test_json_report_roundtrip;
    Alcotest.test_case "hot-hashtbl fires" `Quick test_hot_hashtbl_fires;
    Alcotest.test_case "hot-hashtbl scope" `Quick test_hot_hashtbl_scope;
    Alcotest.test_case "hot-hashtbl allow" `Quick test_hot_hashtbl_allow;
    Alcotest.test_case "hot-float-field fires" `Quick test_hot_float_field_fires;
    Alcotest.test_case "hot-float-field scope" `Quick test_hot_float_field_scope;
    Alcotest.test_case "hot-float-field allow" `Quick test_hot_float_field_allow;
  ]
