type t = {
  server : Context_server.t;
  policy : Policy.t;
  path : string;
  mutable compiled : Policy.Compiled.t;
  mutable last_context : Context.t option;
  mutable last_choice : Cc_algo.t option;
}

let create ~server ~policy ~path () =
  {
    server;
    policy;
    path;
    compiled = Policy.Compiled.compile policy;
    last_context = None;
    last_choice = None;
  }

let factory t () =
  let ctx = Context_server.lookup t.server ~path:t.path in
  (* Recompile lazily after [Policy.learn]; connection setup then pays
     one flat-array choice instead of a learned-table walk. *)
  if not (Policy.Compiled.is_fresh t.compiled t.policy) then
    t.compiled <- Policy.Compiled.compile t.policy;
  let choice = Policy.Compiled.choice_for t.compiled ctx in
  t.last_context <- Some ctx;
  t.last_choice <- Some choice;
  Cc_algo.basic_builder ~ctx choice

let on_conn_end t stats = Context_server.report_stats t.server ~path:t.path stats

let last_context t = t.last_context

let last_choice t = t.last_choice
