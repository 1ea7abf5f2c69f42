(* domain-race: mutable module-level state reachable from pool jobs.

   Phi_runner.Pool fans work out across domains; any module-level
   mutable binding touched by code a pool job can reach is a data race
   waiting for a reproduction nobody will enjoy.  This pass takes every
   function that references a multi-domain entry point — Pool.map /
   Pool.try_map / Pool.fan_out, the Pdes window and drain hooks, or the
   Dynamics.at / Dynamics.every script combinators whose callbacks run
   inside pool-fanned scenario cells — as a root, walks the call graph
   including cold edges (a race in an error path is still a race), and
   flags each module-level mutable global any reachable function refers
   to.

   Reports are deduplicated per global and placed at the global's
   definition line — that is where the fix (thread the state through
   the job, or justify the exception) lives. *)

type finding = { file : string; line : int; message : string }

let render_chain chain = String.concat " -> " chain

let violations graph =
  let roots =
    List.filter (fun (f : Ast_scan.func) -> f.f_pool_spawn) (Callgraph.funcs graph)
  in
  let paths = Callgraph.reach graph ~roots ~include_cold:true in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let out = ref [] in
  List.iter
    (fun (f : Ast_scan.func) ->
      match Hashtbl.find_opt paths f.f_id with
      | None -> ()
      | Some chain ->
        let caller_module = Callgraph.caller_module_of f in
        List.iter
          (fun (c : Ast_scan.call) ->
            match Callgraph.resolve_global graph ~caller_module c.c_path with
            | None -> ()
            | Some g ->
              if not (Hashtbl.mem seen g.g_id) then begin
                Hashtbl.replace seen g.g_id ();
                out :=
                  {
                    file = g.g_file;
                    line = g.g_line;
                    message =
                      Printf.sprintf
                        "mutable global %s (%s) touched by %s, reachable from pool job via %s"
                        g.g_id g.g_what f.f_id (render_chain chain);
                  }
                  :: !out
              end)
          f.f_calls)
    (Callgraph.funcs graph);
  List.rev !out
