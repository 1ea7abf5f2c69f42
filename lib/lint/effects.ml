(* hot-alloc: allocation sites on the hot paths.

   The violation pass walks every function reachable from the hot entry
   points through non-cold edges and reports each non-cold allocation
   site, carrying the call chain so the report explains *why* the site
   is hot.  This is the static complement of the runtime
   words-per-packet gate: the gate samples the packets a bench run
   happens to execute; this pass quantifies over every path the call
   graph can prove. *)

(* The steady-state hot paths: the engine event loop, the link/port
   pipeline, local packet delivery, and the sender/receiver per-packet
   handlers.  Setup ([create], [bind], topology builders) is
   deliberately absent — allocation there is amortized across a run. *)
let default_entries =
  [
    "Engine.step"; "Engine.run";
    "Link.send"; "Link.start_service"; "Link.on_tx_done"; "Link.on_deliver";
    "Node.receive";
    "Sender.on_ack"; "Sender.on_packet";
    "Receiver.handle"; "Receiver.send_ack";
  ]

(* Render a call chain compactly: entry, an ellipsis when deep, and the
   last couple of hops — enough to locate the path without drowning the
   diagnostic. *)
let render_chain chain =
  match chain with
  | [] -> ""
  | [ only ] -> only
  | _ ->
    let n = List.length chain in
    if n <= 4 then String.concat " -> " chain
    else
      let arr = Array.of_list chain in
      Printf.sprintf "%s -> ... -> %s -> %s" arr.(0) arr.(n - 2) arr.(n - 1)

type finding = { file : string; line : int; message : string }

let violations graph =
  let roots = List.concat_map (Callgraph.find graph) default_entries in
  let paths = Callgraph.reach graph ~roots ~include_cold:false in
  let out = ref [] in
  List.iter
    (fun (f : Ast_scan.func) ->
      match Hashtbl.find_opt paths f.f_id with
      | None -> ()
      | Some chain ->
        List.iter
          (fun (a : Ast_scan.alloc) ->
            if not a.a_cold then
              out :=
                {
                  file = f.f_file;
                  line = a.a_line;
                  message =
                    Printf.sprintf "%s (%s) in %s, hot via %s"
                      (Ast_scan.kind_to_string a.a_kind)
                      a.a_what f.f_id (render_chain chain);
                }
                :: !out)
          f.f_allocs)
    (Callgraph.funcs graph);
  List.rev !out
