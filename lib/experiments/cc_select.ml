module Cc_algo = Phi.Cc_algo
module Context_server = Phi.Context_server
module Remy_cc = Phi_remy.Remy_cc
module Compiled_table = Phi_remy.Compiled_table

type t = { remy_table : Compiled_table.t; remy_phi_table : Compiled_table.t }

let create ?remy_table ?remy_phi_table () =
  let compile_or default = function
    | Some table -> Compiled_table.compile table
    | None -> Compiled_table.compile (default ())
  in
  {
    remy_table = compile_or Phi_remy.Pretrained.remy remy_table;
    remy_phi_table = compile_or Phi_remy.Pretrained.remy_phi remy_phi_table;
  }

let builder t : Cc_algo.builder =
 fun ~ctx algo ->
  match algo with
  | Cc_algo.Remy -> Remy_cc.make ~table:t.remy_table ~util:`None ()
  | Cc_algo.Remy_phi ->
    (* The utilization signal is the one the Phi lookup already returned:
       same single round trip as every other algorithm. *)
    let u = ctx.Phi.Context.utilization in
    Remy_cc.make ~table:t.remy_phi_table ~util:(`At_start (fun () -> u)) ()
  | Cc_algo.Cubic _ | Cc_algo.Reno _ | Cc_algo.Vegas -> Cc_algo.basic_builder ~ctx algo

type wiring = {
  cc_factory : int -> unit -> Phi_tcp.Cc.t;
  attach : Phi_sim.Engine.t -> unit;
  on_conn_end : Phi_tcp.Flow.conn_stats -> unit;
  messages : unit -> int;
}

let wire t ~capacity_bps ~path algo =
  let build ctx = builder t ~ctx algo in
  match algo with
  | Cc_algo.Remy_phi ->
    let server = ref None and messages = ref 0 in
    let with_server f =
      match !server with
      | Some s ->
        incr messages;
        f s
      | None -> invalid_arg "Cc_select.wire: remy-phi connection before attach"
    in
    {
      (* One lookup as each connection starts. *)
      cc_factory = (fun _ () -> build (with_server (fun s -> Context_server.lookup s ~path)));
      attach = (fun engine -> server := Some (Context_server.create engine ~capacity_bps ()));
      on_conn_end = (fun stats -> with_server (fun s -> Context_server.report_stats s ~path stats));
      messages = (fun () -> !messages);
    }
  | Cc_algo.Cubic _ | Cc_algo.Reno _ | Cc_algo.Vegas | Cc_algo.Remy ->
    {
      cc_factory = (fun _ () -> build Phi.Context.empty);
      attach = ignore;
      on_conn_end = ignore;
      messages = (fun () -> 0);
    }

let parse_cc s =
  match Cc_algo.of_name (String.lowercase_ascii (String.trim s)) with
  | Some algo -> algo
  | None ->
    invalid_arg
      (Printf.sprintf "unknown congestion-control algorithm %S (registered: %s)" s
         (String.concat ", " Cc_algo.names))
