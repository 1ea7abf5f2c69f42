module Cc_algo = Phi.Cc_algo
module Context_server = Phi.Context_server
module Policy = Phi.Policy
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

type choice = Algorithm of Cc_algo.t | Policy of Policy.t

type wiring = {
  cc_factory : int -> unit -> Phi_tcp.Cc.t;
  attach : Phi_sim.Engine.t -> unit;
  on_conn_end : Phi_tcp.Flow.conn_stats -> unit;
  messages : unit -> int;
}

(* The practical protocol: one lookup as each connection starts, whose
   context [pick] maps to the algorithm the connection builds, and one
   report as it ends. *)
let served t ~capacity_bps ~path pick =
  let server = ref None and messages = ref 0 in
  let with_server f =
    match !server with
    | Some s ->
      incr messages;
      f s
    | None -> invalid_arg "Cc_select.wire: served connection before attach"
  in
  {
    cc_factory =
      (fun _ () ->
        let ctx = with_server (fun s -> Context_server.lookup s ~path) in
        builder t ~ctx (pick ctx));
    attach = (fun engine -> server := Some (Context_server.create engine ~capacity_bps ()));
    on_conn_end = (fun stats -> with_server (fun s -> Context_server.report_stats s ~path stats));
    messages = (fun () -> !messages);
  }

let wire t ~capacity_bps ~path = function
  | Algorithm Cc_algo.Remy_phi -> served t ~capacity_bps ~path (fun _ -> Cc_algo.Remy_phi)
  | Policy policy ->
    served t ~capacity_bps ~path (Policy.Compiled.choice_for (Policy.Compiled.compile policy))
  | Algorithm ((Cc_algo.Cubic _ | Cc_algo.Reno _ | Cc_algo.Vegas | Cc_algo.Remy) as algo) ->
    {
      cc_factory = (fun _ () -> builder t ~ctx:Phi.Context.empty algo);
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
