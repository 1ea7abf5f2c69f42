module Engine = Phi_sim.Engine
module Node = Phi_net.Node
module Packet = Phi_net.Packet
module Prng = Phi_util.Prng
module Dist = Phi_util.Dist

type config = { mean_on_bytes : float; mean_off_s : float }

type t = {
  engine : Engine.t;
  rng : Prng.t;
  flows : Flow.allocator;
  src_node : Node.t;
  dst_node : Node.t;
  index : int;
  cc_factory : unit -> Cc.t;
  on_conn_end : Flow.conn_stats -> unit;
  config : config;
  mutable running : bool;
  mutable started : bool;
  mutable current : (Sender.t * Receiver.t) option;
  mutable records : Flow.conn_stats list;  (* newest first *)
  mutable completed : int;
}

let off_delay t =
  if t.config.mean_off_s <= 0. then 0. else Dist.exponential t.rng ~mean:t.config.mean_off_s

let transfer_segments t =
  let bytes = Dist.exponential t.rng ~mean:t.config.mean_on_bytes in
  Int.max 1 (int_of_float (Float.round (bytes /. float_of_int Packet.mss)))

let rec launch t =
  if t.running then begin
    let flow = Flow.fresh t.flows in
    let receiver =
      Receiver.create t.engine ~node:t.dst_node ~flow ~peer:(Node.id t.src_node)
    in
    let cc = t.cc_factory () in
    let total_segments = transfer_segments t in
    let on_complete stats =
      Receiver.close receiver;
      t.current <- None;
      t.records <- stats :: t.records;
      t.completed <- t.completed + 1;
      t.on_conn_end stats;
      schedule_next t
    in
    let sender =
      Sender.create t.engine ~node:t.src_node ~flow ~dst:(Node.id t.dst_node) ~cc
        ~total_segments ~source_index:t.index ~on_complete ()
    in
    t.current <- Some (sender, receiver);
    Sender.start sender
  end

and schedule_next t =
  if t.running then
    ignore (Engine.schedule_after t.engine ~delay:(off_delay t) (fun () -> launch t))

let create engine ~rng ~flows ~src_node ~dst_node ~index ~cc_factory
    ?(on_conn_end = fun _ -> ()) config =
  if config.mean_on_bytes <= 0. then invalid_arg "Source.create: mean_on_bytes must be positive";
  if config.mean_off_s < 0. then invalid_arg "Source.create: negative mean_off_s";
  {
    engine;
    rng;
    flows;
    src_node;
    dst_node;
    index;
    cc_factory;
    on_conn_end;
    config;
    running = false;
    started = false;
    current = None;
    records = [];
    completed = 0;
  }

let start t =
  if not t.started then begin
    t.started <- true;
    t.running <- true;
    schedule_next t
  end

let stop t = t.running <- false

let abort_current t =
  stop t;
  match t.current with
  | Some (sender, receiver) ->
    Sender.abort sender;
    Receiver.close receiver;
    t.current <- None
  | None -> ()

let records t = List.rev t.records

let connections_completed t = t.completed
