type t = {
  id : int;
  pool : Packet.pool;
  mutable routes : Link.t option array;  (* indexed by destination id *)
  mutable default_route : Link.t option;
  mutable slot_flows : int array;  (* bound flow of each slot, or -1 *)
  mutable slot_handlers : (Packet.handle -> unit) array;
  mutable unroutable_drops : int;
  mutable unclaimed_deliveries : int;
}

let[@inline never] negative fn field v =
  invalid_arg (Printf.sprintf "Node.%s: %s must be >= 0 (got %d)" fn field v)

(* Flow demux: a flow's slot is [flow land (capacity - 1)].  Bound flows
   are non-negative ([bind_flow] enforces it), so -1 marks a free slot.
   Only a packet carrying flow -1 could run a free slot's handler, and
   senders and receivers only send on their bound flows. *)
let free_slot (_ : Packet.handle) = ()

let create pool ~id =
  if id < 0 then negative "create" "id" id;
  {
    id;
    pool;
    routes = [||];
    default_route = None;
    slot_flows = [| -1 |];
    slot_handlers = [| free_slot |];
    unroutable_drops = 0;
    unclaimed_deliveries = 0;
  }

let id t = t.id
let pool t = t.pool

let add_route t ~dst link =
  if dst < 0 then negative "add_route" "dst" dst;
  let n = Array.length t.routes in
  if dst >= n then begin
    let routes = Array.make (Int.max (dst + 1) (2 * n)) None in
    Array.blit t.routes 0 routes 0 n;
    t.routes <- routes
  end;
  t.routes.(dst) <- Some link

let set_default_route t link = t.default_route <- Some link

(* Rebuild the slot table at twice the size, doubling again until every
   bound flow and the new binding sit in distinct slots. *)
let[@inline never] grow_slots t ~flow handler =
  let rec place cap =
    let flows = Array.make cap (-1) and handlers = Array.make cap free_slot in
    let put f h =
      let s = f land (cap - 1) in
      if flows.(s) >= 0 then false
      else begin
        flows.(s) <- f;
        handlers.(s) <- h;
        true
      end
    in
    let fits = ref (put flow handler) in
    Array.iteri (fun s f -> if f >= 0 then fits := !fits && put f t.slot_handlers.(s)) t.slot_flows;
    if !fits then begin
      t.slot_flows <- flows;
      t.slot_handlers <- handlers
    end
    else place (2 * cap)
  in
  place (2 * Array.length t.slot_flows)

let bind_flow t ~flow handler =
  if flow < 0 then negative "bind_flow" "flow" flow;
  let s = flow land (Array.length t.slot_flows - 1) in
  let bound = t.slot_flows.(s) in
  if bound < 0 || bound = flow then begin
    t.slot_flows.(s) <- flow;
    t.slot_handlers.(s) <- handler
  end
  else grow_slots t ~flow handler

let unbind_flow t ~flow =
  if flow < 0 then negative "unbind_flow" "flow" flow;
  let s = flow land (Array.length t.slot_flows - 1) in
  if t.slot_flows.(s) = flow then begin
    t.slot_flows.(s) <- -1;
    t.slot_handlers.(s) <- free_slot
  end

let[@inline never] unroutable t pkt dst =
  t.unroutable_drops <- t.unroutable_drops + 1;
  Packet.release t.pool pkt;
  invalid_arg (Printf.sprintf "Node %d: no route for destination %d" t.id dst)

let forward_default t pkt dst =
  match t.default_route with Some link -> Link.send link pkt | None -> unroutable t pkt dst

let receive t pkt =
  let dst = Packet.dst t.pool pkt in
  if dst = t.id then begin
    let flow = Packet.flow t.pool pkt in
    let s = flow land (Array.length t.slot_flows - 1) in
    if t.slot_flows.(s) = flow then t.slot_handlers.(s) pkt
    else t.unclaimed_deliveries <- t.unclaimed_deliveries + 1;
    (* Local delivery ends the packet's life: handlers read fields out
       and must not retain the handle. *)
    Packet.release t.pool pkt
  end
  else if dst >= 0 && dst < Array.length t.routes then
    match t.routes.(dst) with Some link -> Link.send link pkt | None -> forward_default t pkt dst
  else forward_default t pkt dst

let unroutable_drops t = t.unroutable_drops
let unclaimed_deliveries t = t.unclaimed_deliveries
