(** hot-alloc: allocation sites on the hot paths of the call graph.

    {!violations} reports every non-cold allocation site in every
    function reachable from the hot entry points through non-cold
    edges, each carrying the call chain that makes it hot. *)

type finding = { file : string; line : int; message : string }

val violations : Callgraph.t -> finding list
(** One finding per non-cold allocation site reachable from the
    steady-state hot paths, in file order of discovery.  The entry
    points are the engine event loop ([Engine.step] / [Engine.run]),
    the link pipeline ([Link.send] and its service / completion /
    delivery handlers), local delivery ([Node.receive]), and the
    transport per-packet handlers ([Sender.on_ack] /
    [Sender.on_packet], [Receiver.handle] / [Receiver.send_ack]).
    Setup paths are deliberately absent. *)
