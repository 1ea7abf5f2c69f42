(** Growable circular FIFO of ints — the hot-path replacement for
    [Stdlib.Queue].

    [Stdlib.Queue] allocates one cons cell per element; on the link
    transmit path that is one allocation per packet.  This ring keeps
    its elements in a contiguous [int array] whose capacity is a power
    of two, so a slot is one mask, and doubles it out of line when
    full: amortized zero allocation per push or pop.

    The ring holds ints only, because everything queued on the
    per-packet path is one: pooled packet handles (through
    [Phi_net.Packet.Fifo], the typed view) and segment numbers.  An int
    store needs no write barrier, so the inlined {!push}, {!pop} and
    {!peek} are a few instructions each, where a polymorphic ring pays
    an out-of-line call and a [caml_modify] per store.  The phi-lint
    [hot-queue] rule steers [lib/net], [lib/sim] and [lib/tcp] code
    here. *)

type t

val create : unit -> t
(** An empty ring; it allocates its storage on the first {!push}. *)

val length : t -> int
val is_empty : t -> bool

val push : t -> int -> unit
(** Append at the tail. *)

val pop : t -> int
(** Remove and return the head.  Raises [Invalid_argument] when empty. *)

val pop_opt : t -> int option

val peek : t -> int
(** Head without removing it.  Raises [Invalid_argument] when empty. *)

val peek_opt : t -> int option

val fold : ('acc -> int -> 'acc) -> 'acc -> t -> 'acc
(** Head-to-tail fold over the queued elements. *)

val iter : (int -> unit) -> t -> unit

val clear : t -> unit
(** Drop every element and release the backing storage. *)
