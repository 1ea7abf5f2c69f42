(** Per-segment flags over a sliding window of sequence numbers: the
    sender's SACK scoreboard.

    The owner keeps the window's base — the sender's [snd_una] — and
    passes it to every call.  The ring
    holds one byte of flags for each sequence number in
    [\[base, base + capacity)], stored at [seq land (capacity - 1)], so a
    lookup is one subtraction, one compare and one load, and nothing
    hashes.  Sequence numbers outside the window read as [0].

    The owner must zero a sequence number's flags before its base moves
    past it (or {!clear} the ring), so that a slot reads [0] when a later
    sequence number wraps onto it.

    The ring starts empty and allocates on the first {!set}; it grows out
    of line, doubling from {!initial_capacity} until the set sequence
    number fits, and never shrinks. *)

type t

val initial_capacity : int
(** Slots allocated by the first {!set} of a sequence number less than
    this far above the base. *)

val create : unit -> t

val get : t -> base:int -> int -> int
(** The flags of a sequence number, [0] outside the window. *)

val set : t -> base:int -> int -> int -> unit
(** [set t ~base seq flags] stores [flags] (in [\[0, 255\]]) for [seq],
    growing the ring when [seq] lies at or beyond [base + capacity].
    Raises [Invalid_argument] when [seq < base]. *)

val clear : t -> unit
(** Zero every slot, keeping the storage. *)
