(** Wire format of the context service.

    The paper's protocol is two messages per connection — a lookup at
    connection start, a report at connection end — so the format is a
    compact, explicit binary layout rather than a generic serializer:

    {v
    byte 0          version (currently 1)
    byte 1          message tag
    then, per tag   length-prefixed path string, LEB128 varints for
                    non-negative integers, IEEE-754 little-endian bits
                    for floats
    v}

    Floats travel as raw bits, so the NaN sentinel of a report with no
    RTT samples survives the round trip.  Decoding never raises: any
    byte string — truncated, overlong, wrong version, unknown tag,
    trailing garbage — comes back as [Error reason].  Encodings are
    canonical (non-canonical varints are rejected), so a message has
    exactly one byte-level spelling — which is what lets the swarm
    benchmark checksum response bytes deterministically.  The format is
    versioned by its leading byte; a decoder rejects versions it does
    not speak instead of misparsing them. *)

val version : int
(** Version stamped into (and required of) every message. *)

type request =
  | Lookup of { path : string; max_staleness : int }
      (** Connection start.  [max_staleness] is the freshness demand in
          epochs: 0 means the answer must reflect every report received
          so far; [k] allows an answer computed up to [k] epochs ago. *)
  | Report of {
      path : string;
      bytes : int;
      duration_s : float;
      min_rtt : float;
      mean_rtt : float;
      retransmitted : int;
      segments : int;
    }  (** Connection end; the fields of {!Context_server.report}. *)

type response =
  | Context_of of { ctx : Context.t; epoch : int }
      (** Answer to a {!Lookup}; [epoch] is the epoch the answer was
          computed from, so the client can verify its freshness demand
          was met. *)
  | Accepted of { epoch : int }
      (** Answer to a {!Report}; [epoch] is the receiving shard's
          committed epoch (the batch the report will flush with). *)

val request_to_string : request -> string
(** The message's bytes, written once into a string of exactly their
    size.  Raises [Invalid_argument] on a negative integer field. *)

val response_to_string : response -> string

val decode_request : string -> (request, string) result
(** [Error reason] names the first malformed field; never raises. *)

val decode_response : string -> (response, string) result
