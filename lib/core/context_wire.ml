(* Versioned wire format for the context service.  See context_wire.mli
   for the layout.  Each message is written into one exact-size [Bytes]
   and read in direct style by readers that raise a private exception,
   caught once per message: a decode allocates its message, an [Ok] and
   a cursor, so the hot swarm loop round-trips millions of messages
   without a serialization dependency. *)

let version = 1

type request =
  | Lookup of { path : string; max_staleness : int }
  | Report of {
      path : string;
      bytes : int;
      duration_s : float;
      min_rtt : float;
      mean_rtt : float;
      retransmitted : int;
      segments : int;
    }

type response =
  | Context_of of { ctx : Context.t; epoch : int }
  | Accepted of { epoch : int }

let tag_lookup = 0x01
let tag_report = 0x02
let tag_context = 0x81
let tag_accepted = 0x82

(* {2 Writers}

   Non-negative ints are LEB128 varints (7 bits per byte, high bit =
   continuation); floats are their IEEE-754 bits, little-endian, so NaN
   sentinels (a report with no RTT samples) survive the round trip.  A
   message's size is summed from its fields first, then each [put_*]
   writes at a position and returns the next one. *)

let varint_size n =
  if n < 0 then invalid_arg "Context_wire: negative integer field";
  let size = ref 1 and n = ref (n lsr 7) in
  while !n > 0 do
    incr size;
    n := !n lsr 7
  done;
  !size

let string_size s = varint_size (String.length s) + String.length s

let put_varint b pos n =
  let pos = ref pos and n = ref n in
  while !n >= 0x80 do
    Bytes.set b !pos (Char.unsafe_chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7;
    incr pos
  done;
  Bytes.set b !pos (Char.unsafe_chr !n);
  !pos + 1

let put_float b pos x =
  Bytes.set_int64_le b pos (Int64.bits_of_float x);
  pos + 8

let put_string b pos s =
  let pos = put_varint b pos (String.length s) in
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

(* A buffer of [size] bytes with the version and [tag] written. *)
let start size tag =
  let b = Bytes.create size in
  Bytes.set b 0 (Char.unsafe_chr version);
  Bytes.set b 1 (Char.unsafe_chr tag);
  b

let finish_write b pos =
  assert (pos = Bytes.length b);
  Bytes.unsafe_to_string b

let request_to_string = function
  | Lookup { path; max_staleness } ->
    let b = start (2 + string_size path + varint_size max_staleness) tag_lookup in
    let pos = put_string b 2 path in
    finish_write b (put_varint b pos max_staleness)
  | Report { path; bytes; duration_s; min_rtt; mean_rtt; retransmitted; segments } ->
    let size =
      2 + string_size path + varint_size bytes + 24 + varint_size retransmitted
      + varint_size segments
    in
    let b = start size tag_report in
    let pos = put_string b 2 path in
    let pos = put_varint b pos bytes in
    let pos = put_float b pos duration_s in
    let pos = put_float b pos min_rtt in
    let pos = put_float b pos mean_rtt in
    let pos = put_varint b pos retransmitted in
    finish_write b (put_varint b pos segments)

let response_to_string = function
  | Context_of { ctx; epoch } ->
    let size = 2 + varint_size epoch + 24 + varint_size ctx.Context.competing_senders in
    let b = start size tag_context in
    let pos = put_varint b 2 epoch in
    let pos = put_float b pos ctx.Context.utilization in
    let pos = put_float b pos ctx.Context.queue_delay_s in
    let pos = put_varint b pos ctx.Context.competing_senders in
    finish_write b (put_float b pos ctx.Context.loss_rate)
  | Accepted { epoch } ->
    let b = start (2 + varint_size epoch) tag_accepted in
    finish_write b (put_varint b 2 epoch)

(* {2 Readers}

   Every reader takes the source and a mutable position and returns the
   value, raising [Malformed] on bad bytes; [decode_request] and
   [decode_response] catch it once and return [Error], so decoding never
   raises, whatever the input bytes (the fuzz tests feed random
   garbage). *)

exception Malformed of string

let malformed reason = raise_notrace (Malformed reason)

type cursor = { src : string; mutable pos : int }

let read_byte c =
  let pos = c.pos in
  if pos >= String.length c.src then malformed "truncated message";
  c.pos <- pos + 1;
  Char.code (String.unsafe_get c.src pos)

let read_varint c =
  let acc = ref 0 and shift = ref 0 and more = ref true in
  while !more do
    if !shift > 56 then malformed "varint too long";
    let b = read_byte c in
    if b = 0 && !shift > 0 then malformed "non-canonical varint";
    acc := !acc lor ((b land 0x7f) lsl !shift);
    if !acc < 0 then malformed "varint overflow";
    if b land 0x80 = 0 then more := false else shift := !shift + 7
  done;
  !acc

let read_float c =
  let pos = c.pos in
  if pos + 8 > String.length c.src then malformed "truncated float";
  c.pos <- pos + 8;
  Int64.float_of_bits (String.get_int64_le c.src pos)

(* [len] can be any 62-bit varint, so compare it against the bytes left
   rather than adding it to the position, which could overflow. *)
let read_string c =
  let len = read_varint c in
  let pos = c.pos in
  if len > String.length c.src - pos then malformed "truncated string";
  c.pos <- pos + len;
  String.sub c.src pos len

let read_header c =
  let v = read_byte c in
  if v <> version then malformed (Printf.sprintf "unsupported wire version %d" v);
  read_byte c

let finish_read c = if c.pos <> String.length c.src then malformed "trailing bytes after message"

(* Fields are read in explicit [let]s: a record's fields would be
   evaluated right to left. *)
let read_request c =
  let tag = read_header c in
  if tag = tag_lookup then begin
    let path = read_string c in
    let max_staleness = read_varint c in
    finish_read c;
    Lookup { path; max_staleness }
  end
  else if tag = tag_report then begin
    let path = read_string c in
    let bytes = read_varint c in
    let duration_s = read_float c in
    let min_rtt = read_float c in
    let mean_rtt = read_float c in
    let retransmitted = read_varint c in
    let segments = read_varint c in
    finish_read c;
    Report { path; bytes; duration_s; min_rtt; mean_rtt; retransmitted; segments }
  end
  else malformed (Printf.sprintf "unknown request tag 0x%02x" tag)

let read_response c =
  let tag = read_header c in
  if tag = tag_context then begin
    let epoch = read_varint c in
    let utilization = read_float c in
    let queue_delay_s = read_float c in
    let competing_senders = read_varint c in
    let loss_rate = read_float c in
    finish_read c;
    Context_of { ctx = { Context.utilization; queue_delay_s; competing_senders; loss_rate }; epoch }
  end
  else if tag = tag_accepted then begin
    let epoch = read_varint c in
    finish_read c;
    Accepted { epoch }
  end
  else malformed (Printf.sprintf "unknown response tag 0x%02x" tag)

let decode_request src =
  match read_request { src; pos = 0 } with
  | req -> Ok req
  | exception Malformed reason -> Error reason

let decode_response src =
  match read_response { src; pos = 0 } with
  | resp -> Ok resp
  | exception Malformed reason -> Error reason
