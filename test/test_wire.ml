(* The context-plane wire format: exact round-trips, NaN sentinel
   survival, and a decoder that rejects (never raises on) malformed
   bytes. *)

module Wire = Phi.Context_wire
module Context = Phi.Context

let check_float name a b =
  if Float.is_nan a then Alcotest.(check bool) (name ^ " nan") true (Float.is_nan b)
  else Alcotest.(check bool) name true (Float.equal a b)

let roundtrip_request req =
  match Wire.decode_request (Wire.request_to_string req) with
  | Ok r -> r
  | Error e -> Alcotest.fail ("request failed to decode: " ^ e)

let roundtrip_response resp =
  match Wire.decode_response (Wire.response_to_string resp) with
  | Ok r -> r
  | Error e -> Alcotest.fail ("response failed to decode: " ^ e)

let test_lookup_roundtrip () =
  match roundtrip_request (Wire.Lookup { path = "subnet-4242"; max_staleness = 3 }) with
  | Wire.Lookup { path; max_staleness } ->
    Alcotest.(check string) "path" "subnet-4242" path;
    Alcotest.(check int) "staleness" 3 max_staleness
  | Wire.Report _ -> Alcotest.fail "tag confusion"

let test_report_roundtrip () =
  let req =
    Wire.Report
      {
        path = "p";
        bytes = max_int;
        duration_s = 12.25;
        min_rtt = 0.02;
        mean_rtt = 0.0275;
        retransmitted = 0;
        segments = 1 lsl 40;
      }
  in
  match roundtrip_request req with
  | Wire.Report { path; bytes; duration_s; min_rtt; mean_rtt; retransmitted; segments } ->
    Alcotest.(check string) "path" "p" path;
    Alcotest.(check int) "bytes (max_int varint)" max_int bytes;
    check_float "duration" 12.25 duration_s;
    check_float "min rtt" 0.02 min_rtt;
    check_float "mean rtt" 0.0275 mean_rtt;
    Alcotest.(check int) "retransmitted" 0 retransmitted;
    Alcotest.(check int) "segments" (1 lsl 40) segments
  | Wire.Lookup _ -> Alcotest.fail "tag confusion"

(* A connection that took no RTT sample reports NaN; the sentinel must
   survive the trip bit-exactly enough to still be NaN. *)
let test_nan_sentinel_survives () =
  let req =
    Wire.Report
      {
        path = "";
        bytes = 0;
        duration_s = 0.;
        min_rtt = Float.nan;
        mean_rtt = Float.nan;
        retransmitted = 0;
        segments = 0;
      }
  in
  match roundtrip_request req with
  | Wire.Report { path; min_rtt; mean_rtt; _ } ->
    Alcotest.(check string) "empty path ok" "" path;
    Alcotest.(check bool) "min nan" true (Float.is_nan min_rtt);
    Alcotest.(check bool) "mean nan" true (Float.is_nan mean_rtt)
  | Wire.Lookup _ -> Alcotest.fail "tag confusion"

let test_response_roundtrip () =
  let ctx =
    { Context.utilization = 0.73; queue_delay_s = 1e-3; competing_senders = 17; loss_rate = 0.05 }
  in
  (match roundtrip_response (Wire.Context_of { ctx; epoch = 999 }) with
  | Wire.Context_of { ctx = c; epoch } ->
    Alcotest.(check int) "epoch" 999 epoch;
    check_float "utilization" ctx.Context.utilization c.Context.utilization;
    check_float "queue delay" ctx.Context.queue_delay_s c.Context.queue_delay_s;
    Alcotest.(check int) "senders" 17 c.Context.competing_senders;
    check_float "loss" ctx.Context.loss_rate c.Context.loss_rate
  | Wire.Accepted _ -> Alcotest.fail "tag confusion");
  match roundtrip_response (Wire.Accepted { epoch = 0 }) with
  | Wire.Accepted { epoch } -> Alcotest.(check int) "accepted epoch" 0 epoch
  | Wire.Context_of _ -> Alcotest.fail "tag confusion"

let expect_error name = function
  | Error (_ : string) -> ()
  | Ok (_ : Wire.request) -> Alcotest.fail (name ^ ": malformed bytes decoded")

let test_malformed_rejected () =
  let good = Wire.request_to_string (Wire.Lookup { path = "subnet-1"; max_staleness = 2 }) in
  expect_error "empty" (Wire.decode_request "");
  expect_error "truncated" (Wire.decode_request (String.sub good 0 (String.length good - 1)));
  expect_error "trailing" (Wire.decode_request (good ^ "\x00"));
  expect_error "bad version"
    (Wire.decode_request ("\x07" ^ String.sub good 1 (String.length good - 1)));
  expect_error "unknown tag" (Wire.decode_request "\x01\x7f");
  (* A length prefix pointing past the end of the message. *)
  expect_error "overlong string" (Wire.decode_request "\x01\x01\xffhello");
  (* A varint that never terminates / exceeds 63 bits. *)
  expect_error "runaway varint"
    (Wire.decode_request "\x01\x02ab\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff")

(* Feed arbitrary bytes to both decoders: they must return (not raise),
   and anything they accept must re-encode to the very same bytes —
   i.e. the format has no two spellings of one message. *)
let prop_decode_total_and_canonical =
  QCheck.Test.make ~name:"decoder total on garbage; accepted bytes are canonical" ~count:2000
    QCheck.(string_of Gen.char)
    (fun s ->
      (match Wire.decode_request s with
      | Ok req -> String.equal (Wire.request_to_string req) s
      | Error (_ : string) -> true)
      &&
      match Wire.decode_response s with
      | Ok resp -> String.equal (Wire.response_to_string resp) s
      | Error (_ : string) -> true)

let prop_report_roundtrips =
  QCheck.Test.make ~name:"random reports round-trip" ~count:500
    QCheck.(
      pair
        (pair (string_of Gen.printable) (pair (int_bound 1_000_000_000) pos_float))
        (pair (pair pos_float pos_float) (pair (int_bound 10_000) (int_bound 100_000))))
    (fun ((path, (bytes, duration_s)), ((min_rtt, mean_rtt), (retransmitted, segments))) ->
      let req =
        Wire.Report { path; bytes; duration_s; min_rtt; mean_rtt; retransmitted; segments }
      in
      match Wire.decode_request (Wire.request_to_string req) with
      | Ok (Wire.Report r) ->
        String.equal r.path path && r.bytes = bytes
        && Float.equal r.duration_s duration_s
        && Float.equal r.min_rtt min_rtt && Float.equal r.mean_rtt mean_rtt
        && r.retransmitted = retransmitted && r.segments = segments
      | Ok (Wire.Lookup _) | Error _ -> false)

(* {2 Pinned error strings}

   Each malformed input's exact reason, as the decoder reported it
   before it moved to direct-style readers.  The one exception is a
   length prefix near [max_int], which overflowed the bounds check into
   [String.sub] and raised. *)

let request_error s =
  match Wire.decode_request s with Ok (_ : Wire.request) -> "accepted" | Error e -> e

let response_error s =
  match Wire.decode_response s with Ok (_ : Wire.response) -> "accepted" | Error e -> e

let test_malformed_error_strings () =
  let good = Wire.request_to_string (Wire.Lookup { path = "subnet-1"; max_staleness = 2 }) in
  List.iter
    (fun (name, input, expected) -> Alcotest.(check string) name expected (request_error input))
    [
      ("empty", "", "truncated message");
      ("version only", "\x01", "truncated message");
      ("string past the end", "\x01\x01\x05ab", "truncated string");
      ("float past the end", "\x01\x02\x01a\x00\x01\x02", "truncated float");
      ("trailing byte", good ^ "\x00", "trailing bytes after message");
      ( "wire version 7",
        "\x07" ^ String.sub good 1 (String.length good - 1),
        "unsupported wire version 7" );
      ("request tag 0x7f", "\x01\x7f", "unknown request tag 0x7f");
      ("ten-byte varint", "\x01\x01" ^ String.make 9 '\x80' ^ "\x00", "varint too long");
      ("zero continuation byte", "\x01\x01\x80\x00", "non-canonical varint");
      ("varint past 62 bits", "\x01\x01" ^ String.make 9 '\xff', "varint overflow");
      ("max_int length", "\x01\x01" ^ String.make 8 '\xff' ^ "\x3f", "truncated string");
    ];
  Alcotest.(check string) "response tag 0x7f" "unknown response tag 0x7f" (response_error "\x01\x7f");
  Alcotest.(check string) "response float past the end" "truncated float"
    (response_error "\x01\x81\x01")

(* {2 Exhaustive prefixes and byte mutations}

   Over a lookup, a report with the NaN RTT sentinel and both
   responses: every proper prefix is rejected, and every single-byte
   mutation is either rejected or decodes to a message that re-encodes
   to exactly the mutated bytes. *)

let reencode_request s =
  match Wire.decode_request s with
  | Ok req -> Some (Wire.request_to_string req)
  | Error (_ : string) -> None

let reencode_response s =
  match Wire.decode_response s with
  | Ok resp -> Some (Wire.response_to_string resp)
  | Error (_ : string) -> None

let check_prefixes_and_mutations name reencode s =
  for len = 0 to String.length s - 1 do
    if Option.is_some (reencode (String.sub s 0 len)) then
      Alcotest.failf "%s: prefix of %d bytes accepted" name len
  done;
  for i = 0 to String.length s - 1 do
    for byte = 0 to 255 do
      let mutated = Bytes.of_string s in
      Bytes.set mutated i (Char.chr byte);
      let mutated = Bytes.to_string mutated in
      match reencode mutated with
      | None -> ()
      | Some back ->
        if not (String.equal back mutated) then
          Alcotest.failf "%s: byte %d set to 0x%02x decodes but re-encodes differently" name i byte
    done
  done

let test_prefixes_and_mutations () =
  let ctx =
    { Context.utilization = 0.61; queue_delay_s = 0.004; competing_senders = 300; loss_rate = 0.02 }
  in
  check_prefixes_and_mutations "lookup" reencode_request
    (Wire.request_to_string (Wire.Lookup { path = "subnet-42"; max_staleness = 2 }));
  check_prefixes_and_mutations "report" reencode_request
    (Wire.request_to_string
       (Wire.Report
          {
            path = "subnet-42";
            bytes = 123_456;
            duration_s = 1.5;
            min_rtt = Float.nan;
            mean_rtt = Float.nan;
            retransmitted = 3;
            segments = 300;
          }));
  check_prefixes_and_mutations "context" reencode_response
    (Wire.response_to_string (Wire.Context_of { ctx; epoch = 1234 }));
  check_prefixes_and_mutations "accepted" reencode_response
    (Wire.response_to_string (Wire.Accepted { epoch = 77 }))

let suite =
  [
    Alcotest.test_case "lookup round-trips" `Quick test_lookup_roundtrip;
    Alcotest.test_case "report round-trips (varint edges)" `Quick test_report_roundtrip;
    Alcotest.test_case "nan rtt sentinel survives" `Quick test_nan_sentinel_survives;
    Alcotest.test_case "responses round-trip" `Quick test_response_roundtrip;
    Alcotest.test_case "malformed bytes rejected" `Quick test_malformed_rejected;
    QCheck_alcotest.to_alcotest prop_decode_total_and_canonical;
    QCheck_alcotest.to_alcotest prop_report_roundtrips;
    Alcotest.test_case "malformed bytes name their error" `Quick test_malformed_error_strings;
    Alcotest.test_case "prefixes rejected, mutations canonical" `Quick
      test_prefixes_and_mutations;
  ]
