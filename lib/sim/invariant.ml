type violation = { rule : string; time : float; detail : string }

(* These globals are the sanctioned exception to the no-shared-state rule.
   Pool jobs may run armed (PHI_SANITIZE=1 does not force Pool to one
   worker), so every write to the accumulator below takes [lock]. *)
let armed = (* phi-lint: allow domain-race *)
  ref (match Sys.getenv_opt "PHI_SANITIZE" with Some "1" -> true | _ -> false)

let enabled () = !armed
let set_enabled b = armed := b

(* Keep a bounded prefix of the violations; a broken run can produce one
   per event, and the first few hundred are what you debug with. *)
let max_kept = 1000

let kept : violation list ref = ref []  (* newest first *) (* phi-lint: allow domain-race *)
let n_kept = ref 0 (* phi-lint: allow domain-race *)
let total = ref 0 (* phi-lint: allow domain-race *)

(* Taken only when armed: the disarmed path stays one load of [armed]. *)
let lock = Mutex.create ()

let record ~rule ~time detail =
  if !armed then
    Mutex.protect lock (fun () ->
        incr total;
        if !n_kept < max_kept then begin
          kept := { rule; time; detail } :: !kept;
          incr n_kept
        end)

let violations () = List.rev !kept
let count () = !total

let clear () =
  kept := [];
  n_kept := 0;
  total := 0

let report () =
  if !total = 0 then ""
  else begin
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf "phi-sanitize: %d invariant violation(s)\n" !total);
    List.iter
      (fun v ->
        Buffer.add_string buf (Printf.sprintf "  [t=%.9g] %s: %s\n" v.time v.rule v.detail))
      (violations ());
    if !total > !n_kept then
      Buffer.add_string buf (Printf.sprintf "  ... %d more suppressed\n" (!total - !n_kept));
    Buffer.contents buf
  end

let with_capture f =
  let saved_enabled = !armed in
  let saved_kept = !kept and saved_n = !n_kept and saved_total = !total in
  clear ();
  armed := true;
  let restore () =
    armed := saved_enabled;
    kept := saved_kept;
    n_kept := saved_n;
    total := saved_total
  in
  match f () with
  | result ->
    let captured = violations () in
    restore ();
    (result, captured)
  | exception e ->
    restore ();
    raise e
