(* phi-json-check: validate a bench report produced by
   [bench/main.exe --json PATH] (schema phi-bench-report/9).  Exits
   non-zero when the file is missing, malformed JSON, of another
   schema, missing a section one of its experiments emits (or carrying
   one no listed experiment emits), or over a committed budget — the CI
   gate for the bench smoke run's artifact.  All validation lives in
   [Phi_check.Report_check] so the gate itself is unit-testable; this
   wrapper only maps the result to an exit code. *)

let () =
  let path =
    match Sys.argv with
    | [| _; path |] -> path
    | _ ->
      prerr_endline "usage: phi_json_check REPORT.json";
      exit 2
  in
  match Phi_util.Json.of_file ~path with
  | Error msg ->
    prerr_endline (Printf.sprintf "phi-json-check: %s: %s" path msg);
    exit 1
  | Ok doc -> (
    match Phi_check.Report_check.check ~path doc with
    | Ok () -> Printf.printf "phi-json-check: %s ok\n" path
    | Error msg ->
      prerr_endline ("phi-json-check: " ^ msg);
      exit 1)
