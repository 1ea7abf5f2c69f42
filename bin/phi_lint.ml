(* phi-lint driver: walk the given roots (default: the current
   directory), lint every .ml/.mli found, print diagnostics, and exit 1
   on any violation.  A missing root or a source that does not parse
   is an input error: exit 2.  Wired into the build as [dune build
   @lint].  [--json PATH] additionally writes the machine-readable
   report (Lint.json_report) that CI uploads as an artifact. *)

let skip_dir name =
  name = "_build" || name = "_opam"
  || name = "lint_fixtures" (* the test corpus is deliberately full of violations *)
  || (String.length name > 0 && name.[0] = '.')

let has_suffix ~suffix s =
  let sn = String.length suffix and n = String.length s in
  n >= sn && String.sub s (n - sn) sn = suffix

let rec walk acc path =
  if Sys.file_exists path then
    if Sys.is_directory path then
      Array.fold_left
        (fun acc entry ->
          if skip_dir entry then acc else walk acc (Filename.concat path entry))
        acc (Sys.readdir path)
    else if has_suffix ~suffix:".ml" path || has_suffix ~suffix:".mli" path then path :: acc
    else acc
  else acc

let read_file path = In_channel.with_open_bin path In_channel.input_all

let () =
  let rec parse_args json roots = function
    | [] -> (json, List.rev roots)
    | "--json" :: path :: rest -> parse_args (Some path) roots rest
    | "--json" :: [] ->
      prerr_endline "phi-lint: --json requires a path";
      exit 2
    | root :: rest -> parse_args json (root :: roots) rest
  in
  let json, roots = parse_args None [] (List.tl (Array.to_list Sys.argv)) in
  let roots = match roots with [] -> [ "." ] | roots -> roots in
  (* A typo'd root must not pass the gate as "0 files clean". *)
  List.iter
    (fun root ->
      if not (Sys.file_exists root) then begin
        Printf.eprintf "phi-lint: no such file or directory: %s\n" root;
        exit 2
      end)
    roots;
  let files = List.sort String.compare (List.concat_map (walk []) roots) in
  let sources = List.map (fun path -> (path, read_file path)) files in
  let violations =
    try Lint.lint_tree sources
    with Lint.Syntax_error { file; line; message } ->
      Printf.eprintf "%s:%d: syntax error: %s\n" file line message;
      exit 2
  in
  Option.iter
    (fun path -> Phi_util.Json.to_file ~path (Lint.json_report violations))
    json;
  List.iter (fun v -> print_endline (Lint.to_string v)) violations;
  match violations with
  | [] -> Printf.eprintf "phi-lint: %d files clean\n" (List.length files)
  | vs ->
    Printf.eprintf "phi-lint: %d violation(s) in %d files\n" (List.length vs)
      (List.length files);
    exit 1
