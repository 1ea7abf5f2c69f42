(* Not OCaml: phi-lint must reject this file as an input error
   (exit 2) rather than lint part of it. *)
let broken = (
