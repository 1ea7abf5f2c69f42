(* Under PHI_SANITIZE=1 an example's runs are checked against the
   simulator's invariants.  Each example calls [check] last: it prints
   "sanitize: clean", or the violation report and exits 1.  Unarmed, it
   prints nothing. *)

module Invariant = Phi_sim.Invariant

let check () =
  if Invariant.enabled () then
    if Invariant.count () = 0 then print_endline "sanitize: clean"
    else begin
      prerr_string (Invariant.report ());
      exit 1
    end
