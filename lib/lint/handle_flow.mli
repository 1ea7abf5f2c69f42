(** handle-lifetime: intraprocedural dataflow over pooled Packet
    handles.

    Abstract interpretation per function: each handle variable maps to
    a cell in the lattice [Live] / [Rel] (released) / [Maybe] (released
    on some path; the join of the other two).  [let y = x] aliases;
    releasing an as-yet-untracked variable (a parameter) starts
    tracking it; passing a handle to anything other than a [Packet.*]
    accessor transfers ownership.  Branches are joined pointwise and
    loop bodies unrolled once.

    Findings: use-after-release (including the cross-line and
    some-path cases [packet-escape] cannot see), double release, and
    leak-on-path (acquired, never transferred, not released on every
    path).  Handles that escape into closures or data structures count
    as transferred — the [PHI_SANITIZE=1] runtime sanitizer backs those
    up. *)

type finding = { line : int; message : string }

val check : path:string -> Ppxlib.structure -> finding list
(** Analyze every module-level function of one parsed implementation;
    returns findings sorted by line. *)
