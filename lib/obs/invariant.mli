(** Runtime invariants for the checked simulation mode.

    Components expose [check_invariants] functions; the simulator runs
    them after every event when checking is enabled.  A violated
    invariant raises {!Violation}, aborting the run at the first event
    whose bookkeeping is inconsistent — turning a silently shifted
    figure into a crash with a named cause.

    A check is written as
    [if not (cond) then Obs.Invariant.fail ~name (Printf.sprintf ...)]:
    the detail text is built only on the failing branch, so a passing
    check allocates nothing.  There is deliberately no entry point
    taking a [~detail] thunk: without flambda the thunk is allocated
    on every call, i.e. on every event of a checked run. *)

exception Violation of { name : string; detail : string }

val fail : name:string -> string -> 'a
(** Raise {!Violation}. *)

val to_string : exn -> string option
(** Human-readable rendering of a {!Violation}; [None] for other
    exceptions.  Also installed as a [Printexc] printer. *)
