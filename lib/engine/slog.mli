(** Simulation logging.

    Thin wrapper over [Logs] that prefixes messages with the virtual
    clock.  A call prints nothing unless its level is enabled, but its
    arguments are evaluated and its message formatted either way, so
    call sites guard it:

    {[
      if Slog.enabled Logs.Debug then
        Slog.debug sim "cwnd=%d" (Tcp_sender.cwnd_bytes sender)
    ]}

    Disabled (the default), a guarded call costs {!enabled}'s one load
    and one branch. *)

val src : Logs.src
(** The log source for simulator internals ("wtcp.sim"). *)

val set_level : Logs.level option -> unit
(** Set verbosity for all simulator sources and install a reporter on
    stderr if none is installed. *)

val enabled : Logs.level -> bool
(** [true] iff messages at this level are reported. *)

val debug : Simulator.t -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Debug-level message stamped with the current simulated time. *)

val info : Simulator.t -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Info-level message stamped with the current simulated time. *)
