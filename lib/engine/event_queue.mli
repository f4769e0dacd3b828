(** Pending-event set for the discrete-event simulator.

    A struct-of-arrays 4-ary min-heap keyed by (time, insertion
    order), so the pop sequence is that unique total order: equal-time
    events pop first-in first-out.  Cancellation is O(1) (lazy
    deletion); dead entries are dropped when they surface at the root,
    and swept wholesale whenever live entries fall below half the
    occupancy, so occupancy stays O(live entries) even under
    cancel-heavy load.  Payload slots are recycled through a free
    pool: steady-state scheduling allocates nothing on the minor
    heap. *)

type 'a t
(** A queue of events carrying values of type ['a]. *)

type handle
(** Identifies a scheduled event, for cancellation.  Handles are
    immediate values (no allocation per {!add}) and are only
    meaningful with the queue that issued them. *)

val null : handle
(** A handle that is live in no queue: {!cancel} on it is a no-op and
    {!is_live} is [false].  Lets callers keep a plain [handle] field
    (no [option] box) for "no event pending". *)

val create : unit -> 'a t
(** An empty queue. *)

val length : 'a t -> int
(** Number of live (non-cancelled) events. *)

val is_empty : 'a t -> bool
(** [true] iff no live event is pending. *)

val add : 'a t -> time:Simtime.t -> 'a -> handle
(** Schedule a value at the given time.
    @raise Failure if more than [2^25] events are pending at once. *)

val cancel : 'a t -> handle -> unit
(** Remove a scheduled event.  Cancelling an event that already fired
    or was already cancelled is a no-op.  The event's payload slot is
    recycled immediately; its node is dropped lazily (see
    [dead_drops] and [compactions] in {!stats}). *)

val is_live : 'a t -> handle -> bool
(** [true] iff the event is still pending (not fired, not cancelled). *)

val peek_time : 'a t -> Simtime.t option
(** Time of the earliest live event, if any.  Performs amortised
    cleanup: cancelled entries that have surfaced at the heap root are
    removed (counted in [dead_drops]), so a call may mutate internal
    layout — never the live contents or pop order. *)

val next_time_ns : 'a t -> int
(** Allocation-free {!peek_time}: the earliest live event's time in
    nanoseconds, or [Int.min_int] when no live event is pending.  Same
    amortised cleanup. *)

val pop : 'a t -> (Simtime.t * 'a) option
(** Remove and return the earliest live event.  Like {!peek_time},
    drops any cancelled entries crossed on the way. *)

val take_exn : 'a t -> 'a
(** Allocation-free {!pop}: remove the earliest live event and return
    its payload alone.  Pair with {!next_time_ns} for the time (the
    simulator's hot loop does exactly that).
    @raise Invalid_argument when no live event is pending. *)

val occupancy : 'a t -> int
(** Physical heap nodes currently held, cancelled-but-not-yet-dropped
    included.  After every [add], [cancel] and [pop] this is at most
    [max (2 * length t) 8], 8 being the compaction floor; the queue
    tests in test/ assert that bound. *)

(** {2 Observability} *)

type stats = {
  adds : int;  (** events ever scheduled *)
  pops : int;  (** live events ever popped *)
  cancels : int;  (** live events ever cancelled *)
  max_size : int;
      (** high-water mark of total occupancy, cancelled included *)
  dead_drops : int;
      (** cancelled nodes dropped lazily: at the heap root by {!pop} /
          {!peek_time}, or swept by a compaction pass *)
  compactions : int;  (** whole-queue sweeps of cancelled nodes *)
  recycled : int;  (** adds served from the slot free pool *)
  near_adds : int;  (** always 0; see [near_pops] *)
  near_pops : int;
      (** always 0: the queue is one heap, with no near-horizon tier
          to serve adds or pops.  Both fields stay because the
          benchmark's per-layer report reads them. *)
}

val stats : 'a t -> stats
(** Lifetime counters (always maintained; a handful of integer writes
    per operation).  Identities: [adds = pops + cancels + length t],
    [dead_drops <= cancels]. *)
