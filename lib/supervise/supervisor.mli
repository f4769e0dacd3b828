(** Supervised campaign runner: per-cell deadlines, retry with
    exponential backoff, quarantine, and checkpoint/resume.

    A {e cell} is one unit of campaign work — a single replication of
    a single scenario — with a content-addressed key, a deterministic
    [simulate] thunk, and an exact text codec.  {!run} drives an array
    of cells to completion over the {!Sim_engine.Parallel} pool,
    enforcing a cooperative deadline (a simulated-event budget checked
    inside {!Sim_engine.Simulator.step}, so determinism is untouched),
    retrying failures at relaxed budget tiers with real-time backoff,
    and quarantining cells that fail every attempt instead of sinking
    the campaign.

    Cells stream: [jobs] participants claim pending cells one at a
    time, so there is no per-batch barrier.  When a campaign [spec] is
    supplied, each settled cell is appended to a {!Manifest} — payload
    included, the campaign's only persistence — so an interrupted
    campaign resumes by re-simulating only the missing cells.  Because
    outcomes merge by cell index and each cell re-simulates from its
    own seed, a resumed campaign is byte-identical to an uninterrupted
    one at any [jobs]. *)

exception Worker_killed of { cell : int }
(** Raised by the {!sabotage} fault injector to model a worker dying
    mid-cell; handled by the retry loop like any other cell failure. *)

(** {1 Metrics}

    Process-cumulative counters, mirrored into an {!Obs.Registry} as
    [engine.supervisor.*] by {!record_metrics}. *)

type stats = {
  deadline_hits : int;  (** attempts that exhausted their event budget *)
  retries : int;  (** attempts beyond the first *)
  backoff_ms : int;  (** total real time slept before retries *)
  quarantined : int;  (** cells that failed every attempt *)
  resumed_cells : int;  (** cells restored from a manifest *)
  checkpoint_flushes : int;
      (** manifest flushes: one per [wave_size] settled cells, plus
          one for the remainder *)
}

val stats : unit -> stats
val reset_stats : unit -> unit
val record_metrics : Obs.Registry.t -> unit

(** {1 Configuration} *)

type config = {
  deadline_events : int option;
      (** per-cell simulated-event budget for attempt 1; [None]
          disables deadlines *)
  max_attempts : int;  (** total tries per cell before quarantine *)
  backoff_base_ms : float;  (** sleep before attempt 2 *)
  backoff_cap_ms : float;  (** backoff ceiling *)
  relax_factor : int;
      (** budget multiplier per retry, so deterministic deadline
          failures get real headroom before quarantine *)
  wave_size : int option;
      (** settled cells per manifest flush; [None] = max 16 (8*jobs).
          A smaller value loses fewer settled cells to a hard kill
          (SIGKILL, power loss) at more flush traffic; a requested
          stop loses none. *)
}

val default_config : config
(** No deadline, 3 attempts, 25ms base doubling to a 1s cap, 8x
    budget relaxation per retry, default flush interval. *)

type sabotage = {
  kill_cell : int option;
      (** raise {!Worker_killed} on this cell's first attempt *)
  poison_cell : int option;
      (** write this cell's manifest record with a payload the cell
          cannot decode, so a resume must heal it *)
  force_deadline_cell : int option;
      (** pin this cell to a 1-event budget on {e every} attempt: a
          deterministic deadline failure that must end in quarantine *)
}

val no_sabotage : sabotage

(** {1 Cells and outcomes} *)

type 'a cell = {
  key : string;  (** content-addressed payload key *)
  simulate : unit -> 'a;  (** deterministic; safe to re-run *)
  encode : 'a -> string;
      (** exact codec for the manifest record; runs on whichever
          domain settled the cell *)
  decode : string -> 'a option;
}

type 'a outcome = Done of 'a | Quarantined of { attempts : int; error : string }

type 'a report = {
  outcomes : 'a outcome option array;
      (** per-cell; [None] only when interrupted before the cell ran *)
  completed : int;  (** cells settled by {e this} run *)
  resumed : int;  (** cells restored from the manifest *)
  quarantined : int;  (** quarantines settled by this run *)
  interrupted : bool;  (** [should_stop] fired before completion *)
  manifest_path : string option;
}

val campaign_id : spec:string -> keys:string array -> string
(** Digest of engine version, spec and every cell key — the manifest
    filename stem, and the guard that a manifest can never be replayed
    against a different campaign shape. *)

val run :
  ?config:config ->
  ?jobs:int ->
  ?spec:string ->
  ?manifest_dir:string ->
  ?store_dir:string ->
  ?sabotage:sabotage ->
  ?should_stop:(completed:int -> bool) ->
  'a cell array ->
  'a report
(** Drive every cell to an outcome.

    [spec] (a single line) turns on checkpointing: each settled cell
    appends one record, payload included, to the manifest at
    [manifest_dir] (default [<store_dir>/campaigns]), flushed every
    [wave_size] records and at the end.  A pre-existing manifest whose
    id matches restores its settled cells — a restored [Done] requires
    its payload to decode (a poisoned record heals by re-simulation),
    and under {!Repcache.Cache.Verify} mode each restored cell is
    re-simulated and compared, raising
    {!Repcache.Cache.Verify_mismatch} on divergence.  Quarantined cells
    are restored as-is.

    [should_stop] is polled after every settled cell, on the domain
    that settled it, so it must be safe to call from any domain; once
    it returns [true] no participant claims another cell, the cells
    already running finish and are recorded, and the run returns with
    [interrupted = true] if any cell is left unsettled.  An interrupt
    loses at most the cells in flight, never a settled one.

    If persisting a cell fails (its [encode], or a manifest write,
    raises), the participants stop claiming cells, the ones running
    finish, and the exception is re-raised; the manifest is closed on
    every exit path.

    [store_dir] only locates the default manifest directory; it
    defaults to {!Repcache.Cache.dir}.  Checkpointing works regardless
    of the {!Repcache.Cache.mode}.

    @raise Invalid_argument if [max_attempts < 1] or
    [relax_factor < 1]. *)
