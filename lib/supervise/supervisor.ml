(* The supervised campaign runner: deadlines, retry-with-backoff,
   quarantine and checkpoint/resume over the work-stealing pool.

   Execution streams: one pool batch runs [jobs] participant loops,
   each claiming pending cells one at a time off a shared cursor, so
   no participant waits for a slow sibling.  Whichever participant
   settles a cell appends its manifest record, under one mutex.
   Outcomes merge by index, which keeps the settled array
   byte-identical at any [jobs] and any interleaving of interruptions
   and resumes. *)

exception Worker_killed of { cell : int }

let () =
  Printexc.register_printer (function
    | Worker_killed { cell } ->
      Some (Printf.sprintf "Supervisor.Worker_killed(cell %d)" cell)
    | _ -> None)

(* Process-lifetime counters.  Cumulative like the pool's: tests
   and the benchmark measure deltas. *)
let deadline_hits_total = Atomic.make 0
let retries_total = Atomic.make 0
let backoff_ms_total = Atomic.make 0
let quarantined_total = Atomic.make 0
let resumed_total = Atomic.make 0
let flushes_total = Atomic.make 0

type stats = {
  deadline_hits : int;
  retries : int;
  backoff_ms : int;
  quarantined : int;
  resumed_cells : int;
  checkpoint_flushes : int;
}

let stats () =
  {
    deadline_hits = Atomic.get deadline_hits_total;
    retries = Atomic.get retries_total;
    backoff_ms = Atomic.get backoff_ms_total;
    quarantined = Atomic.get quarantined_total;
    resumed_cells = Atomic.get resumed_total;
    checkpoint_flushes = Atomic.get flushes_total;
  }

let reset_stats () =
  Atomic.set deadline_hits_total 0;
  Atomic.set retries_total 0;
  Atomic.set backoff_ms_total 0;
  Atomic.set quarantined_total 0;
  Atomic.set resumed_total 0;
  Atomic.set flushes_total 0

let record_metrics registry =
  let c name v = Obs.Registry.add (Obs.Registry.counter registry name) v in
  let s = stats () in
  c "engine.supervisor.deadline_hits" s.deadline_hits;
  c "engine.supervisor.retries" s.retries;
  c "engine.supervisor.backoff_ms" s.backoff_ms;
  c "engine.supervisor.quarantined" s.quarantined;
  c "engine.supervisor.resumed_cells" s.resumed_cells;
  c "engine.supervisor.checkpoint_flushes" s.checkpoint_flushes

type config = {
  deadline_events : int option;
  max_attempts : int;
  backoff_base_ms : float;
  backoff_cap_ms : float;
  relax_factor : int;
  wave_size : int option;
}

let default_config =
  {
    deadline_events = None;
    max_attempts = 3;
    backoff_base_ms = 25.0;
    backoff_cap_ms = 1000.0;
    relax_factor = 8;
    wave_size = None;
  }

type sabotage = {
  kill_cell : int option;
  poison_cell : int option;
  force_deadline_cell : int option;
}

let no_sabotage =
  { kill_cell = None; poison_cell = None; force_deadline_cell = None }

type 'a cell = {
  key : string;
  simulate : unit -> 'a;
  encode : 'a -> string;
  decode : string -> 'a option;
}

type 'a outcome = Done of 'a | Quarantined of { attempts : int; error : string }

type 'a report = {
  outcomes : 'a outcome option array;
  completed : int;
  resumed : int;
  quarantined : int;
  interrupted : bool;
  manifest_path : string option;
}

let campaign_id ~spec ~keys =
  let b = Buffer.create (256 + (Array.length keys * 33)) in
  Buffer.add_string b Repcache.Fingerprint.engine_version;
  Buffer.add_char b '\n';
  Buffer.add_string b spec;
  Array.iter
    (fun k ->
      Buffer.add_char b '\n';
      Buffer.add_string b k)
    keys;
  Digest.to_hex (Digest.string (Buffer.contents b))

let is_deadline = function
  | Sim_engine.Simulator.Budget_exhausted _ -> true
  | Sim_engine.Simulator.Fault
      { error = Sim_engine.Simulator.Budget_exhausted _; _ } ->
    true
  | _ -> false

(* Budget tier for attempt [n] (1-based): the base deadline relaxed
   [relax_factor]x per retry, saturating instead of overflowing, so a
   deterministic deadline failure gets real headroom before the cell
   is quarantined.  Sabotaged cells are pinned to a one-event budget
   on every attempt — a deterministic "this cell can never meet its
   deadline" fault. *)
let budget_for config sabotage ~cell ~attempt =
  if sabotage.force_deadline_cell = Some cell then Some 1
  else
    match config.deadline_events with
    | None -> None
    | Some base ->
      let rec relax b k =
        if k <= 1 then b
        else
          relax
            (if b > max_int / config.relax_factor then max_int
             else b * config.relax_factor)
            (k - 1)
      in
      Some (relax base attempt)

(* One cell, run to an outcome on whatever domain the pool picked.
   Catches everything: a cell may fail, never the campaign. *)
let attempt_cell config sabotage cells i =
  let cell = cells.(i) in
  let rec go attempt =
    if attempt > 1 then begin
      (* Exponential backoff: base * 2^(retry-1), capped.  Real time,
         not simulated — the delay exists to let a transient cause
         (memory pressure, a busy sibling) clear, and is invisible to
         the deterministic outcome. *)
      let delay_ms =
        Float.min config.backoff_cap_ms
          (config.backoff_base_ms *. float_of_int (1 lsl (attempt - 2)))
      in
      if delay_ms > 0.0 then Unix.sleepf (delay_ms /. 1000.0);
      ignore
        (Atomic.fetch_and_add backoff_ms_total
           (int_of_float (Float.round delay_ms)));
      Atomic.incr retries_total
    end;
    match
      (if sabotage.kill_cell = Some i && attempt = 1 then
         raise (Worker_killed { cell = i }));
      Sim_engine.Simulator.with_budget
        (budget_for config sabotage ~cell:i ~attempt)
        cell.simulate
    with
    | v -> Done v
    | exception e ->
      if is_deadline e then Atomic.incr deadline_hits_total;
      if attempt < config.max_attempts then go (attempt + 1)
      else begin
        Atomic.incr quarantined_total;
        Quarantined { attempts = attempt; error = Printexc.to_string e }
      end
  in
  go 1

(* Restore the cells a surviving manifest settled.  A [done] record
   only counts if its key matches the rebuilt cell AND its payload
   still decodes -- a poisoned record heals by re-simulation.  In
   Verify cache mode every restored cell is re-simulated and compared,
   turning resume into a determinism oracle. *)
let restore cells outcomes (m : Manifest.loaded) =
  let resumed = ref 0 in
  Array.iteri
    (fun i entry ->
      match entry with
      | None -> ()
      | Some (Manifest.Quarantined { attempts; error }) ->
        outcomes.(i) <- Some (Quarantined { attempts; error });
        incr resumed
      | Some (Manifest.Done { key; payload }) when key = cells.(i).key -> (
        match cells.(i).decode payload with
        | None -> ()
        | Some v ->
          (match Repcache.Cache.mode () with
          | Repcache.Cache.Verify ->
            let fresh = cells.(i).encode (cells.(i).simulate ()) in
            let ok = String.equal fresh payload in
            Repcache.Cache.note_verify ~ok;
            if not ok then
              raise
                (Repcache.Cache.Verify_mismatch { key; cached = payload; fresh })
          | _ -> ());
          outcomes.(i) <- Some (Done v);
          incr resumed)
      | Some (Manifest.Done _) -> () (* foreign key: re-simulate *))
    m.Manifest.entries;
  !resumed

let run ?(config = default_config) ?(jobs = 1) ?spec ?manifest_dir ?store_dir
    ?(sabotage = no_sabotage) ?should_stop (cells : 'a cell array) =
  if config.max_attempts < 1 then
    invalid_arg "Supervisor.run: max_attempts < 1";
  if config.relax_factor < 1 then
    invalid_arg "Supervisor.run: relax_factor < 1";
  let n = Array.length cells in
  let outcomes : 'a outcome option array = Array.make n None in
  (* Checkpointing is on iff the campaign has a spec. *)
  let resumed, manifest, manifest_path =
    match spec with
    | None -> (0, None, None)
    | Some spec ->
      let keys = Array.map (fun c -> c.key) cells in
      let id = campaign_id ~spec ~keys in
      let dir =
        match (manifest_dir, store_dir) with
        | Some d, _ -> d
        | None, d ->
          Filename.concat
            (Option.value d ~default:(Repcache.Cache.dir ()))
            "campaigns"
      in
      let path = Manifest.path ~dir ~id in
      let resumed, t =
        match Manifest.load ~path with
        | Ok m
          when m.Manifest.header.Manifest.id = id
               && m.Manifest.header.Manifest.spec = spec
               && m.Manifest.header.Manifest.cells = n ->
          let resumed = restore cells outcomes m in
          (resumed, Manifest.open_append ~path)
        | Ok _ | Error _ -> (0, Manifest.create ~path ~id ~spec ~cells:n)
      in
      ignore (Atomic.fetch_and_add resumed_total resumed);
      (resumed, Some t, Some path)
  in
  let pending =
    Array.of_list
      (List.filter
         (fun i -> outcomes.(i) = None)
         (List.init n (fun i -> i)))
  in
  let flush_every =
    match config.wave_size with
    | Some w -> Int.max 1 w
    | None -> Int.max 16 (8 * Int.max 1 jobs)
  in
  let lock = Mutex.create () in
  let settled = ref 0 and unflushed = ref 0 in
  let flush m =
    if !unflushed > 0 then begin
      Manifest.flush m;
      Atomic.incr flushes_total;
      unflushed := 0
    end
  in
  (* Record one settled cell on the domain that settled it: encode
     outside the lock, append (and every [flush_every] records flush)
     under it.  Returns the number of cells this run has settled. *)
  let persist i outcome =
    outcomes.(i) <- Some outcome;
    let entry =
      match (manifest, outcome) with
      | None, _ -> None
      | Some _, Done v ->
        (* Poison sabotage: persist a payload the cell cannot decode,
           so a later resume exercises the healing path. *)
        let payload =
          if sabotage.poison_cell = Some i then "poisoned by sabotage\n"
          else cells.(i).encode v
        in
        Some (Manifest.Done { key = cells.(i).key; payload })
      | Some _, Quarantined { attempts; error } ->
        Some (Manifest.Quarantined { attempts; error })
    in
    Mutex.protect lock (fun () ->
        (match (manifest, entry) with
        | Some m, Some e ->
          Manifest.append m ~idx:i e;
          incr unflushed;
          if !unflushed >= flush_every then flush m
        | _ -> ());
        incr settled;
        !settled)
  in
  let cursor = Atomic.make 0 and stop = Atomic.make false in
  (* One participant: claim, simulate, record, poll the interrupt.
     Any exception -- a persistence failure included -- stops every
     participant from claiming further cells before it propagates out
     of the batch. *)
  let participant () =
    let rec loop () =
      if not (Atomic.get stop) then begin
        let k = Atomic.fetch_and_add cursor 1 in
        if k < Array.length pending then begin
          let i = pending.(k) in
          let count = persist i (attempt_cell config sabotage cells i) in
          (match should_stop with
          | Some f when f ~completed:count -> Atomic.set stop true
          | _ -> ());
          loop ()
        end
      end
    in
    match loop () with
    | () -> ()
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Atomic.set stop true;
      Printexc.raise_with_backtrace e bt
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Manifest.close manifest)
    (fun () ->
      ignore
        (Sim_engine.Parallel.map_array ~jobs participant
           (Array.make (Int.min (Array.length pending) (Int.max 1 jobs)) ()));
      Option.iter flush manifest);
  {
    outcomes;
    completed = !settled;
    resumed;
    quarantined =
      Array.fold_left
        (fun acc i ->
          match outcomes.(i) with Some (Quarantined _) -> acc + 1 | _ -> acc)
        0 pending;
    interrupted = Array.exists Option.is_none outcomes;
    manifest_path;
  }
