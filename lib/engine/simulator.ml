type t = {
  mutable clock : Simtime.t;
  queue : (unit -> unit) Event_queue.t;
  root_rng : Rng.t;
  mutable stopping : bool;
  mutable checked : bool;
  mutable invariants_rev : (unit -> unit) list;  (* newest first *)
  mutable invariants : (unit -> unit) array option;
      (* registration order; rebuilt lazily after a registration, so
         add_invariant is O(1) and the per-event checked-mode sweep
         iterates a flat array *)
  mutable executed_total : int;
  budget : int;  (* lifetime event budget; [max_int] = unlimited *)
  mutable finalizers_rev : (unit -> unit) list;  (* newest first *)
}

type fault_report = {
  error : exn;
  backtrace : Printexc.raw_backtrace;
  at : Simtime.t;
  events_executed : int;
  pending_events : int;
  queue_stats : Event_queue.stats;
}

exception Fault of fault_report

exception Budget_exhausted of { budget : int; executed : int }

let () =
  Printexc.register_printer (function
    | Fault r ->
      Some
        (Printf.sprintf
           "Simulator.Fault at t=%dns after %d events (%d pending): %s"
           (Simtime.to_ns r.at) r.events_executed r.pending_events
           (Printexc.to_string r.error))
    | Budget_exhausted { budget; executed } ->
      Some
        (Printf.sprintf
           "Simulator.Budget_exhausted: event budget %d spent after %d events"
           budget executed)
    | _ -> None)

(* The default event budget is domain-local so a supervisor can give
   each cell attempt its own deadline tier while pool workers run
   cells concurrently.  [max_int] means unlimited; the budget is read
   once, at [create], so it never changes mid-run. *)
let default_budget_key = Domain.DLS.new_key (fun () -> max_int)

let set_default_budget budget =
  Domain.DLS.set default_budget_key
    (match budget with
    | None -> max_int
    | Some n ->
      if n < 1 then invalid_arg "Simulator.set_default_budget: budget < 1";
      n)

let default_budget () =
  match Domain.DLS.get default_budget_key with
  | n when n = max_int -> None
  | n -> Some n

let with_budget budget f =
  let saved = Domain.DLS.get default_budget_key in
  set_default_budget budget;
  Fun.protect ~finally:(fun () -> Domain.DLS.set default_budget_key saved) f

type event = Event_queue.handle

let null_event = Event_queue.null

let create ?(seed = 1) () =
  {
    clock = Simtime.zero;
    queue = Event_queue.create ();
    root_rng = Rng.create ~seed;
    stopping = false;
    checked = false;
    invariants_rev = [];
    invariants = None;
    executed_total = 0;
    budget = Domain.DLS.get default_budget_key;
    finalizers_rev = [];
  }

let now t = t.clock
let rng t = t.root_rng

let schedule t ~at f =
  if Simtime.(at < t.clock) then
    invalid_arg "Simulator.schedule: time is in the past";
  Event_queue.add t.queue ~time:at f

let schedule_after t ~delay f = schedule t ~at:(Simtime.add t.clock delay) f
let cancel t event = Event_queue.cancel t.queue event
let is_pending t event = Event_queue.is_live t.queue event
let pending_events t = Event_queue.length t.queue
let queue_stats t = Event_queue.stats t.queue
let events_executed t = t.executed_total

let set_checked t on = t.checked <- on
let checked t = t.checked
let add_invariant t f =
  t.invariants_rev <- f :: t.invariants_rev;
  t.invariants <- None

let run_invariants t =
  let checks =
    match t.invariants with
    | Some a -> a
    | None ->
      let a = Array.of_list (List.rev t.invariants_rev) in
      t.invariants <- Some a;
      a
  in
  Array.iter (fun f -> f ()) checks

let check_budget t =
  if t.executed_total >= t.budget then
    raise (Budget_exhausted { budget = t.budget; executed = t.executed_total })

(* Execute the root event, which a [next_time_ns] has just found live
   at [tn]: [take_exn] finds it there at once, so no
   [Some (time, value)] pair is ever allocated on this path. *)
let exec t tn =
  let time = Simtime.of_ns tn in
  if t.checked && Simtime.(time < t.clock) then
    Obs.Invariant.fail ~name:"engine.time_monotonic"
      (Printf.sprintf "event at %dns before clock %dns" tn
         (Simtime.to_ns t.clock));
  let f = Event_queue.take_exn t.queue in
  t.clock <- time;
  f ();
  t.executed_total <- t.executed_total + 1;
  if t.checked then run_invariants t

let step t =
  (* The budget check costs one comparison per event and raises
     {e before} popping, so an exhausted run leaves the queue intact:
     the deadline is a property of how much work was allowed, not of
     which event happened to be next. *)
  check_budget t;
  let tn = Event_queue.next_time_ns t.queue in
  tn <> min_int && (exec t tn; true)

(* [step] bounded by a horizon (ns).  One peek serves both the horizon
   test and the pop; the budget check follows it, so an exhausted
   budget raises only when a live event is due, before it pops. *)
let step_until t horizon =
  let tn = Event_queue.next_time_ns t.queue in
  tn <> min_int && tn <= horizon
  && (check_budget t; exec t tn; true)

let add_finalizer t f = t.finalizers_rev <- f :: t.finalizers_rev

let run_finalizers t =
  (* Each finalizer is guarded so a failing one cannot mask the
     original fault or stop the remaining finalizers. *)
  List.iter
    (fun f -> try f () with _ -> ())
    (List.rev t.finalizers_rev)

let run ?until ?max_events t =
  t.stopping <- false;
  let executed = ref 0 in
  let max_events = Option.value max_events ~default:max_int in
  let horizon = match until with None -> max_int | Some h -> Simtime.to_ns h in
  let bounded = Option.is_some until in
  (try
     while
       (not t.stopping)
       && !executed < max_events
       && if bounded then step_until t horizon else step t
     do
       incr executed
     done
   with exn ->
     let backtrace = Printexc.get_raw_backtrace () in
     run_finalizers t;
     raise
       (Fault
          {
            error = exn;
            backtrace;
            at = t.clock;
            events_executed = t.executed_total;
            pending_events = Event_queue.length t.queue;
            queue_stats = Event_queue.stats t.queue;
          }));
  (* When stopped by the horizon — either because the next event lies
     beyond it or because the queue drained before reaching it —
     advance the clock to the horizon so callers can schedule relative
     to the requested stop time.  [stop] and an exhausted [max_events]
     with work still pending leave the clock at the last event. *)
  if bounded && Simtime.to_ns t.clock < horizon && not t.stopping then begin
    let next = Event_queue.next_time_ns t.queue in
    if next = min_int || next > horizon then t.clock <- Simtime.of_ns horizon
  end

let stop t = t.stopping <- true
