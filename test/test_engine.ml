(* Tests for the simulation engine: Simtime, Rng, Event_queue,
   Simulator. *)

open Core

let span_sec = Simtime.span_sec

(* ------------------------------------------------------------------ *)
(* Simtime                                                             *)
(* ------------------------------------------------------------------ *)

let test_simtime_construction () =
  Alcotest.(check int) "zero is 0 ns" 0 (Simtime.to_ns Simtime.zero);
  Alcotest.(check int) "of_ns round-trips" 42 (Simtime.to_ns (Simtime.of_ns 42));
  Alcotest.check_raises "negative instant rejected"
    (Invalid_argument "Simtime.of_ns: negative") (fun () ->
      ignore (Simtime.of_ns (-1)))

let test_simtime_spans () =
  Alcotest.(check int) "span_ms" 5_000_000 (Simtime.span_to_ns (Simtime.span_ms 5));
  Alcotest.(check int) "span_us" 7_000 (Simtime.span_to_ns (Simtime.span_us 7));
  Alcotest.(check int) "span_sec rounds" 1_500_000_000
    (Simtime.span_to_ns (span_sec 1.5));
  Alcotest.check_raises "negative span rejected"
    (Invalid_argument "Simtime.span_ns: negative") (fun () ->
      ignore (Simtime.span_ns (-5)));
  Alcotest.check_raises "non-finite span rejected"
    (Invalid_argument "Simtime.span_sec: negative or not finite") (fun () ->
      ignore (span_sec Float.nan))

let test_simtime_arithmetic () =
  let t = Simtime.add (Simtime.of_ns 100) (Simtime.span_ns 50) in
  Alcotest.(check int) "add" 150 (Simtime.to_ns t);
  let d = Simtime.diff (Simtime.of_ns 150) (Simtime.of_ns 100) in
  Alcotest.(check int) "diff" 50 (Simtime.span_to_ns d);
  Alcotest.check_raises "diff underflow rejected"
    (Invalid_argument "Simtime.diff: negative result") (fun () ->
      ignore (Simtime.diff (Simtime.of_ns 1) (Simtime.of_ns 2)));
  Alcotest.(check int) "span_add" 30
    (Simtime.span_to_ns (Simtime.span_add (Simtime.span_ns 10) (Simtime.span_ns 20)));
  Alcotest.(check int) "span_sub" 10
    (Simtime.span_to_ns (Simtime.span_sub (Simtime.span_ns 30) (Simtime.span_ns 20)));
  Alcotest.(check int) "span_scale" 15
    (Simtime.span_to_ns (Simtime.span_scale (Simtime.span_ns 10) 1.5))

let test_simtime_ordering () =
  let a = Simtime.of_ns 1 and b = Simtime.of_ns 2 in
  Alcotest.(check bool) "lt" true Simtime.(a < b);
  Alcotest.(check bool) "le refl" true Simtime.(a <= a);
  Alcotest.(check bool) "gt" true Simtime.(b > a);
  Alcotest.(check int) "min" 1 (Simtime.to_ns (Simtime.min a b));
  Alcotest.(check int) "max" 2 (Simtime.to_ns (Simtime.max a b));
  Alcotest.(check bool) "span_min" true
    (Simtime.span_compare
       (Simtime.span_min (Simtime.span_ns 3) (Simtime.span_ns 4))
       (Simtime.span_ns 3)
    = 0)

let test_simtime_to_sec () =
  Alcotest.(check (float 1e-12)) "to_sec" 1.5
    (Simtime.to_sec (Simtime.of_ns 1_500_000_000));
  Alcotest.(check (float 1e-12)) "span_to_sec" 0.25
    (Simtime.span_to_sec (Simtime.span_ms 250))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create ~seed:99 and b = Rng.create ~seed:99 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same seed, same stream" (Rng.bits64 a)
      (Rng.bits64 b)
  done;
  let c = Rng.create ~seed:100 in
  Alcotest.(check bool) "different seed, different stream" true
    (Rng.bits64 (Rng.create ~seed:99) <> Rng.bits64 c)

let test_rng_copy_replays () =
  let a = Rng.create ~seed:5 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy replays" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_split_independent () =
  let a = Rng.create ~seed:5 in
  let b = Rng.split a in
  (* The split stream must not equal the parent's continuation. *)
  Alcotest.(check bool) "split differs from parent" true
    (Rng.bits64 a <> Rng.bits64 b)

let test_rng_bounds () =
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "int in [0,7)" true (v >= 0 && v < 7)
  done;
  for _ = 1 to 10_000 do
    let v = Rng.uniform rng in
    Alcotest.(check bool) "uniform in [0,1)" true (v >= 0.0 && v < 1.0)
  done;
  Alcotest.check_raises "int bound must be positive"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:2 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let v = Rng.exponential rng ~mean:4.0 in
    Alcotest.(check bool) "exponential non-negative" true (v >= 0.0);
    sum := !sum +. v
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "exponential mean within 5%" true
    (Float.abs (mean -. 4.0) < 0.2)

let test_rng_poisson_mean () =
  let rng = Rng.create ~seed:3 in
  let n = 20_000 in
  let check lambda tolerance =
    let sum = ref 0 in
    for _ = 1 to n do
      sum := !sum + Rng.poisson rng ~mean:lambda
    done;
    let mean = float_of_int !sum /. float_of_int n in
    Alcotest.(check bool)
      (Printf.sprintf "poisson mean %.0f" lambda)
      true
      (Float.abs (mean -. lambda) < tolerance)
  in
  check 3.0 0.1;
  check 600.0 2.0;
  Alcotest.(check int) "poisson of 0" 0 (Rng.poisson rng ~mean:0.0)

let test_rng_geometric () =
  let rng = Rng.create ~seed:4 in
  Alcotest.(check int) "geometric p=1 is 0" 0 (Rng.geometric rng ~p:1.0);
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.geometric rng ~p:0.25
  done;
  (* mean of failures before success = (1-p)/p = 3 *)
  let mean = float_of_int !sum /. float_of_int n in
  Alcotest.(check bool) "geometric mean ~3" true (Float.abs (mean -. 3.0) < 0.15)

(* ------------------------------------------------------------------ *)
(* Event_queue                                                         *)
(* ------------------------------------------------------------------ *)

let test_queue_time_order () =
  let q = Event_queue.create () in
  List.iter
    (fun n -> ignore (Event_queue.add q ~time:(Simtime.of_ns n) n))
    [ 30; 10; 20; 5; 25 ];
  let popped = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, v) ->
      popped := v :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 5; 10; 20; 25; 30 ] (List.rev !popped)

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  List.iter
    (fun v -> ignore (Event_queue.add q ~time:(Simtime.of_ns 7) v))
    [ 1; 2; 3; 4 ];
  let order = List.init 4 (fun _ ->
      match Event_queue.pop q with Some (_, v) -> v | None -> -1)
  in
  Alcotest.(check (list int)) "insertion order preserved on ties" [ 1; 2; 3; 4 ]
    order

let test_queue_cancel () =
  let q = Event_queue.create () in
  let h1 = Event_queue.add q ~time:(Simtime.of_ns 1) "a" in
  let _h2 = Event_queue.add q ~time:(Simtime.of_ns 2) "b" in
  Alcotest.(check int) "two live" 2 (Event_queue.length q);
  Event_queue.cancel q h1;
  Alcotest.(check int) "one live after cancel" 1 (Event_queue.length q);
  Alcotest.(check bool) "cancelled not live" false (Event_queue.is_live q h1);
  (match Event_queue.pop q with
  | Some (_, v) -> Alcotest.(check string) "cancelled skipped" "b" v
  | None -> Alcotest.fail "expected event");
  Event_queue.cancel q h1;
  Alcotest.(check int) "double cancel harmless" 0 (Event_queue.length q)

let test_queue_peek () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "peek empty" true (Event_queue.peek_time q = None);
  let h = Event_queue.add q ~time:(Simtime.of_ns 5) () in
  ignore (Event_queue.add q ~time:(Simtime.of_ns 9) ());
  (match Event_queue.peek_time q with
  | Some t -> Alcotest.(check int) "peek earliest" 5 (Simtime.to_ns t)
  | None -> Alcotest.fail "expected peek");
  Event_queue.cancel q h;
  match Event_queue.peek_time q with
  | Some t ->
    Alcotest.(check int) "peek skips cancelled" 9 (Simtime.to_ns t)
  | None -> Alcotest.fail "expected peek"

let test_queue_interleaved_growth () =
  let q = Event_queue.create () in
  (* Force several internal growths with interleaved pops. *)
  for round = 0 to 9 do
    for i = 0 to 99 do
      ignore (Event_queue.add q ~time:(Simtime.of_ns ((round * 100) + i)) i)
    done;
    for _ = 0 to 49 do
      ignore (Event_queue.pop q)
    done
  done;
  Alcotest.(check int) "live count" 500 (Event_queue.length q)

(* Event_queue's compaction floor: after every operation, occupancy is
   at most [max (2 * length) compact_min] (event_queue.mli). *)
let compact_min = 8

let test_queue_cancel_heavy_bounded () =
  (* The paper's workload in miniature: per-flow retransmission timers
     armed and re-armed on every ACK, so nearly every add is
     cancelled.  Lazy deletion must not let the heap grow O(adds):
     occupancy stays O(live timers) throughout. *)
  let q = Event_queue.create () in
  let flows = 32 in
  let timers =
    Array.init flows (fun i -> Event_queue.add q ~time:(Simtime.of_ns i) i)
  in
  let max_occupancy = ref 0 in
  let bound_ok = ref true in
  for step = 1 to 100_000 do
    let i = step mod flows in
    Event_queue.cancel q timers.(i);
    timers.(i) <- Event_queue.add q ~time:(Simtime.of_ns (step + i)) i;
    if step mod 64 = 0 then ignore (Event_queue.pop q);
    let occ = Event_queue.occupancy q in
    if occ > !max_occupancy then max_occupancy := occ;
    if occ > Int.max (2 * Event_queue.length q) compact_min then
      bound_ok := false
  done;
  Alcotest.(check bool) "occupancy <= max (2*live) compact_min after every op"
    true !bound_ok;
  (* ~100k adds against ~32 live timers: the heap never grew past the
     compaction floor. *)
  Alcotest.(check bool) "max occupancy stayed near the live set" true
    (!max_occupancy <= compact_min + (2 * flows));
  let s = Event_queue.stats q in
  Alcotest.(check int) "conservation: adds = pops + cancels + live"
    s.Event_queue.adds
    (s.Event_queue.pops + s.Event_queue.cancels + Event_queue.length q);
  Alcotest.(check bool) "adds served from the recycled slot pool" true
    (s.Event_queue.recycled > 99_000)

let test_queue_wan_shaped_compacts () =
  (* A WAN cell in miniature: four live near-term events (a frame on
     the air, one in propagation, the ARQ and TCP timers) popped and
     re-armed in turn, while every pop also re-arms a far-future purge
     timer and cancels the old one.  Those dead nodes sit deep in the
     heap and never surface at the root, so only compaction reclaims
     them.  With 5 live events the 48 dead ones stay below a 64-node
     floor, so compaction must run at the live set's own size. *)
  let q = Event_queue.create () in
  for k = 0 to 3 do
    ignore (Event_queue.add q ~time:(Simtime.of_ns k) k)
  done;
  let far ns =
    Event_queue.add q ~time:(Simtime.of_ns (ns + 10_000_000_000)) (-1)
  in
  let purge = ref (far 0) in
  let max_live = ref 0 and bound_ok = ref true in
  let check_bound () =
    let live = Event_queue.length q in
    max_live := Int.max !max_live live;
    if Event_queue.occupancy q > Int.max (2 * live) compact_min then
      bound_ok := false
  in
  for _ = 1 to 48 do
    let now = Event_queue.next_time_ns q in
    let k = Event_queue.take_exn q in
    check_bound ();
    ignore (Event_queue.add q ~time:(Simtime.of_ns (now + 1_000_000)) k);
    check_bound ();
    Event_queue.cancel q !purge;
    check_bound ();
    purge := far now;
    check_bound ()
  done;
  let s = Event_queue.stats q in
  Alcotest.(check bool) "at most 8 live events" true (!max_live <= 8);
  Alcotest.(check bool) "occupancy <= max (2*live) compact_min after every op"
    true !bound_ok;
  Alcotest.(check bool) "compaction ran" true (s.Event_queue.compactions > 0);
  Alcotest.(check bool) "peak heap stayed below 64 nodes" true
    (s.Event_queue.max_size < 64)

(* Model check: the heap against a naive sorted list, under
   interleaved add/pop/cancel.  [add_w] and [cancel_w] are percentage
   weights (pop takes the rest); times are drawn from 0..[max_time]
   ns.  With [take], every other pop goes through the simulator's
   [next_time_ns] + [take_exn] pair instead of [pop], and [take_exn]
   on an empty queue must raise [Invalid_argument].  Checks pop order,
   length, the occupancy bound and the stats identities after every
   operation. *)
let prop_queue_model ?(max_time = 1023) ?(take = false) ~name ~add_w
    ~cancel_w () =
  QCheck2.Test.make ~name ~count:150
    QCheck2.Gen.(
      list_size (int_range 0 400)
        (pair (int_range 0 99) (int_range 0 max_time)))
    (fun ops ->
      let q = Event_queue.create () in
      (* Reference: (time, order, value) sorted by (time, order). *)
      let model = ref [] in
      let live = ref [] in (* (order, handle), newest first *)
      let spent = ref [] in
      let next = ref 0 in
      let insert ((t, o, _) as e) =
        let rec go = function
          | [] -> [ e ]
          | ((t', o', _) as hd) :: tl ->
            if t < t' || (t = t' && o < o') then e :: hd :: tl
            else hd :: go tl
        in
        model := go !model
      in
      let ok = ref true in
      let empty_take_raises () =
        match Event_queue.take_exn q with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      (* Next (time ns, value), or [None] once the queue is empty. *)
      let pops = ref 0 in
      let pop_one () =
        incr pops;
        if take && !pops land 1 = 0 then begin
          let tn = Event_queue.next_time_ns q in
          if tn <> Int.min_int then Some (tn, Event_queue.take_exn q)
          else begin
            if not (empty_take_raises ()) then ok := false;
            None
          end
        end
        else
          Option.map
            (fun (pt, v) -> (Simtime.to_ns pt, v))
            (Event_queue.pop q)
      in
      let agree () =
        ok :=
          !ok
          && Event_queue.length q = List.length !model
          && Event_queue.occupancy q
             <= Int.max (2 * Event_queue.length q) compact_min
      in
      List.iter
        (fun (sel, t) ->
          (if sel < add_w then begin
             let o = !next in
             incr next;
             let h = Event_queue.add q ~time:(Simtime.of_ns t) o in
             insert (t, o, o);
             live := (o, h) :: !live
           end
           else if sel < add_w + cancel_w then
             match !live with
             | [] -> (
               (* Cancelling a spent handle must be a no-op. *)
               match !spent with
               | h :: _ -> Event_queue.cancel q h
               | [] -> ())
             | l ->
               let o, h = List.nth l (t mod List.length l) in
               Event_queue.cancel q h;
               spent := h :: !spent;
               live := List.filter (fun (o', _) -> o' <> o) l;
               model := List.filter (fun (_, o', _) -> o' <> o) !model
           else
             match (pop_one (), !model) with
             | None, [] -> ()
             | Some (pt, v), (mt, mo, mv) :: rest ->
               model := rest;
               (match List.assoc_opt mo !live with
               | Some h -> spent := h :: !spent
               | None -> ());
               live := List.filter (fun (o', _) -> o' <> mo) !live;
               if pt <> mt || v <> mv then ok := false
             | _ -> ok := false);
          agree ())
        ops;
      (* Remaining events must drain in model order. *)
      let rec drain () =
        match (pop_one (), !model) with
        | None, [] -> ()
        | Some (pt, v), (mt, _, mv) :: rest ->
          model := rest;
          if pt <> mt || v <> mv then ok := false else drain ()
        | _ -> ok := false
      in
      drain ();
      (* Drained: both pop paths must now report the queue empty. *)
      ok :=
        !ok && Event_queue.pop q = None
        && Event_queue.next_time_ns q = Int.min_int
        && empty_take_raises ();
      let s = Event_queue.stats q in
      !ok
      && s.Event_queue.adds
         = s.Event_queue.pops + s.Event_queue.cancels + Event_queue.length q
      && s.Event_queue.dead_drops <= s.Event_queue.cancels
      && s.Event_queue.max_size >= Event_queue.occupancy q)

let prop_queue_model_mixed =
  prop_queue_model ~name:"queue matches sorted-list model (mixed ops)"
    ~add_w:45 ~cancel_w:20 ()

let prop_queue_model_cancel_heavy =
  (* Of the events that leave the queue, >90% leave by cancellation:
     the lazy-deletion, generation-recycling and compaction paths
     dominate. *)
  prop_queue_model ~name:"queue matches sorted-list model (>90% cancels)"
    ~add_w:47 ~cancel_w:49 ()

let prop_queue_model_take =
  (* The simulator's hot-loop pop path at the time scale of TCP tick
     timers (0-10 s). *)
  prop_queue_model ~max_time:10_000_000_000 ~take:true
    ~name:"queue matches sorted-list model (10 s span, take_exn)"
    ~add_w:45 ~cancel_w:20 ()

let prop_queue_matches_sort =
  QCheck2.Test.make ~name:"event queue pops in stable sorted order" ~count:200
    QCheck2.Gen.(list_size (int_range 0 200) (int_range 0 50))
    (fun times ->
      let q = Event_queue.create () in
      List.iteri
        (fun i n -> ignore (Event_queue.add q ~time:(Simtime.of_ns n) (n, i)))
        times;
      let rec drain acc =
        match Event_queue.pop q with
        | Some (_, v) -> drain (v :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      let expected =
        List.stable_sort
          (fun (a, i) (b, j) ->
            match Int.compare a b with 0 -> Int.compare i j | c -> c)
          (List.mapi (fun i n -> (n, i)) times)
      in
      popped = expected)

(* ------------------------------------------------------------------ *)
(* Simulator                                                           *)
(* ------------------------------------------------------------------ *)

let test_sim_runs_in_order () =
  let sim = Simulator.create () in
  let log = ref [] in
  ignore
    (Simulator.schedule sim ~at:(Simtime.of_ns 20) (fun () ->
         log := "b" :: !log));
  ignore
    (Simulator.schedule sim ~at:(Simtime.of_ns 10) (fun () ->
         log := "a" :: !log));
  Simulator.run sim;
  Alcotest.(check (list string)) "order" [ "a"; "b" ] (List.rev !log)

let test_sim_clock_advances () =
  let sim = Simulator.create () in
  let seen = ref Simtime.zero in
  ignore
    (Simulator.schedule sim ~at:(Simtime.of_ns 500) (fun () ->
         seen := Simulator.now sim));
  Simulator.run sim;
  Alcotest.(check int) "clock at event time" 500 (Simtime.to_ns !seen)

let test_sim_schedule_after () =
  let sim = Simulator.create () in
  let fired = ref false in
  ignore
    (Simulator.schedule sim ~at:(Simtime.of_ns 100) (fun () ->
         ignore
           (Simulator.schedule_after sim ~delay:(Simtime.span_ns 50) (fun () ->
                Alcotest.(check int) "relative delay" 150
                  (Simtime.to_ns (Simulator.now sim));
                fired := true))));
  Simulator.run sim;
  Alcotest.(check bool) "fired" true !fired

let test_sim_past_rejected () =
  let sim = Simulator.create () in
  ignore
    (Simulator.schedule sim ~at:(Simtime.of_ns 100) (fun () ->
         Alcotest.check_raises "scheduling in the past"
           (Invalid_argument "Simulator.schedule: time is in the past")
           (fun () ->
             ignore (Simulator.schedule sim ~at:(Simtime.of_ns 50) ignore))));
  Simulator.run sim

let test_sim_cancel () =
  let sim = Simulator.create () in
  let fired = ref false in
  let ev =
    Simulator.schedule sim ~at:(Simtime.of_ns 10) (fun () -> fired := true)
  in
  Alcotest.(check bool) "pending" true (Simulator.is_pending sim ev);
  Simulator.cancel sim ev;
  Alcotest.(check bool) "not pending" false (Simulator.is_pending sim ev);
  Simulator.run sim;
  Alcotest.(check bool) "cancelled never fires" false !fired

let test_sim_until_horizon () =
  let sim = Simulator.create () in
  let fired = ref 0 in
  ignore (Simulator.schedule sim ~at:(Simtime.of_ns 10) (fun () -> incr fired));
  ignore (Simulator.schedule sim ~at:(Simtime.of_ns 90) (fun () -> incr fired));
  Simulator.run ~until:(Simtime.of_ns 50) sim;
  Alcotest.(check int) "only events before horizon" 1 !fired;
  Alcotest.(check int) "one pending" 1 (Simulator.pending_events sim);
  Simulator.run sim;
  Alcotest.(check int) "rest run later" 2 !fired

let test_sim_clock_reaches_drained_horizon () =
  (* Regression: when the queue drains before the horizon, the clock
     must still advance to [until], exactly as it does when the next
     event lies beyond the horizon. *)
  let sim = Simulator.create () in
  let fired = ref 0 in
  ignore (Simulator.schedule sim ~at:(Simtime.of_ns 10) (fun () -> incr fired));
  Simulator.run ~until:(Simtime.of_ns 50) sim;
  Alcotest.(check int) "event fired" 1 !fired;
  Alcotest.(check int) "clock at the horizon" 50
    (Simtime.to_ns (Simulator.now sim));
  (* An empty queue behaves the same. *)
  let sim2 = Simulator.create () in
  Simulator.run ~until:(Simtime.of_ns 25) sim2;
  Alcotest.(check int) "empty queue still advances" 25
    (Simtime.to_ns (Simulator.now sim2));
  (* Scheduling relative to the stop time now works after a drain. *)
  ignore (Simulator.schedule sim ~at:(Simtime.of_ns 50) (fun () -> incr fired));
  Simulator.run sim;
  Alcotest.(check int) "event at the horizon runs" 2 !fired

let test_sim_stop_leaves_clock () =
  (* stop, and an exhausted max_events, must NOT advance to the
     horizon: work is still pending. *)
  let sim = Simulator.create () in
  ignore (Simulator.schedule sim ~at:(Simtime.of_ns 10) (fun () ->
      Simulator.stop sim));
  ignore (Simulator.schedule sim ~at:(Simtime.of_ns 20) (fun () -> ()));
  Simulator.run ~until:(Simtime.of_ns 90) sim;
  Alcotest.(check int) "stop leaves the clock at the last event" 10
    (Simtime.to_ns (Simulator.now sim));
  let sim2 = Simulator.create () in
  for i = 1 to 5 do
    ignore (Simulator.schedule sim2 ~at:(Simtime.of_ns i) (fun () -> ()))
  done;
  Simulator.run ~until:(Simtime.of_ns 90) ~max_events:2 sim2;
  Alcotest.(check int) "max_events leaves the clock at the last event" 2
    (Simtime.to_ns (Simulator.now sim2))

let test_sim_stop () =
  let sim = Simulator.create () in
  let fired = ref 0 in
  ignore
    (Simulator.schedule sim ~at:(Simtime.of_ns 10) (fun () ->
         incr fired;
         Simulator.stop sim));
  ignore (Simulator.schedule sim ~at:(Simtime.of_ns 20) (fun () -> incr fired));
  Simulator.run sim;
  Alcotest.(check int) "stop halts the run" 1 !fired;
  Simulator.run sim;
  Alcotest.(check int) "run can resume" 2 !fired

let test_sim_max_events () =
  let sim = Simulator.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    ignore (Simulator.schedule sim ~at:(Simtime.of_ns i) (fun () -> incr fired))
  done;
  Simulator.run ~max_events:3 sim;
  Alcotest.(check int) "bounded" 3 !fired

let test_sim_step () =
  let sim = Simulator.create () in
  Alcotest.(check bool) "step on empty" false (Simulator.step sim);
  ignore (Simulator.schedule sim ~at:(Simtime.of_ns 1) ignore);
  Alcotest.(check bool) "step runs one" true (Simulator.step sim)

(* ------------------------------------------------------------------ *)
(* Event queue handle safety                                           *)
(* ------------------------------------------------------------------ *)

let test_queue_stale_handle_cancel () =
  (* Generation-stamped handles: cancelling an event that already
     popped — after its slot has been recycled by a newer event — must
     not touch the newer occupant. *)
  let q = Event_queue.create () in
  let h1 = Event_queue.add q ~time:(Simtime.of_ns 1) "old" in
  (match Event_queue.pop q with
  | Some (_, "old") -> ()
  | _ -> Alcotest.fail "expected to pop the first event");
  (* The pool is empty again, so this add recycles h1's slot. *)
  ignore (Event_queue.add q ~time:(Simtime.of_ns 2) "new");
  Event_queue.cancel q h1;
  Event_queue.cancel q h1;
  (match Event_queue.pop q with
  | Some (_, "new") -> ()
  | _ -> Alcotest.fail "stale cancel must not kill the slot's new occupant");
  (* The inert null handle is never live and cancelling it is a no-op. *)
  Alcotest.(check bool) "null handle is dead" false
    (Event_queue.is_live q Event_queue.null);
  Event_queue.cancel q Event_queue.null

(* ------------------------------------------------------------------ *)
(* Soft_timer                                                          *)
(* ------------------------------------------------------------------ *)

let soft_fixture () =
  let sim = Simulator.create () in
  let counters = Soft_timer.create_counters () in
  let fired = ref [] in
  let timer =
    Soft_timer.create sim ~counters (fun () -> fired := Simulator.now sim :: !fired)
  in
  (sim, counters, fired, timer)

let ns_list l = List.rev_map Simtime.to_ns l

let test_soft_fires_once () =
  let sim, c, fired, timer = soft_fixture () in
  Soft_timer.arm timer ~at:(Simtime.of_ns 50);
  Alcotest.(check bool) "armed" true (Soft_timer.is_armed timer);
  Simulator.run sim;
  Alcotest.(check (list int)) "fired at deadline" [ 50 ] (ns_list !fired);
  Alcotest.(check bool) "disarmed after fire" false (Soft_timer.is_armed timer);
  Alcotest.(check int) "fires" 1 c.Soft_timer.fires;
  Alcotest.(check int) "arms" 1 c.Soft_timer.arms

let test_soft_double_cancel_noop () =
  let sim, c, fired, timer = soft_fixture () in
  Soft_timer.arm timer ~at:(Simtime.of_ns 50);
  Soft_timer.cancel timer;
  (* Second cancel of an already-cancelled timer: checked no-op. *)
  Soft_timer.cancel timer;
  Alcotest.(check int) "one lazy cancel counted" 1 c.Soft_timer.lazy_cancels;
  Simulator.run sim;
  Alcotest.(check (list int)) "never fired" [] (ns_list !fired);
  Alcotest.(check int) "stale physical event dropped" 1 c.Soft_timer.stale_fires;
  (* The timer stays usable after the stale event died. *)
  Soft_timer.arm timer ~at:(Simtime.of_ns 90);
  Simulator.run sim;
  Alcotest.(check (list int)) "re-arm fires" [ 90 ] (ns_list !fired)

let test_soft_cancel_after_fire_noop () =
  let sim, c, fired, timer = soft_fixture () in
  Soft_timer.arm timer ~at:(Simtime.of_ns 10);
  Simulator.run sim;
  Alcotest.(check (list int)) "fired" [ 10 ] (ns_list !fired);
  (* Cancelling a timer that already fired must change nothing. *)
  Soft_timer.cancel timer;
  Alcotest.(check int) "no lazy cancel recorded" 0 c.Soft_timer.lazy_cancels;
  Soft_timer.arm timer ~at:(Simtime.of_ns 20);
  Simulator.run sim;
  Alcotest.(check (list int)) "fires again" [ 10; 20 ] (ns_list !fired)

let test_soft_fuse_and_chase () =
  let sim, c, fired, timer = soft_fixture () in
  (* Push the deadline later while a physical event is pending: the
     re-arm fuses (no queue traffic) and the early event chases. *)
  Soft_timer.arm timer ~at:(Simtime.of_ns 50);
  Soft_timer.arm timer ~at:(Simtime.of_ns 80);
  Alcotest.(check int) "re-arm fused" 1 c.Soft_timer.fuses;
  Alcotest.(check (option int)) "deadline moved" (Some 80)
    (Option.map Simtime.to_ns (Soft_timer.expiry timer));
  Simulator.run sim;
  Alcotest.(check (list int)) "fired once, at the moved deadline" [ 80 ]
    (ns_list !fired);
  Alcotest.(check int) "early surfacing chased" 1 c.Soft_timer.chases;
  Alcotest.(check int) "fires" 1 c.Soft_timer.fires

let test_soft_rearm_earlier () =
  let sim, c, fired, timer = soft_fixture () in
  Soft_timer.arm timer ~at:(Simtime.of_ns 80);
  (* Moving the deadline earlier cannot fuse: the pending physical
     event would surface too late. *)
  Soft_timer.arm timer ~at:(Simtime.of_ns 30);
  Alcotest.(check int) "no fuse" 0 c.Soft_timer.fuses;
  Simulator.run sim;
  Alcotest.(check (list int)) "fired at the earlier deadline" [ 30 ]
    (ns_list !fired);
  Alcotest.(check int) "fired once" 1 c.Soft_timer.fires

let test_soft_detach_clears_queue () =
  let sim, _, fired, timer = soft_fixture () in
  Soft_timer.arm timer ~at:(Simtime.of_ns 50);
  Soft_timer.detach timer;
  Alcotest.(check int) "nothing pending after detach" 0
    (Simulator.pending_events sim);
  Simulator.run sim;
  Alcotest.(check (list int)) "never fired" [] (ns_list !fired);
  (* Detach is also a checked no-op on an idle timer. *)
  Soft_timer.detach timer

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [
      ( "simtime",
        [
          Alcotest.test_case "construction" `Quick test_simtime_construction;
          Alcotest.test_case "spans" `Quick test_simtime_spans;
          Alcotest.test_case "arithmetic" `Quick test_simtime_arithmetic;
          Alcotest.test_case "ordering" `Quick test_simtime_ordering;
          Alcotest.test_case "seconds conversion" `Quick test_simtime_to_sec;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "copy replays" `Quick test_rng_copy_replays;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
          Alcotest.test_case "poisson mean" `Slow test_rng_poisson_mean;
          Alcotest.test_case "geometric" `Slow test_rng_geometric;
        ] );
      ( "event_queue",
        [
          Alcotest.test_case "time order" `Quick test_queue_time_order;
          Alcotest.test_case "fifo ties" `Quick test_queue_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_queue_cancel;
          Alcotest.test_case "peek" `Quick test_queue_peek;
          Alcotest.test_case "interleaved growth" `Quick test_queue_interleaved_growth;
          Alcotest.test_case "cancel-heavy occupancy bounded" `Quick
            test_queue_cancel_heavy_bounded;
          Alcotest.test_case "stale handle cancel is a no-op" `Quick
            test_queue_stale_handle_cancel;
          qc prop_queue_matches_sort;
          qc prop_queue_model_mixed;
          qc prop_queue_model_cancel_heavy;
          qc prop_queue_model_take;
          Alcotest.test_case "WAN-shaped queue compacts" `Quick
            test_queue_wan_shaped_compacts;
        ] );
      ( "soft_timer",
        [
          Alcotest.test_case "fires once at deadline" `Quick
            test_soft_fires_once;
          Alcotest.test_case "double cancel is a no-op" `Quick
            test_soft_double_cancel_noop;
          Alcotest.test_case "cancel after fire is a no-op" `Quick
            test_soft_cancel_after_fire_noop;
          Alcotest.test_case "later re-arm fuses, event chases" `Quick
            test_soft_fuse_and_chase;
          Alcotest.test_case "earlier re-arm reschedules" `Quick
            test_soft_rearm_earlier;
          Alcotest.test_case "detach leaves queue empty" `Quick
            test_soft_detach_clears_queue;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "runs in order" `Quick test_sim_runs_in_order;
          Alcotest.test_case "clock advances" `Quick test_sim_clock_advances;
          Alcotest.test_case "schedule_after" `Quick test_sim_schedule_after;
          Alcotest.test_case "past rejected" `Quick test_sim_past_rejected;
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "until horizon" `Quick test_sim_until_horizon;
          Alcotest.test_case "drained queue reaches horizon" `Quick
            test_sim_clock_reaches_drained_horizon;
          Alcotest.test_case "stop leaves clock" `Quick
            test_sim_stop_leaves_clock;
          Alcotest.test_case "stop" `Quick test_sim_stop;
          Alcotest.test_case "max events" `Quick test_sim_max_events;
          Alcotest.test_case "step" `Quick test_sim_step;
        ] );
    ]
