(* Tests for the observability layer: Jsonl, Sink, Registry, Trace,
   Invariant, checked-mode simulation, and the determinism of the
   trace/metrics output across domain counts. *)

open Core

(* ------------------------------------------------------------------ *)
(* Jsonl                                                               *)
(* ------------------------------------------------------------------ *)

let test_jsonl_field_order () =
  Alcotest.(check string) "fields render in order"
    "{\"t\":12,\"ratio\":0.5,\"name\":\"x\",\"ok\":true}\n"
    (Obs.Jsonl.line
       [
         ("t", Obs.Jsonl.Int 12);
         ("ratio", Obs.Jsonl.Float 0.5);
         ("name", Obs.Jsonl.Str "x");
         ("ok", Obs.Jsonl.Bool true);
       ])

let test_jsonl_float_repr () =
  let render v = Obs.Jsonl.line [ ("v", Obs.Jsonl.Float v) ] in
  Alcotest.(check string) "whole floats without exponent" "{\"v\":1042}\n"
    (render 1042.0);
  Alcotest.(check string) "negative whole" "{\"v\":-3}\n" (render (-3.0));
  Alcotest.(check string) "fraction round-trips" "{\"v\":2.5}\n" (render 2.5)

let test_jsonl_escaping () =
  Alcotest.(check string) "quotes, backslash, newline, control"
    "{\"k\":\"a\\\"b\\\\c\\nd\\u0001\"}\n"
    (Obs.Jsonl.line [ ("k", Obs.Jsonl.Str "a\"b\\c\nd\001") ])

(* ------------------------------------------------------------------ *)
(* Sink                                                                *)
(* ------------------------------------------------------------------ *)

let test_sink_buffer () =
  let sink = Obs.Sink.buffer () in
  Obs.Sink.write sink "one\n";
  Obs.Sink.write sink "two\n";
  Alcotest.(check (option string)) "accumulates" (Some "one\ntwo\n")
    (Obs.Sink.contents sink);
  Alcotest.(check (option string)) "null has no contents" None
    (Obs.Sink.contents Obs.Sink.null)

let test_sink_custom () =
  let got = ref [] in
  let sink = Obs.Sink.custom (fun line -> got := line :: !got) in
  Obs.Sink.write sink "a";
  Obs.Sink.write sink "b";
  Alcotest.(check (list string)) "called per line" [ "a"; "b" ] (List.rev !got)

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_counters_and_gauges () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r "runs" in
  Obs.Registry.incr c;
  Obs.Registry.add c 4;
  (* Same name returns the same instrument. *)
  Obs.Registry.incr (Obs.Registry.counter r "runs");
  Obs.Registry.set (Obs.Registry.gauge r "cwnd") 536.0;
  Alcotest.(check string) "rendered sorted by name"
    "{\"metric\":\"cwnd\",\"type\":\"gauge\",\"value\":536}\n\
     {\"metric\":\"runs\",\"type\":\"counter\",\"value\":6}\n"
    (Obs.Registry.to_jsonl r)

let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec find i =
    i + nn <= nh && (String.sub haystack i nn = needle || find (i + 1))
  in
  find 0

let test_registry_histogram () =
  let r = Obs.Registry.create () in
  let h = Obs.Registry.histogram r "rtt" in
  List.iter (Obs.Registry.observe h) [ 1.0; 2.0; 3.0; 100.0 ];
  let line = Obs.Registry.to_jsonl r in
  Alcotest.(check bool) "count" true (contains_sub line "\"count\":4");
  Alcotest.(check bool) "sum" true (contains_sub line "\"sum\":106");
  Alcotest.(check bool) "min" true (contains_sub line "\"min\":1");
  Alcotest.(check bool) "max" true (contains_sub line "\"max\":100")

let test_registry_disabled_noop () =
  let c = Obs.Registry.counter Obs.Registry.disabled "x" in
  let h = Obs.Registry.histogram Obs.Registry.disabled "y" in
  Obs.Registry.incr c;
  Obs.Registry.observe h 5.0;
  Alcotest.(check bool) "disabled registry not enabled" false
    (Obs.Registry.enabled Obs.Registry.disabled);
  Alcotest.(check string) "renders empty" "" (Obs.Registry.to_jsonl Obs.Registry.disabled)

(* ------------------------------------------------------------------ *)
(* Trace and Invariant                                                 *)
(* ------------------------------------------------------------------ *)

let test_trace_emit () =
  let tr = Obs.Trace.create ~sink:(Obs.Sink.buffer ()) () in
  Obs.Trace.emit tr ~t_ns:42 ~comp:"tcp" ~ev:"send"
    [ ("seq", Obs.Jsonl.Int 7) ];
  Alcotest.(check (option string)) "line with t/comp/ev first"
    (Some "{\"t\":42,\"comp\":\"tcp\",\"ev\":\"send\",\"seq\":7}\n")
    (Obs.Trace.contents tr);
  Alcotest.(check bool) "disabled trace not enabled" false
    (Obs.Trace.enabled Obs.Trace.disabled);
  Obs.Trace.emit Obs.Trace.disabled ~t_ns:0 ~comp:"x" ~ev:"y" [];
  Alcotest.(check (option string)) "disabled trace keeps nothing" None
    (Obs.Trace.contents Obs.Trace.disabled)

let test_invariant_fail () =
  (* The checker idiom: the detail is built only on the failing
     branch. *)
  let check ~name cond =
    if not cond then Obs.Invariant.fail ~name (Printf.sprintf "why %d" 42)
  in
  check ~name:"fine" true;
  match check ~name:"broken" false with
  | () -> Alcotest.fail "expected Violation"
  | exception (Obs.Invariant.Violation { name; detail } as exn) ->
    Alcotest.(check string) "name" "broken" name;
    Alcotest.(check string) "detail" "why 42" detail;
    Alcotest.(check (option string)) "rendering"
      (Some "invariant violated: broken (why 42)")
      (Obs.Invariant.to_string exn)

(* ------------------------------------------------------------------ *)
(* Checked end-to-end runs                                             *)
(* ------------------------------------------------------------------ *)

let small_lan ~scheme ~seed =
  Scenario.lan ~scheme ~file_bytes:(256 * 1024) ~seed ()

let checked_scenarios =
  [
    ("wan basic", Scenario.wan ~scheme:Scenario.Basic ());
    ("wan ebsn", Scenario.wan ~scheme:Scenario.Ebsn ());
    ("wan local-recovery", Scenario.wan ~scheme:Scenario.Local_recovery ());
    ("lan basic", small_lan ~scheme:Scenario.Basic ~seed:1);
    ("lan ebsn", small_lan ~scheme:Scenario.Ebsn ~seed:1);
  ]

let test_checked_runs_clean () =
  (* Every invariant holds at every event of representative WAN and
     LAN runs; a single violation raises out of Wiring.run. *)
  List.iter
    (fun (name, scenario) ->
      let outcome = Wiring.run ~obs:Obs.Config.checked scenario in
      Alcotest.(check bool) (name ^ " completes under check") true
        outcome.Wiring.completed)
    checked_scenarios

let test_checked_equals_unchecked () =
  (* Checked mode observes, never perturbs: same outcome either way. *)
  let scenario = Scenario.wan ~scheme:Scenario.Ebsn ~seed:3 () in
  let plain = Wiring.run ~obs:Obs.Config.off scenario in
  let checked = Wiring.run ~obs:Obs.Config.checked scenario in
  Alcotest.(check int) "same end time"
    (Simtime.to_ns plain.Wiring.end_time)
    (Simtime.to_ns checked.Wiring.end_time);
  Alcotest.(check int) "same sends"
    plain.Wiring.sender_stats.Tcp_stats.packets_sent
    checked.Wiring.sender_stats.Tcp_stats.packets_sent

let test_checked_allocates_nothing () =
  (* Every registered checker runs after every event (uplink ARQ adds
     the second ARQ checker), yet a passing check allocates nothing:
     checked mode may cost only its one-off registrations. *)
  let scenario =
    { (Scenario.wan ~scheme:Scenario.Ebsn ~seed:3 ()) with Scenario.uplink_arq = true }
  in
  let run obs =
    let w0 = Gc.minor_words () in
    let o = Wiring.run ~obs scenario in
    (Gc.minor_words () -. w0, o)
  in
  ignore (run Obs.Config.off);
  let plain, o = run Obs.Config.off in
  let checked, _ = run Obs.Config.checked in
  Alcotest.(check bool)
    (Printf.sprintf "enough events (%d)" o.Wiring.events_executed)
    true
    (o.Wiring.events_executed >= 5_000);
  if checked > plain +. 256. then
    Alcotest.failf "checked run allocated %.0f minor words, unchecked %.0f"
      checked plain

let test_mutation_canary () =
  (* The checker must bite: corrupt the sender's sequence state behind
     its back and the next event aborts with tcp.sequence_order. *)
  let sim = Simulator.create ~seed:1 () in
  let sender =
    Tcp_sender.create sim ~config:Tcp_config.default ~conn:0
      ~src:(Address.make 0) ~dst:(Address.make 2) ~total_bytes:100_000
      ~alloc_id:(fun () -> 0)
      ~transmit:(fun _ -> ())
  in
  Simulator.set_checked sim true;
  Simulator.add_invariant sim (fun () ->
      Tcp_sender.check_invariants sender);
  ignore
    (Simulator.schedule sim ~at:(Simtime.of_ns 10) (fun () ->
         Tcp_sender.For_testing.corrupt_sequence_state sender));
  (* [Simulator.run] wraps handler exceptions — violations included —
     in a fault report carrying queue state at the point of failure. *)
  (match Simulator.run sim with
  | () -> Alcotest.fail "corrupted sender must trip the checker"
  | exception Simulator.Fault report ->
    (match report.Simulator.error with
    | Obs.Invariant.Violation { name; _ } ->
      Alcotest.(check string) "named invariant" "tcp.sequence_order" name
    | exn -> Alcotest.fail ("expected a violation, got " ^ Printexc.to_string exn));
    Alcotest.(check bool) "events counted in report" true
      (report.Simulator.events_executed > 0));
  (* Unchecked, the same corruption passes silently — the canary shows
     the checker, not the schedule, catches it. *)
  let sim2 = Simulator.create ~seed:1 () in
  let sender2 =
    Tcp_sender.create sim2 ~config:Tcp_config.default ~conn:0
      ~src:(Address.make 0) ~dst:(Address.make 2) ~total_bytes:100_000
      ~alloc_id:(fun () -> 0)
      ~transmit:(fun _ -> ())
  in
  ignore
    (Simulator.schedule sim2 ~at:(Simtime.of_ns 10) (fun () ->
         Tcp_sender.For_testing.corrupt_sequence_state sender2));
  Simulator.run sim2

let test_time_monotonic_guard () =
  (* Feeding the queue an in-order schedule passes; the monotonicity
     check is exercised by every checked run above.  Here: checked
     stepping executes and counts events. *)
  let sim = Simulator.create () in
  Simulator.set_checked sim true;
  let fired = ref 0 in
  for i = 1 to 5 do
    ignore (Simulator.schedule sim ~at:(Simtime.of_ns i) (fun () -> incr fired))
  done;
  Simulator.run sim;
  Alcotest.(check int) "all events ran checked" 5 !fired;
  Alcotest.(check int) "events counted" 5 (Simulator.events_executed sim);
  Alcotest.(check bool) "queue stats maintained" true
    ((Simulator.queue_stats sim).Event_queue.adds >= 5)

(* ------------------------------------------------------------------ *)
(* Determinism across domains                                          *)
(* ------------------------------------------------------------------ *)

(* The checked battery at seeds 1 and 2. *)
let determinism_scenarios =
  List.concat_map
    (fun seed ->
      List.map
        (fun (name, s) ->
          (Printf.sprintf "%s seed=%d" name seed, Scenario.with_seed s seed))
        checked_scenarios)
    [ 1; 2 ]

let collect ~jobs =
  Parallel.map ~jobs
    (fun (_, scenario) ->
      let o = Wiring.run ~obs:Obs.Config.all scenario in
      ( Option.value o.Wiring.obs_trace ~default:"",
        Option.value o.Wiring.obs_metrics ~default:"" ))
    determinism_scenarios

let test_obs_output_deterministic () =
  let seq = collect ~jobs:1 in
  let par = collect ~jobs:2 in
  List.iteri
    (fun i ((t1, m1), (t2, m2)) ->
      let name = fst (List.nth determinism_scenarios i) in
      Alcotest.(check bool) (name ^ ": trace non-empty") true
        (String.length t1 > 0);
      Alcotest.(check bool) (name ^ ": metrics non-empty") true
        (String.length m1 > 0);
      Alcotest.(check bool) (name ^ ": trace byte-identical") true (t1 = t2);
      Alcotest.(check bool) (name ^ ": metrics byte-identical") true (m1 = m2))
    (List.combine seq par)

(* ------------------------------------------------------------------ *)
(* Randomised Gilbert–Elliott scenarios stay invariant-clean           *)
(* ------------------------------------------------------------------ *)

let prop_checked_random_scenarios =
  QCheck2.Test.make
    ~name:"randomised WAN scenarios run invariant-clean under check"
    ~count:12
    QCheck2.Gen.(
      let* seed = int_range 1 10_000 in
      let* scheme = oneofl [ Scenario.Basic; Scenario.Ebsn; Scenario.Local_recovery ] in
      let* packet_size = oneofl [ 200; 576; 1000 ] in
      let* mean_bad_sec = float_range 0.5 6.0 in
      let+ mean_good_sec = float_range 2.0 15.0 in
      (seed, scheme, packet_size, mean_bad_sec, mean_good_sec))
    (fun (seed, scheme, packet_size, mean_bad_sec, mean_good_sec) ->
      let scenario =
        Scenario.wan ~scheme ~packet_size ~mean_bad_sec ~mean_good_sec
          ~file_bytes:30_000 ~seed ()
      in
      (* Any Violation escapes and fails the property. *)
      let outcome = Wiring.run ~obs:Obs.Config.checked scenario in
      Simtime.to_ns outcome.Wiring.end_time > 0)

(* ------------------------------------------------------------------ *)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [
      ( "jsonl",
        [
          Alcotest.test_case "field order" `Quick test_jsonl_field_order;
          Alcotest.test_case "float repr" `Quick test_jsonl_float_repr;
          Alcotest.test_case "escaping" `Quick test_jsonl_escaping;
        ] );
      ( "sink",
        [
          Alcotest.test_case "buffer" `Quick test_sink_buffer;
          Alcotest.test_case "custom" `Quick test_sink_custom;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counters and gauges" `Quick
            test_registry_counters_and_gauges;
          Alcotest.test_case "histogram" `Quick test_registry_histogram;
          Alcotest.test_case "disabled noop" `Quick test_registry_disabled_noop;
        ] );
      ( "trace",
        [
          Alcotest.test_case "emit" `Quick test_trace_emit;
          Alcotest.test_case "invariant fail" `Quick test_invariant_fail;
        ] );
      ( "checked",
        [
          Alcotest.test_case "wan+lan run clean" `Slow test_checked_runs_clean;
          Alcotest.test_case "checked equals unchecked" `Slow
            test_checked_equals_unchecked;
          Alcotest.test_case "checked run allocates nothing" `Quick
            test_checked_allocates_nothing;
          Alcotest.test_case "mutation canary" `Quick test_mutation_canary;
          Alcotest.test_case "monotonic stepping" `Quick
            test_time_monotonic_guard;
          qc prop_checked_random_scenarios;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "trace+metrics identical across jobs" `Slow
            test_obs_output_deterministic;
        ] );
    ]
