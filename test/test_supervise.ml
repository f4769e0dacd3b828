(* Tests for the supervised campaign runner: the manifest codec
   (torn-tail tolerance included), deadline enforcement through the
   simulator's event budget, retry tiers that rescue transient
   deadline misses, quarantine of deterministic failures, the
   sabotage injectors (killed worker, poisoned checkpoint), a
   persistence failure stopping the campaign, and the headline
   contract — an interrupted-and-resumed campaign is byte-identical to
   an uninterrupted one at any jobs, pinned by qcheck properties that
   kill at a random cell index.

   Supervisor state that is process-global (cache mode, counters) is
   restored on the way out of every test that touches it. *)

open Core

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Fresh temp root per test: store under <root>/store, manifests under
   <root>/manifests, removed on exit. *)
let with_dirs f =
  let root = Filename.temp_file "wtcp_supervise_test" "" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  let store = Filename.concat root "store" in
  let manifests = Filename.concat root "manifests" in
  Fun.protect ~finally:(fun () -> rm_rf root) (fun () -> f ~store ~manifests)

(* ------------------------------------------------------------------ *)
(* Manifest                                                            *)
(* ------------------------------------------------------------------ *)

let qc = QCheck_alcotest.to_alcotest
let read_all path = In_channel.with_open_bin path In_channel.input_all
let write_all path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let test_manifest_roundtrip () =
  with_dirs @@ fun ~store:_ ~manifests ->
  let path = Campaign_manifest.path ~dir:manifests ~id:"abc123" in
  let spec = "chaos plans=4 seed=1 cc=tahoe check=1" in
  let payload = "c1 6212 4%x C1\nsecond line" in
  let t = Campaign_manifest.create ~path ~id:"abc123" ~spec ~cells:4 in
  Campaign_manifest.append t ~idx:0
    (Campaign_manifest.Done { key = "deadbeef"; payload });
  Campaign_manifest.append t ~idx:2
    (Campaign_manifest.Quarantined
       { attempts = 3; error = "Simulator.Fault: boom, with spaces\nand \
                                a newline" });
  Campaign_manifest.flush t;
  Campaign_manifest.close t;
  match Campaign_manifest.load ~path with
  | Error msg -> Alcotest.failf "load failed: %s" msg
  | Ok m ->
    Alcotest.(check string) "id" "abc123" m.Campaign_manifest.header.id;
    Alcotest.(check string) "spec" spec m.Campaign_manifest.header.spec;
    Alcotest.(check int) "cells" 4 m.Campaign_manifest.header.cells;
    (match m.Campaign_manifest.entries.(0) with
    | Some (Campaign_manifest.Done { key; payload = p }) ->
      Alcotest.(check string) "done key" "deadbeef" key;
      Alcotest.(check string) "done payload" payload p
    | _ -> Alcotest.fail "cell 0 not Done");
    Alcotest.(check bool) "cell 1 unsettled" true
      (m.Campaign_manifest.entries.(1) = None);
    (match m.Campaign_manifest.entries.(2) with
    | Some (Campaign_manifest.Quarantined { attempts; error }) ->
      Alcotest.(check int) "attempts" 3 attempts;
      Alcotest.(check bool) "error text survives encoding" true
        (String.length error > 0
        && String.contains error ' '
        && String.contains error '\n')
    | _ -> Alcotest.fail "cell 2 not Quarantined")

let test_manifest_torn_tail () =
  with_dirs @@ fun ~store:_ ~manifests ->
  let path = Campaign_manifest.path ~dir:manifests ~id:"torn" in
  let t = Campaign_manifest.create ~path ~id:"torn" ~spec:"spec x=1" ~cells:3 in
  let done_ key payload = Campaign_manifest.Done { key; payload } in
  Campaign_manifest.append t ~idx:0 (done_ "k0" "payload 0");
  Campaign_manifest.append t ~idx:1 (done_ "k1" "payload 1");
  Campaign_manifest.flush t;
  Campaign_manifest.close t;
  (* Tear the final line mid-write: the loader must drop it and keep
     the intact prefix.  The cut leaves "done 1 k1 payloa", a prefix
     whose payload would decode if the line were ever terminated. *)
  let full = read_all path in
  write_all path (String.sub full 0 (String.length full - 6));
  (match Campaign_manifest.load ~path with
  | Error msg -> Alcotest.failf "torn load failed: %s" msg
  | Ok m ->
    Alcotest.(check bool) "cell 0 survives" true
      (m.Campaign_manifest.entries.(0) = Some (done_ "k0" "payload 0"));
    Alcotest.(check bool) "torn cell 1 dropped" true
      (m.Campaign_manifest.entries.(1) = None));
  (* Reopened after the tear, the torn line is cut off: the next
     record loads and the torn cell stays unsettled. *)
  let t = Campaign_manifest.open_append ~path in
  Campaign_manifest.append t ~idx:2 (done_ "k2" "payload 2");
  Campaign_manifest.close t;
  (match Campaign_manifest.load ~path with
  | Error msg -> Alcotest.failf "reopened load failed: %s" msg
  | Ok m ->
    Alcotest.(check bool) "torn cell 1 still unsettled" true
      (m.Campaign_manifest.entries.(1) = None);
    Alcotest.(check bool) "record after the tear survives" true
      (m.Campaign_manifest.entries.(2) = Some (done_ "k2" "payload 2")));
  (* A payload that does not decode, and a record in the old
     payload-less format, both read as unsettled. *)
  let header =
    "wtcp-campaign " ^ Fingerprint.engine_version
    ^ "\nid torn\nspec spec x=1\ncells 3\n"
  in
  write_all path (header ^ "done 0 k0 bad%zz\ndone 1 k1 trailing%\ndone 2 k2\n");
  (match Campaign_manifest.load ~path with
  | Error msg -> Alcotest.failf "damaged-payload load failed: %s" msg
  | Ok m ->
    Alcotest.(check bool) "undecodable payloads and old records unsettled" true
      (Array.for_all Option.is_none m.Campaign_manifest.entries));
  (* A manifest minted by another engine version is refused whole. *)
  write_all path "wtcp-campaign wtcp-engine-0.0.1\nid torn\nspec spec \
                  x=1\ncells 3\n";
  match Campaign_manifest.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stale engine version accepted"

(* A record carries its payload as the rest of the line with only '%'
   and newline escaped; a manifest written when spaces, ':' and ','
   were escaped too still loads to the same cells. *)
let test_manifest_escaping () =
  with_dirs @@ fun ~store:_ ~manifests ->
  let path = Campaign_manifest.path ~dir:manifests ~id:"esc" in
  let payload = "c1 6212 4%x C1:a,b\nsecond line" in
  let error = "Simulator.Fault: boom, with spaces" in
  let t = Campaign_manifest.create ~path ~id:"esc" ~spec:"esc" ~cells:2 in
  Campaign_manifest.append t ~idx:0 (Campaign_manifest.Done { key = "k0"; payload });
  Campaign_manifest.append t ~idx:1
    (Campaign_manifest.Quarantined { attempts = 2; error });
  Campaign_manifest.close t;
  let header =
    "wtcp-campaign " ^ Fingerprint.engine_version ^ "\nid esc\nspec esc\ncells 2\n"
  in
  Alcotest.(check string) "compact records"
    (header ^ "done 0 k0 c1 6212 4%25x C1:a,b%0asecond line\n"
   ^ "quar 1 2 Simulator.Fault: boom, with spaces\n")
    (read_all path);
  write_all path
    (header ^ "done 0 k0 c1%206212%204%25x%20C1%3aa%2cb%0asecond%20line\n"
   ^ "quar 1 2 Simulator.Fault%3a%20boom%2c%20with%20spaces\n");
  match Campaign_manifest.load ~path with
  | Error msg -> Alcotest.failf "old-escaping load failed: %s" msg
  | Ok m ->
    Alcotest.(check bool) "old done record" true
      (m.Campaign_manifest.entries.(0)
      = Some (Campaign_manifest.Done { key = "k0"; payload }));
    Alcotest.(check bool) "old quar record" true
      (m.Campaign_manifest.entries.(1)
      = Some (Campaign_manifest.Quarantined { attempts = 2; error }))

(* Any payloads — spaces, '%', newlines, the empty string, arbitrary
   bytes — survive append/load exactly.  Tearing the final record at
   every cut inside its line leaves just that cell unsettled, before
   and after a resume reopens the manifest and appends one more
   record, which loads. *)
let qcheck_manifest_payload_roundtrip =
  let payload =
    QCheck.(
      oneof
        [
          oneofl [ ""; " "; "%"; "\n"; "%25"; "a b%c\nd"; "%%\n\n  " ];
          small_string;
          string_gen_of_size Gen.small_nat
            (Gen.oneofl [ ' '; '%'; '\n'; 'a'; '0'; 'f' ]);
        ])
  in
  QCheck.Test.make ~count:200 ~name:"manifest payload round-trip and torn record"
    QCheck.(list_of_size Gen.(1 -- 6) payload)
    (fun payloads ->
      with_dirs @@ fun ~store:_ ~manifests ->
      let path = Campaign_manifest.path ~dir:manifests ~id:"qc" in
      let n = List.length payloads in
      let record idx payload =
        Campaign_manifest.Done { key = Printf.sprintf "k%d" idx; payload }
      in
      (* One spare cell, n, for the record appended after a tear. *)
      let t = Campaign_manifest.create ~path ~id:"qc" ~spec:"qc" ~cells:(n + 1) in
      List.iteri (fun idx p -> Campaign_manifest.append t ~idx (record idx p)) payloads;
      Campaign_manifest.close t;
      let entries () =
        match Campaign_manifest.load ~path with
        | Ok m -> m.Campaign_manifest.entries
        | Error msg -> QCheck.Test.fail_reportf "load failed: %s" msg
      in
      let intact_prefix e =
        List.for_all2
          (fun i p -> i = n - 1 || e.(i) = Some (record i p))
          (List.init n Fun.id) payloads
      in
      let intact = entries () in
      let full = read_all path in
      let last_start = String.rindex_from full (String.length full - 2) '\n' + 1 in
      let line_len = String.length full - last_start in
      intact_prefix intact
      && intact.(n - 1) = Some (record (n - 1) (List.nth payloads (n - 1)))
      && List.for_all
           (fun cut ->
             write_all path (String.sub full 0 (String.length full - cut));
             let torn = entries () in
             let t = Campaign_manifest.open_append ~path in
             Campaign_manifest.append t ~idx:n (record n "after the tear");
             Campaign_manifest.close t;
             let reopened = entries () in
             torn.(n - 1) = None
             && intact_prefix torn
             && reopened.(n - 1) = None
             && intact_prefix reopened
             && reopened.(n) = Some (record n "after the tear"))
           (* Cut between 1 byte and the whole final line. *)
           (List.init line_len (fun c -> c + 1)))

(* ------------------------------------------------------------------ *)
(* Supervisor core                                                     *)
(* ------------------------------------------------------------------ *)

(* Cheap deterministic cells: simulate runs a small simulation whose
   event count scales with the payload, so event budgets bite
   predictably. *)
let sim_cell ?(events = 5) i =
  let simulate () =
    let sim = Simulator.create () in
    let count = ref 0 in
    let rec arm k =
      if k < events then
        ignore
          (Simulator.schedule sim
             ~at:(Simtime.add (Simulator.now sim) (Simtime.span_sec 0.001))
             (fun () ->
               incr count;
               arm (k + 1)))
    in
    arm 0;
    Simulator.run sim;
    (i * 1000) + !count
  in
  {
    Supervisor.key = Printf.sprintf "cell%04d" i;
    simulate;
    encode = string_of_int;
    decode = int_of_string_opt;
  }

let test_supervised_equals_sequential () =
  let cells = Array.init 20 sim_cell in
  let expect = Array.map (fun c -> c.Supervisor.simulate ()) cells in
  List.iter
    (fun jobs ->
      let r = Supervisor.run ~jobs cells in
      Alcotest.(check int) "all settled" 20 r.Supervisor.completed;
      Array.iteri
        (fun i o ->
          match o with
          | Some (Supervisor.Done v) ->
            Alcotest.(check int)
              (Printf.sprintf "cell %d at jobs=%d" i jobs)
              expect.(i) v
          | _ -> Alcotest.failf "cell %d not Done at jobs=%d" i jobs)
        r.Supervisor.outcomes)
    [ 1; 4 ]

let test_deadline_quarantine () =
  let before = Supervisor.stats () in
  (* 10-event cells against a 4-event budget relaxed only 2x per
     retry: 4 -> 8 over 2 attempts, every attempt exhausts, the cell
     quarantines. *)
  let config =
    {
      Supervisor.default_config with
      Supervisor.deadline_events = Some 4;
      max_attempts = 2;
      relax_factor = 2;
      backoff_base_ms = 1.0;
    }
  in
  let cells = Array.init 2 (sim_cell ~events:10) in
  let r = Supervisor.run ~config cells in
  Alcotest.(check int) "both quarantined" 2 r.Supervisor.quarantined;
  Array.iter
    (fun o ->
      match o with
      | Some (Supervisor.Quarantined { attempts; error }) ->
        Alcotest.(check int) "attempts exhausted" 2 attempts;
        Alcotest.(check bool) "error names the budget" true
          (String.length error > 0)
      | _ -> Alcotest.fail "expected quarantine")
    r.Supervisor.outcomes;
  let after = Supervisor.stats () in
  Alcotest.(check bool) "deadline hits counted" true
    (after.Supervisor.deadline_hits - before.Supervisor.deadline_hits >= 4);
  Alcotest.(check bool) "retries counted" true
    (after.Supervisor.retries - before.Supervisor.retries >= 2);
  Alcotest.(check bool) "quarantines counted" true
    (after.Supervisor.quarantined - before.Supervisor.quarantined = 2)

let test_relaxed_budget_rescues () =
  (* 10-event cells, budget 4 relaxed 8x on retry: attempt 1 exhausts,
     attempt 2 (budget 32) succeeds — retry tiers rescue cells the
     base deadline is too tight for. *)
  let config =
    {
      Supervisor.default_config with
      Supervisor.deadline_events = Some 4;
      backoff_base_ms = 1.0;
    }
  in
  let cells = Array.init 3 (sim_cell ~events:10) in
  let r = Supervisor.run ~config cells in
  Alcotest.(check int) "none quarantined" 0 r.Supervisor.quarantined;
  Array.iteri
    (fun i o ->
      match o with
      | Some (Supervisor.Done v) ->
        Alcotest.(check int) "value intact" ((i * 1000) + 10) v
      | _ -> Alcotest.fail "expected Done")
    r.Supervisor.outcomes

let test_kill_sabotage_recovers () =
  let cells = Array.init 4 sim_cell in
  let expect = Array.map (fun c -> c.Supervisor.simulate ()) cells in
  let config =
    { Supervisor.default_config with Supervisor.backoff_base_ms = 1.0 }
  in
  let sabotage =
    { Supervisor.no_sabotage with Supervisor.kill_cell = Some 2 }
  in
  let r = Supervisor.run ~config ~sabotage cells in
  Alcotest.(check int) "none quarantined" 0 r.Supervisor.quarantined;
  Array.iteri
    (fun i o ->
      match o with
      | Some (Supervisor.Done v) -> Alcotest.(check int) "value" expect.(i) v
      | _ -> Alcotest.fail "expected Done")
    r.Supervisor.outcomes

(* Replace the payload of cell [idx]'s [done] record in place.  The
   payloads these tests write need no percent-encoding. *)
let rewrite_record ~manifests ~spec cells idx payload =
  let keys = Array.map (fun c -> c.Supervisor.key) cells in
  let path =
    Campaign_manifest.path ~dir:manifests ~id:(Supervisor.campaign_id ~spec ~keys)
  in
  let prefix = Printf.sprintf "done %d %s " idx keys.(idx) in
  let lines = String.split_on_char '\n' (read_all path) in
  if not (List.exists (String.starts_with ~prefix) lines) then
    Alcotest.failf "no record for cell %d" idx;
  write_all path
    (String.concat "\n"
       (List.map
          (fun l -> if String.starts_with ~prefix l then prefix ^ payload else l)
          lines))

let test_checkpoint_resume_and_poison_heal () =
  with_dirs @@ fun ~store ~manifests ->
  let spec = "test cells=8" in
  let cells () = Array.init 8 sim_cell in
  let full =
    Supervisor.run ~spec ~store_dir:store ~manifest_dir:manifests (cells ())
  in
  Alcotest.(check int) "first run simulates all" 8 full.Supervisor.completed;
  (* Same campaign again: everything restores, nothing simulates. *)
  let again =
    Supervisor.run ~spec ~store_dir:store ~manifest_dir:manifests (cells ())
  in
  Alcotest.(check int) "resume simulates nothing" 0 again.Supervisor.completed;
  Alcotest.(check int) "resume restores all" 8 again.Supervisor.resumed;
  Alcotest.(check bool) "outcomes identical" true
    (full.Supervisor.outcomes = again.Supervisor.outcomes);
  (* Poison one cell's record: the resume heals it by re-simulating
     just that cell. *)
  rewrite_record ~manifests ~spec (cells ()) 3 "garbage";
  let healed =
    Supervisor.run ~spec ~store_dir:store ~manifest_dir:manifests (cells ())
  in
  Alcotest.(check int) "one cell re-simulated" 1 healed.Supervisor.completed;
  Alcotest.(check int) "seven restored" 7 healed.Supervisor.resumed;
  Alcotest.(check bool) "healed outcomes identical" true
    (full.Supervisor.outcomes = healed.Supervisor.outcomes)

let test_verify_mismatch_on_resume () =
  with_dirs @@ fun ~store ~manifests ->
  let spec = "test cells=2" in
  let cells () = Array.init 2 sim_cell in
  ignore
    (Supervisor.run ~spec ~store_dir:store ~manifest_dir:manifests (cells ()));
  (* Overwrite a checkpoint with a VALID but wrong payload: only
     verify mode can catch this. *)
  let key = (cells ()).(1).Supervisor.key in
  rewrite_record ~manifests ~spec (cells ()) 1 (string_of_int 999_999);
  Fun.protect
    ~finally:(fun () ->
      Cache.set_mode Cache.Off;
      Cache.reset_stats ())
    (fun () ->
      Cache.set_mode Cache.Verify;
      match
        Supervisor.run ~spec ~store_dir:store ~manifest_dir:manifests (cells ())
      with
      | exception Cache.Verify_mismatch { key = k; _ } ->
        Alcotest.(check string) "mismatch names the entry" key k
      | _ -> Alcotest.fail "verify mode accepted a forged checkpoint")

(* A persistence failure stops the campaign: every participant stops
   claiming cells, the exception reaches the caller, and the manifest
   is closed with its header intact.  Checked with every cell's
   [encode] failing, and with only cell 0's failing, where the other
   participant would otherwise run on to the end. *)
let test_persist_failure_stops_campaign () =
  List.iter
    (fun failing ->
      with_dirs @@ fun ~store ~manifests ->
      let spec = "test encode-fails" in
      let simulated = Atomic.make 0 in
      let cells =
        Array.init 64 (fun i ->
            let c = sim_cell ~events:2_000 i in
            {
              c with
              Supervisor.simulate =
                (fun () ->
                  Atomic.incr simulated;
                  c.Supervisor.simulate ());
              encode =
                (fun v ->
                  if failing i then failwith "encode failed"
                  else c.Supervisor.encode v);
            })
      in
      (match
         Supervisor.run ~jobs:2 ~spec ~store_dir:store ~manifest_dir:manifests
           cells
       with
      | exception Failure msg ->
        Alcotest.(check string) "the encode failure" "encode failed" msg
      | _ -> Alcotest.fail "a failing encode did not stop the campaign");
      Alcotest.(check bool) "stopped before simulating every cell" true
        (Atomic.get simulated < 64);
      let keys = Array.map (fun c -> c.Supervisor.key) cells in
      let path =
        Campaign_manifest.path ~dir:manifests
          ~id:(Supervisor.campaign_id ~spec ~keys)
      in
      match Campaign_manifest.load ~path with
      | Ok m ->
        Alcotest.(check int) "header intact" 64 m.Campaign_manifest.header.cells
      | Error msg -> Alcotest.failf "manifest unreadable after the failure: %s" msg)
    [ (fun _ -> true); (fun i -> i = 0) ]

(* Streaming interrupt accounting, at jobs 1, 2 and 4 and a random
   stop threshold: the interrupt loses at most the cells in flight,
   every cell the interrupted run settled has a record, the resume
   restores exactly those and simulates the rest, and the resumed
   outcomes equal the uninterrupted reference. *)
let qcheck_interrupt_accounting =
  QCheck.Test.make ~count:12 ~name:"streaming interrupt: settled == recorded == resumed"
    QCheck.(pair (int_bound 20) (oneofl [ 1; 2; 4 ]))
    (fun (threshold, jobs) ->
      with_dirs @@ fun ~store ~manifests ->
      let spec = "test streaming" in
      let cells () = Array.init 24 (sim_cell ~events:2_000) in
      let total = 24 in
      let reference = Supervisor.run ~jobs:1 (cells ()) in
      let run ?should_stop () =
        Supervisor.run ~jobs ~spec ~store_dir:store ~manifest_dir:manifests
          ?should_stop (cells ())
      in
      let killed = run ~should_stop:(fun ~completed -> completed > threshold) () in
      let settled =
        Array.fold_left (fun acc o -> if o = None then acc else acc + 1) 0
          killed.Supervisor.outcomes
      in
      let recorded =
        match Option.map (fun path -> Campaign_manifest.load ~path)
                killed.Supervisor.manifest_path with
        | Some (Ok m) -> m.Campaign_manifest.entries
        | _ -> QCheck.Test.fail_report "interrupted manifest unreadable"
      in
      let every_settled_recorded =
        Array.for_all2
          (fun o r -> Option.is_some o = Option.is_some r)
          killed.Supervisor.outcomes recorded
      in
      let resumed = run () in
      settled = killed.Supervisor.completed
      (* The stop fires at threshold + 1; only cells already running
         on the other participants may settle after it. *)
      && settled > threshold
      && settled <= threshold + jobs
      && killed.Supervisor.interrupted = (settled < total)
      && every_settled_recorded
      && resumed.Supervisor.resumed = settled
      && resumed.Supervisor.completed = total - settled
      && (not resumed.Supervisor.interrupted)
      && resumed.Supervisor.outcomes = reference.Supervisor.outcomes)

(* ------------------------------------------------------------------ *)
(* Campaigns                                                           *)
(* ------------------------------------------------------------------ *)

let test_spec_roundtrip () =
  let kinds =
    [
      Campaigns.Chaos { plans = 6; base_seed = 3; cc = None; check = true };
      Campaigns.Chaos
        { plans = 50; base_seed = 1; cc = Some Tcp_config.Vegas; check = false };
      Campaigns.Compare
        {
          preset = Campaigns.Lan;
          packet_size = Some 576;
          bad = Some 1.5;
          good = None;
          file = None;
          seed = 7;
          replications = 4;
          cc = Tcp_config.Reno;
        };
      Campaigns.Advisor { bads = [ 1.0; 2.5; 4.0 ]; replications = 3 };
    ]
  in
  List.iter
    (fun kind ->
      let spec = Campaigns.spec_string kind in
      Alcotest.(check bool) "single line" false (String.contains spec '\n');
      match Campaigns.kind_of_spec spec with
      | Ok k -> Alcotest.(check bool) ("roundtrip " ^ spec) true (k = kind)
      | Error msg -> Alcotest.failf "parse %s: %s" spec msg)
    kinds;
  match Campaigns.kind_of_spec "bogus nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus spec accepted"

let chaos_kind plans =
  Campaigns.Chaos { plans; base_seed = 1; cc = None; check = true }

let test_campaign_resume_identity () =
  with_dirs @@ fun ~store ~manifests ->
  let opts = Campaigns.default_options in
  let reference =
    Campaigns.run ~store_dir:store ~manifest_dir:manifests ~options:opts
      (chaos_kind 5)
  in
  Alcotest.(check bool) "reference ok" true reference.Campaigns.ok;
  Alcotest.(check bool) "reference not interrupted" false
    reference.Campaigns.interrupted;
  (* Interrupt once two cells have settled, then resume at jobs=4. *)
  let interrupted =
    Campaigns.run ~store_dir:store ~manifest_dir:manifests
      ~should_stop:(fun ~completed -> completed >= 2)
      ~options:opts (chaos_kind 5)
  in
  Alcotest.(check bool) "interrupted" true interrupted.Campaigns.interrupted;
  Alcotest.(check bool) "partial header present" true
    (String.length interrupted.Campaigns.rendered >= 8
    && String.sub interrupted.Campaigns.rendered 0 8 = "partial:");
  let resumed =
    Campaigns.run ~jobs:4 ~store_dir:store ~manifest_dir:manifests
      ~options:{ opts with Campaigns.resume = true }
      (chaos_kind 5)
  in
  Alcotest.(check bool) "resumed some cells" true
    (resumed.Campaigns.resumed > 0);
  Alcotest.(check string) "rendered identical" reference.Campaigns.rendered
    resumed.Campaigns.rendered;
  Alcotest.(check bool) "json identical" true
    (reference.Campaigns.json = resumed.Campaigns.json)

let test_campaign_forced_deadline () =
  with_dirs @@ fun ~store ~manifests ->
  let before = Supervisor.stats () in
  let r =
    Campaigns.run ~store_dir:store ~manifest_dir:manifests
      ~sabotage:
        { Supervisor.no_sabotage with Supervisor.force_deadline_cell = Some 0 }
      ~options:
        { Campaigns.default_options with Campaigns.retries = 2; backoff_ms = 1.0 }
      (chaos_kind 4)
  in
  let after = Supervisor.stats () in
  Alcotest.(check int) "one quarantined" 1 r.Campaigns.quarantined;
  Alcotest.(check bool) "campaign still ok" true r.Campaigns.ok;
  Alcotest.(check bool) "every attempt hit the deadline" true
    (after.Supervisor.deadline_hits - before.Supervisor.deadline_hits >= 2);
  Alcotest.(check bool) "retried before quarantine" true
    (after.Supervisor.retries - before.Supervisor.retries >= 1);
  Alcotest.(check bool) "backed off before the retry" true
    (after.Supervisor.backoff_ms - before.Supervisor.backoff_ms > 0);
  Alcotest.(check bool) "headline reports it" true
    (let rec contains i =
       i + 13 <= String.length r.Campaigns.rendered
       && (String.sub r.Campaigns.rendered i 13 = "quarantined=1"
          || contains (i + 1))
     in
     contains 0)

let same_report ~reference label r =
  Alcotest.(check string) (label ^ ": rendered identical")
    reference.Campaigns.rendered r.Campaigns.rendered;
  Alcotest.(check bool) (label ^ ": json identical") true
    (reference.Campaigns.json = r.Campaigns.json)

(* Interrupted at jobs=2 and resumed at jobs=2, the campaign matches
   the uninterrupted jobs=1 reference; resuming the finished campaign
   again simulates nothing, and a verify-mode resume re-simulates
   every restored cell without a divergence. *)
let test_campaign_warm_and_verify_resume () =
  with_dirs @@ fun ~store ~manifests ->
  let opts = Campaigns.default_options in
  let resume = { opts with Campaigns.resume = true } in
  let run ?should_stop ~jobs options =
    Campaigns.run ~jobs ?should_stop ~store_dir:store
      ~manifest_dir:manifests ~options (chaos_kind 4)
  in
  let reference = run ~jobs:1 opts in
  rm_rf store;
  let same = same_report ~reference in
  let interrupted =
    run ~jobs:2
      ~should_stop:(fun ~completed -> completed >= 2)
      opts
  in
  Alcotest.(check bool) "interrupted at jobs=2" true
    interrupted.Campaigns.interrupted;
  let resumed = run ~jobs:2 resume in
  Alcotest.(check bool) "resumed some cells" true
    (resumed.Campaigns.resumed > 0);
  same "resume at jobs=2" resumed;
  let warm = run ~jobs:1 resume in
  Alcotest.(check int) "warm resume simulates nothing" 0
    warm.Campaigns.completed;
  same "warm resume" warm;
  Fun.protect
    ~finally:(fun () ->
      Cache.set_mode Cache.Off;
      Cache.reset_stats ())
    (fun () ->
      Cache.reset_stats ();
      Cache.set_mode Cache.Verify;
      let verified = run ~jobs:1 resume in
      let s = Cache.stats () in
      same "verify-mode resume" verified;
      Alcotest.(check (list int))
        "every restored cell verified, none diverged" [ 4; 0 ]
        [ s.Cache.verify_ok; s.Cache.verify_fail ])

(* A worker killed mid-cell is retried transparently, and a
   checkpoint poisoned right after its flush is healed by the resume:
   both reports match an unsabotaged run. *)
let test_campaign_sabotage_recovers () =
  with_dirs @@ fun ~store ~manifests ->
  let opts =
    { Campaigns.default_options with Campaigns.backoff_ms = 1.0 }
  in
  let run ?sabotage options =
    Campaigns.run ?sabotage ~store_dir:store ~manifest_dir:manifests
      ~options (chaos_kind 4)
  in
  let reference = run opts in
  let same = same_report ~reference in
  rm_rf store;
  let killed =
    run
      ~sabotage:{ Supervisor.no_sabotage with Supervisor.kill_cell = Some 0 }
      opts
  in
  Alcotest.(check int) "killed cell not quarantined" 0
    killed.Campaigns.quarantined;
  same "killed worker" killed;
  rm_rf store;
  ignore
    (run
       ~sabotage:
         { Supervisor.no_sabotage with Supervisor.poison_cell = Some 0 }
       opts);
  let healed = run { opts with Campaigns.resume = true } in
  Alcotest.(check int) "poisoned cell re-simulated" 1
    healed.Campaigns.completed;
  same "healed resume" healed

let test_compare_campaign_runs () =
  with_dirs @@ fun ~store ~manifests ->
  let kind =
    Campaigns.Compare
      {
        preset = Campaigns.Wan;
        packet_size = None;
        bad = None;
        good = None;
        file = Some 20_000;
        seed = 1;
        replications = 2;
        cc = Tcp_config.Tahoe;
      }
  in
  let r =
    Campaigns.run ~jobs:2 ~store_dir:store ~manifest_dir:manifests
      ~options:Campaigns.default_options kind
  in
  Alcotest.(check int) "6 schemes x 2 reps" 12 r.Campaigns.total;
  Alcotest.(check int) "all settled" 12 r.Campaigns.completed;
  (* Header plus one row per scheme. *)
  let lines =
    List.filter
      (fun l -> l <> "")
      (String.split_on_char '\n' r.Campaigns.rendered)
  in
  Alcotest.(check int) "7 report lines" 7 (List.length lines)

(* The headline acceptance property: a chaos campaign killed at a
   random cell index and resumed produces byte-identical reports to
   an uninterrupted run, at jobs=1 and jobs=4. *)
let qcheck_kill_resume_identity =
  QCheck.Test.make ~count:8 ~name:"campaign kill@random+resume is identity"
    QCheck.(pair (int_bound 3) bool)
    (fun (kill_after, parallel) ->
      let jobs = if parallel then 4 else 1 in
      with_dirs @@ fun ~store ~manifests ->
      let opts = Campaigns.default_options in
      let reference =
        Campaigns.run ~jobs ~store_dir:store ~manifest_dir:manifests
          ~options:opts (chaos_kind 4)
      in
      (* The kill run starts cold: a non-resume run deletes the
         reference's manifest, and a campaign reads nothing else. *)
      rm_rf store;
      let _killed =
        Campaigns.run ~jobs ~store_dir:store
          ~manifest_dir:manifests
          ~should_stop:(fun ~completed -> completed > kill_after)
          ~options:opts (chaos_kind 4)
      in
      let resumed =
        Campaigns.run ~jobs ~store_dir:store ~manifest_dir:manifests
          ~options:{ opts with Campaigns.resume = true }
          (chaos_kind 4)
      in
      reference.Campaigns.rendered = resumed.Campaigns.rendered
      && reference.Campaigns.json = resumed.Campaigns.json
      && not resumed.Campaigns.interrupted)

let () =
  Alcotest.run "supervise"
    [
      ( "manifest",
        [
          Alcotest.test_case "roundtrip with quarantine" `Quick
            test_manifest_roundtrip;
          Alcotest.test_case "torn tail and stale engine" `Quick
            test_manifest_torn_tail;
          Alcotest.test_case "compact records, old escaping loads" `Quick
            test_manifest_escaping;
          qc qcheck_manifest_payload_roundtrip;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "supervised map equals sequential" `Quick
            test_supervised_equals_sequential;
          Alcotest.test_case "deadline exhaustion quarantines" `Quick
            test_deadline_quarantine;
          Alcotest.test_case "relaxed budget rescues on retry" `Quick
            test_relaxed_budget_rescues;
          Alcotest.test_case "killed worker recovers" `Quick
            test_kill_sabotage_recovers;
          Alcotest.test_case "checkpoint/resume and poison heal" `Quick
            test_checkpoint_resume_and_poison_heal;
          Alcotest.test_case "verify mode catches forged checkpoint" `Quick
            test_verify_mismatch_on_resume;
          Alcotest.test_case "persistence failure stops the campaign" `Quick
            test_persist_failure_stops_campaign;
          qc qcheck_interrupt_accounting;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "spec codec roundtrip" `Quick test_spec_roundtrip;
          Alcotest.test_case "interrupt+resume identity" `Slow
            test_campaign_resume_identity;
          Alcotest.test_case "forced deadline quarantines" `Slow
            test_campaign_forced_deadline;
          Alcotest.test_case "warm and verify-mode resume" `Slow
            test_campaign_warm_and_verify_resume;
          Alcotest.test_case "kill and poison sabotage recover" `Slow
            test_campaign_sabotage_recovers;
          Alcotest.test_case "supervised compare report" `Slow
            test_compare_campaign_runs;
          qc qcheck_kill_resume_identity;
        ] );
    ]
