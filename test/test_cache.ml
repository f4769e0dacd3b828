(* Tests for the content-addressed replication cache: fingerprint
   sensitivity (any knob perturbation changes the key, equal configs
   collide), the exact measurement codec, the version-stamped on-disk
   store (corrupt/truncated/stale entries are misses, never wrong
   data), the cached sweep path (results byte-identical to uncached,
   memo dedup of repeated cells), verify mode as a determinism
   oracle, and byte-identity of the fig7/fig10/fig11 CSVs cold, warm
   from disk at jobs=1 and jobs=4, warm from the memo and under verify
   mode.

   Cache mode is process-global, so every test that turns it on
   restores Off (the default) before returning. *)

open Core
module Store = Cache_store

let small_wan ?(seed = 3) () =
  Scenario.wan ~scheme:Scenario.Ebsn ~file_bytes:20_000 ~seed ()

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Fresh temp store + clean memo/counters; always restores the
   process default (Off, "_cache") on the way out. *)
let with_cache_dir f =
  let dir = Filename.temp_file "wtcp_cache_test" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      Cache.set_mode Cache.Off;
      Cache.memo_clear ();
      Cache.reset_stats ();
      Cache.set_dir "_cache";
      rm_rf dir)
    (fun () ->
      Cache.set_dir dir;
      Cache.memo_clear ();
      Cache.reset_stats ();
      f dir)

let entry_path ~dir ~key =
  Filename.concat (Filename.concat dir (String.sub key 0 2)) key

(* ------------------------------------------------------------------ *)
(* Fingerprint                                                         *)
(* ------------------------------------------------------------------ *)

let test_equal_configs_collide () =
  let a = small_wan () and b = small_wan () in
  Alcotest.(check string)
    "structurally equal scenarios share a key" (Fingerprint.key a)
    (Fingerprint.key b);
  Alcotest.(check string)
    "canonical renderings equal too" (Fingerprint.canonical a)
    (Fingerprint.canonical b)

let test_engine_version_salts_key () =
  let s = small_wan () in
  let canon = Fingerprint.canonical s in
  Alcotest.(check bool)
    "engine version appears in the canonical text" true
    (let v = Fingerprint.engine_version in
     let nv = String.length v and nc = String.length canon in
     let rec go i = i + nv <= nc && (String.sub canon i nv = v || go (i + 1)) in
     go 0)

let test_fault_plan_in_key () =
  let s = small_wan () in
  let base = Fingerprint.key s in
  Alcotest.(check string)
    "empty plan fingerprints like no plan (pinned byte-identical runs)"
    base
    (Fingerprint.key ~faults:Fault_plan.empty s);
  let ev =
    Fault_plan.
      { after = Simtime.span_sec 1.0; action = Ebsn_loss { count = 2 } }
  in
  let plan = Fault_plan.make ~seed:5 [ ev ] in
  Alcotest.(check bool)
    "a real plan changes the key" true
    (Fingerprint.key ~faults:plan s <> base);
  Alcotest.(check bool)
    "the plan seed is part of the identity" true
    (Fingerprint.key ~faults:(Fault_plan.make ~seed:6 [ ev ]) s
    <> Fingerprint.key ~faults:plan s)

(* One named perturbation per knob family; qcheck picks the knob and
   a nonzero delta, and every pick must move the key. *)
let mutations : (string * (int -> Scenario.t -> Scenario.t)) list =
  [
    ("seed", fun d s -> Scenario.with_seed s (s.Scenario.seed + d));
    ("file_bytes", fun d s -> { s with Scenario.file_bytes = s.Scenario.file_bytes + d });
    ( "scheme",
      fun d s ->
        let others =
          List.filter (fun x -> x <> s.Scenario.scheme) Scenario.all_schemes
        in
        { s with Scenario.scheme = List.nth others (d mod List.length others) }
    );
    ( "cc",
      fun d s ->
        let others =
          List.filter
            (fun x -> x <> s.Scenario.tcp.Tcp_config.cc)
            Tcp_config.all_ccs
        in
        Scenario.with_cc s (List.nth others (d mod List.length others)) );
    ( "tcp_window",
      fun d s ->
        {
          s with
          Scenario.tcp =
            {
              s.Scenario.tcp with
              Tcp_config.window = s.Scenario.tcp.Tcp_config.window + d;
            };
        } );
    ( "dupack_threshold",
      fun d s ->
        {
          s with
          Scenario.tcp =
            {
              s.Scenario.tcp with
              Tcp_config.dupack_threshold =
                s.Scenario.tcp.Tcp_config.dupack_threshold + d;
            };
        } );
    ( "vegas_alpha",
      fun d s ->
        {
          s with
          Scenario.tcp =
            {
              s.Scenario.tcp with
              Tcp_config.vegas_alpha =
                s.Scenario.tcp.Tcp_config.vegas_alpha + d;
            };
        } );
    ( "mean_bad",
      fun d s ->
        {
          s with
          Scenario.wireless =
            {
              s.Scenario.wireless with
              Scenario.mean_bad =
                Simtime.span_add s.Scenario.wireless.Scenario.mean_bad
                  (Simtime.span_sec (float_of_int d));
            };
        } );
    ( "ber_bad",
      fun d s ->
        {
          s with
          Scenario.wireless =
            {
              s.Scenario.wireless with
              Scenario.ber =
                {
                  s.Scenario.wireless.Scenario.ber with
                  Loss.bad =
                    s.Scenario.wireless.Scenario.ber.Loss.bad
                    *. (1.0 +. float_of_int d);
                };
            };
        } );
    ( "wired_queue",
      fun d s ->
        {
          s with
          Scenario.wired =
            {
              s.Scenario.wired with
              Scenario.queue_capacity =
                s.Scenario.wired.Scenario.queue_capacity + d;
            };
        } );
    ( "arq_rt_max",
      fun d s ->
        {
          s with
          Scenario.arq =
            { s.Scenario.arq with Arq.rt_max = s.Scenario.arq.Arq.rt_max + d };
        } );
    ("uplink_arq", fun _ s -> { s with Scenario.uplink_arq = not s.Scenario.uplink_arq });
    ( "frame_queue",
      fun d s ->
        {
          s with
          Scenario.frame_queue_capacity = s.Scenario.frame_queue_capacity + d;
        } );
    ( "horizon",
      fun d s ->
        {
          s with
          Scenario.horizon =
            Simtime.span_sec
              (float_of_int (Simtime.span_to_ns s.Scenario.horizon) /. 1e9
              +. float_of_int d);
        } );
  ]

let prop_fingerprint_sensitivity =
  QCheck2.Test.make
    ~name:"fingerprint: perturbing any knob changes the key"
    ~count:300
    QCheck2.Gen.(pair (int_range 0 (List.length mutations - 1)) (int_range 1 999))
    (fun (which, delta) ->
      let base = small_wan () in
      let name, mutate = List.nth mutations which in
      let mutated = mutate delta base in
      if Fingerprint.key mutated = Fingerprint.key base then
        QCheck2.Test.fail_reportf "mutation %S (delta %d) left the key fixed"
          name delta
      else true)

let prop_fingerprint_seed_only =
  QCheck2.Test.make
    ~name:"fingerprint: same scenario, same seed => same key"
    ~count:100
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      Fingerprint.key (small_wan ~seed ())
      = Fingerprint.key (small_wan ~seed ()))

(* ------------------------------------------------------------------ *)
(* Measurement codec                                                   *)
(* ------------------------------------------------------------------ *)

let roundtrip m =
  match Run.measurement_of_string (Run.measurement_to_string m) with
  | Some m' -> Run.measurement_to_string m' = Run.measurement_to_string m
  | None -> false

let test_codec_specials () =
  let base =
    Run.
      {
        throughput_bps = 7812.5;
        goodput = 0.875;
        retransmitted_kbytes = 3.25;
        source_timeouts = 3;
        fast_retransmits = 1;
        ebsn_received = 12;
        duration_sec = 102.4;
        completed = true;
      }
  in
  List.iter
    (fun (label, m) ->
      Alcotest.(check bool) (label ^ " roundtrips exactly") true (roundtrip m))
    [
      ("plain", base);
      ( "incomplete (infinite duration)",
        { base with Run.duration_sec = Float.infinity; Run.completed = false }
      );
      ("negative zero", { base with Run.goodput = -0.0 });
      ("denormal", { base with Run.retransmitted_kbytes = 1e-310 });
      ("huge", { base with Run.throughput_bps = 1.797e308 });
    ];
  Alcotest.(check bool)
    "garbage decodes to None" true
    (Run.measurement_of_string "m1 not a payload" = None);
  Alcotest.(check bool)
    "wrong tag decodes to None" true
    (Run.measurement_of_string "m2 0 0 0 0 0 0 0 1" = None)

let prop_codec_roundtrip =
  QCheck2.Test.make ~name:"measurement codec: exact roundtrip" ~count:300
    QCheck2.Gen.(
      tup4 float float (int_range 0 1_000_000) (pair float bool))
    (fun (tput, gp, n, (dur, completed)) ->
      roundtrip
        Run.
          {
            throughput_bps = tput;
            goodput = gp;
            retransmitted_kbytes = gp *. 3.0;
            source_timeouts = n;
            fast_retransmits = n / 2;
            ebsn_received = n mod 97;
            duration_sec = dur;
            completed;
          })

(* ------------------------------------------------------------------ *)
(* On-disk store                                                       *)
(* ------------------------------------------------------------------ *)

let test_store_roundtrip () =
  with_cache_dir @@ fun dir ->
  let key = String.make 32 'a' in
  Alcotest.(check bool)
    "missing entry is None" true
    (Store.get ~dir ~key = None);
  Store.put ~dir ~key "payload line\n";
  Alcotest.(check (option string))
    "roundtrip" (Some "payload line\n") (Store.get ~dir ~key);
  let s = Store.stats ~dir in
  Alcotest.(check int) "one valid entry" 1 s.Store.entries;
  Alcotest.(check int) "no stale" 0 s.Store.stale;
  Alcotest.(check int) "no corrupt" 0 s.Store.corrupt

let test_store_rejects_damage () =
  with_cache_dir @@ fun dir ->
  let key = String.make 32 'b' in
  Store.put ~dir ~key "some payload\n";
  let path = entry_path ~dir ~key in
  (* Truncated: the terminator line is gone. *)
  let full = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub full 0 (String.length full - 2)));
  Alcotest.(check bool)
    "truncated entry reads as a miss" true
    (Store.get ~dir ~key = None);
  (* Wrong engine version: well-formed but stale. *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        ("wtcp-cache some-older-engine\nkey " ^ key ^ "\npayload\nend\n"));
  Alcotest.(check bool)
    "stale-version entry reads as a miss" true
    (Store.get ~dir ~key = None);
  let s = Store.stats ~dir in
  Alcotest.(check int) "classified as stale" 1 s.Store.stale;
  (* Renamed: a valid entry's bytes copied under a different key. *)
  let key2 = String.make 32 'c' in
  Store.put ~dir ~key "fresh\n";
  let valid = In_channel.with_open_bin path In_channel.input_all in
  let other = entry_path ~dir ~key:key2 in
  let dir2 = Filename.dirname other in
  if not (Sys.file_exists dir2) then Sys.mkdir dir2 0o755;
  Out_channel.with_open_bin other (fun oc ->
      Out_channel.output_string oc valid);
  Alcotest.(check bool)
    "entry stored under the wrong key reads as a miss" true
    (Store.get ~dir ~key:key2 = None)

let test_store_clear_prune () =
  with_cache_dir @@ fun dir ->
  let valid_key = String.make 32 'd' in
  let stale_key = String.make 32 'e' in
  let corrupt_key = String.make 32 'f' in
  Store.put ~dir ~key:valid_key "keep me\n";
  Store.put ~dir ~key:stale_key "stale\n";
  let stale_path = entry_path ~dir ~key:stale_key in
  Out_channel.with_open_bin stale_path (fun oc ->
      Out_channel.output_string oc
        ("wtcp-cache ancient\nkey " ^ stale_key ^ "\nstale\nend\n"));
  Store.put ~dir ~key:corrupt_key "garbled\n";
  Out_channel.with_open_bin (entry_path ~dir ~key:corrupt_key) (fun oc ->
      Out_channel.output_string oc "not a cache entry at all");
  let s = Store.stats ~dir in
  Alcotest.(check (list int))
    "stats classify valid/stale/corrupt"
    [ 1; 1; 1 ]
    [ s.Store.entries; s.Store.stale; s.Store.corrupt ];
  let swept = Store.prune ~dir in
  Alcotest.(check int) "prune removes exactly the bad ones" 2 swept.Store.removed;
  Alcotest.(check int) "prune skipped nothing" 0 swept.Store.skipped;
  Alcotest.(check (option string))
    "valid entry survives prune" (Some "keep me\n")
    (Store.get ~dir ~key:valid_key);
  Alcotest.(check int) "clear removes the rest" 1 (Store.clear ~dir).Store.removed;
  Alcotest.(check bool)
    "store empty after clear" true
    ((Store.stats ~dir).Store.entries = 0)

(* Satellite regression: a damaged tree — a truncated entry next to an
   undeletable one (a directory squatting on an entry path: reads fail
   with EISDIR, and so does Sys.remove) — must degrade the walk, not
   abort it.  [chmod 000] is no use here (tests may run as root), the
   squatting directory fails for every uid. *)
let test_store_damaged_tree_degrades () =
  with_cache_dir @@ fun dir ->
  let valid_key = String.make 32 '1' in
  let truncated_key = String.make 32 '2' in
  let squatted_key = String.make 32 '3' in
  Store.put ~dir ~key:valid_key "keep me\n";
  Store.put ~dir ~key:truncated_key "about to be torn\n";
  let tpath = Store.entry_path ~dir ~key:truncated_key in
  let full = In_channel.with_open_bin tpath In_channel.input_all in
  Out_channel.with_open_bin tpath (fun oc ->
      Out_channel.output_string oc (String.sub full 0 (String.length full - 3)));
  let spath = Store.entry_path ~dir ~key:squatted_key in
  let sdir = Filename.dirname spath in
  if not (Sys.file_exists sdir) then Sys.mkdir sdir 0o755;
  Sys.mkdir spath 0o755;
  (* stats: both damaged files classify as corrupt, neither aborts. *)
  let s = Store.stats ~dir in
  Alcotest.(check int) "valid entry still counted" 1 s.Store.entries;
  Alcotest.(check int) "truncated + squatted classify corrupt" 2 s.Store.corrupt;
  (* prune: removes the truncated file, reports the undeletable one,
     keeps the valid entry — and returns instead of raising. *)
  let swept = Store.prune ~dir in
  Alcotest.(check int) "prune removed the truncated entry" 1 swept.Store.removed;
  Alcotest.(check int) "prune reported the undeletable one" 1 swept.Store.skipped;
  Alcotest.(check (option string))
    "valid entry survives the damaged-tree prune" (Some "keep me\n")
    (Store.get ~dir ~key:valid_key);
  (* clear: same degradation contract over the remaining files. *)
  let swept = Store.clear ~dir in
  Alcotest.(check int) "clear removed the valid entry" 1 swept.Store.removed;
  Alcotest.(check int) "clear still reports the squatter" 1 swept.Store.skipped;
  Sys.rmdir spath

(* ------------------------------------------------------------------ *)
(* Cached sweep path                                                   *)
(* ------------------------------------------------------------------ *)

let ms_render ms = String.concat "|" (List.map Run.measurement_to_string ms)

let test_cache_off_is_inert () =
  with_cache_dir @@ fun dir ->
  Alcotest.(check bool) "off by default" false (Cache.active ());
  Alcotest.(check bool) "find is None" true (Cache.find ~key:"deadbeef" = None);
  Cache.store ~key:"deadbeef" "x";
  Alcotest.(check bool)
    "store is a no-op" true
    ((Store.stats ~dir).Store.entries = 0);
  let s = Cache.stats () in
  Alcotest.(check int) "nothing counted" 0
    (s.Cache.memo_hits + s.Cache.disk_hits + s.Cache.misses + s.Cache.stores)

let test_cached_sweep_matches_uncached () =
  with_cache_dir @@ fun _dir ->
  let scenario = small_wan () in
  let reference = ms_render (Sweep.measurements ~replications:2 scenario) in
  Cache.set_mode Cache.On;
  let cold = ms_render (Sweep.measurements ~replications:2 scenario) in
  let s1 = Cache.stats () in
  Alcotest.(check string) "cold run equals uncached" reference cold;
  Alcotest.(check int) "cold run missed every cell" 2 s1.Cache.misses;
  Alcotest.(check int) "and stored every cell" 2 s1.Cache.stores;
  (* Same invocation: the memo serves. *)
  let memo_warm = ms_render (Sweep.measurements ~replications:2 scenario) in
  let s2 = Cache.stats () in
  Alcotest.(check string) "memo-warm equals uncached" reference memo_warm;
  Alcotest.(check int) "memo hits" 2 (s2.Cache.memo_hits - s1.Cache.memo_hits);
  (* Fresh "invocation" (memo dropped): the disk serves. *)
  Cache.memo_clear ();
  let disk_warm = ms_render (Sweep.measurements ~replications:2 scenario) in
  let s3 = Cache.stats () in
  Alcotest.(check string) "disk-warm equals uncached" reference disk_warm;
  Alcotest.(check int) "disk hits" 2 (s3.Cache.disk_hits - s2.Cache.disk_hits);
  Alcotest.(check int) "no extra misses" s1.Cache.misses s3.Cache.misses

let test_duplicate_cells_dedup () =
  with_cache_dir @@ fun _dir ->
  let scenario = small_wan () in
  Cache.set_mode Cache.On;
  let reference = Sweep.measurements ~replications:2 scenario in
  Cache.memo_clear ();
  Cache.reset_stats ();
  (match
     Sweep.measurements_all ~replications:2 [ scenario; scenario; scenario ]
   with
  | [ a; b; c ] ->
    Alcotest.(check string)
      "every copy gets the reference measurements" (ms_render reference)
      (ms_render a);
    Alcotest.(check string) "copies agree" (ms_render a) (ms_render b);
    Alcotest.(check string) "all three" (ms_render b) (ms_render c)
  | _ -> Alcotest.fail "expected three scenario results");
  let s = Cache.stats () in
  Alcotest.(check int)
    "duplicate cells deduped within the batch (2 copies x 2 reps)" 4
    s.Cache.deduped;
  Alcotest.(check int) "only unique cells measured" 2
    (s.Cache.misses + s.Cache.memo_hits + s.Cache.disk_hits)

let test_corrupted_entry_is_miss_and_heals () =
  with_cache_dir @@ fun dir ->
  let scenario = small_wan () in
  let key = Fingerprint.key scenario in
  Cache.set_mode Cache.On;
  let fresh = Run.measure_cached scenario in
  (* Corrupt the stored entry on disk and drop the memo: the next
     lookup must fall back to simulation and return the right answer
     (and re-store a good entry). *)
  let path = entry_path ~dir ~key in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "wtcp-cache ");
  Cache.memo_clear ();
  Cache.reset_stats ();
  let healed = Run.measure_cached scenario in
  Alcotest.(check string)
    "corrupted entry re-simulates to the same bytes"
    (Run.measurement_to_string fresh)
    (Run.measurement_to_string healed);
  let s = Cache.stats () in
  Alcotest.(check (list int))
    "counted as miss + store, not a hit" [ 1; 1; 0 ]
    [ s.Cache.misses; s.Cache.stores; s.Cache.disk_hits ];
  Alcotest.(check bool)
    "the healed entry is valid again" true
    (Store.get ~dir ~key <> None)

let test_verify_detects_poison () =
  with_cache_dir @@ fun _dir ->
  let scenario = small_wan () in
  let key = Fingerprint.key scenario in
  Cache.set_mode Cache.On;
  let real = Run.measure_cached scenario in
  (* Poison the cache with a decodable-but-wrong payload. *)
  Cache.store ~key
    (Run.measurement_to_string
       { real with Run.throughput_bps = real.Run.throughput_bps +. 1.0 });
  Cache.set_mode Cache.Verify;
  Cache.reset_stats ();
  (match Run.measure_cached scenario with
  | _ -> Alcotest.fail "verify mode accepted a poisoned entry"
  | exception Cache.Verify_mismatch { key = k; _ } ->
    Alcotest.(check string) "mismatch names the key" key k);
  Alcotest.(check int) "counted as a verify failure" 1
    (Cache.stats ()).Cache.verify_fail;
  (* And on an honest entry, verify passes and serves the hit. *)
  Cache.store ~key (Run.measurement_to_string real);
  Cache.reset_stats ();
  let verified = Run.measure_cached scenario in
  Alcotest.(check string) "honest hit verifies"
    (Run.measurement_to_string real)
    (Run.measurement_to_string verified);
  Alcotest.(check int) "counted ok" 1 (Cache.stats ()).Cache.verify_ok

(* The scheme x cc cross table re-measures every (basic|ebsn) x cc
   cell the cc ablation just measured: with a clean store those cells
   come back from the in-process memo, not from a second simulation. *)
let test_cc_table_reuses_cc_ablation () =
  with_cache_dir @@ fun _dir ->
  Cache.set_mode Cache.On;
  ignore (Ablations.cc ~replications:1 ~jobs:2 ());
  let after_cc = Cache.stats () in
  ignore (Ablations.cc_table ~replications:1 ~jobs:2 ());
  let after_table = Cache.stats () in
  let shared_hits =
    after_table.Cache.memo_hits - after_cc.Cache.memo_hits
  in
  Alcotest.(check bool) "cc ablation stored its cells" true
    (after_cc.Cache.stores > 0);
  Alcotest.(check int) "every stored cell served from the memo"
    after_cc.Cache.stores shared_hits

let test_cache_metrics_registry () =
  with_cache_dir @@ fun _dir ->
  Cache.set_mode Cache.On;
  ignore (Sweep.measurements ~replications:2 (small_wan ()));
  let registry = Obs.Registry.create () in
  Cache.record_metrics registry;
  let rendered = Obs.Registry.to_jsonl registry in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " exported") true
        (let nn = String.length name and nr = String.length rendered in
         let rec go i =
           i + nn <= nr && (String.sub rendered i nn = name || go (i + 1))
         in
         go 0))
    [
      "engine.cache.memo_hits"; "engine.cache.disk_hits";
      "engine.cache.misses"; "engine.cache.stores"; "engine.cache.deduped";
      "engine.cache.verify_ok"; "engine.cache.verify_fail";
    ]

(* ------------------------------------------------------------------ *)
(* Figure CSVs: cold, warm (disk at jobs=1 and jobs=4, memo), verify   *)
(* ------------------------------------------------------------------ *)

let fig7_csv ~jobs = Wan_sweep.to_csv (Fig7.compute ~replications:1 ~jobs ())

let fig10_csv ~jobs =
  let basic, ebsn = Fig10.compute ~replications:1 ~jobs () in
  Lan_sweep.to_csv [ basic; ebsn ]

let fig11_csv ~jobs =
  let basic, ebsn = Fig11.compute ~replications:1 ~jobs () in
  Lan_sweep.to_csv [ basic; ebsn ]

let figs_identity name csv =
  with_cache_dir @@ fun _dir ->
  let reference = csv ~jobs:1 in
  Cache.set_mode Cache.On;
  Cache.reset_stats ();
  let cold = csv ~jobs:1 in
  let after_cold = Cache.stats () in
  Alcotest.(check string) (name ^ ": cold jobs=1 equals uncached") reference
    cold;
  Alcotest.(check bool) (name ^ ": cold run populated the store") true
    (after_cold.Cache.stores > 0);
  Alcotest.(check int) (name ^ ": cold run stored every miss")
    after_cold.Cache.misses after_cold.Cache.stores;
  Cache.memo_clear ();
  let warm1 = csv ~jobs:1 in
  Cache.memo_clear ();
  let warm4 = csv ~jobs:4 in
  let final = Cache.stats () in
  Alcotest.(check string) (name ^ ": warm jobs=1 byte-identical") reference
    warm1;
  Alcotest.(check string) (name ^ ": warm jobs=4 byte-identical") reference
    warm4;
  Alcotest.(check int)
    (name ^ ": warm runs missed nothing")
    after_cold.Cache.misses final.Cache.misses;
  Alcotest.(check bool) (name ^ ": warm runs hit the disk tier") true
    (final.Cache.disk_hits > 0);
  (* Same invocation again: every cell from the memo, none from disk. *)
  Cache.reset_stats ();
  let memo = csv ~jobs:4 in
  let s = Cache.stats () in
  Alcotest.(check string) (name ^ ": memo-warm byte-identical") reference memo;
  Alcotest.(check (list int))
    (name ^ ": memo-warm served by the memo alone")
    [ 0; 0 ] [ s.Cache.disk_hits; s.Cache.misses ];
  Alcotest.(check bool) (name ^ ": memo hits") true (s.Cache.memo_hits > 0);
  (* Verify mode re-simulates every hit and compares it byte for byte. *)
  Cache.set_mode Cache.Verify;
  Cache.memo_clear ();
  Cache.reset_stats ();
  let verified = csv ~jobs:4 in
  let s = Cache.stats () in
  Alcotest.(check string) (name ^ ": verify replay byte-identical") reference
    verified;
  Alcotest.(check int) (name ^ ": no verify divergence") 0 s.Cache.verify_fail;
  Alcotest.(check bool) (name ^ ": every hit verified") true
    (s.Cache.verify_ok > 0)

let test_fig7_warm_cold () = figs_identity "fig7" fig7_csv
let test_fig10_warm_cold () = figs_identity "fig10" fig10_csv
let test_fig11_warm_cold () = figs_identity "fig11" fig11_csv

(* ------------------------------------------------------------------ *)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "cache"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "equal configs collide" `Quick
            test_equal_configs_collide;
          Alcotest.test_case "engine version salts the key" `Quick
            test_engine_version_salts_key;
          Alcotest.test_case "fault plan is part of the identity" `Quick
            test_fault_plan_in_key;
          q prop_fingerprint_sensitivity;
          q prop_fingerprint_seed_only;
        ] );
      ( "codec",
        [
          Alcotest.test_case "special values roundtrip" `Quick
            test_codec_specials;
          q prop_codec_roundtrip;
        ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip + stats" `Quick test_store_roundtrip;
          Alcotest.test_case "damaged entries are misses" `Quick
            test_store_rejects_damage;
          Alcotest.test_case "clear and prune" `Quick test_store_clear_prune;
          Alcotest.test_case "damaged tree degrades, never aborts" `Quick
            test_store_damaged_tree_degrades;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "off mode is inert" `Quick test_cache_off_is_inert;
          Alcotest.test_case "cached sweep matches uncached" `Quick
            test_cached_sweep_matches_uncached;
          Alcotest.test_case "duplicate cells dedup" `Quick
            test_duplicate_cells_dedup;
          Alcotest.test_case "corrupted entry is a miss and heals" `Quick
            test_corrupted_entry_is_miss_and_heals;
          Alcotest.test_case "verify detects a poisoned entry" `Quick
            test_verify_detects_poison;
          Alcotest.test_case "engine.cache.* metrics export" `Quick
            test_cache_metrics_registry;
          Alcotest.test_case "cc table reuses cc ablation cells" `Slow
            test_cc_table_reuses_cc_ablation;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig7 warm vs cold, jobs=1 and jobs=4" `Slow
            test_fig7_warm_cold;
          Alcotest.test_case "fig10 warm vs cold, jobs=1 and jobs=4" `Slow
            test_fig10_warm_cold;
          Alcotest.test_case "fig11 warm vs cold, jobs=1 and jobs=4" `Slow
            test_fig11_warm_cold;
        ] );
    ]
