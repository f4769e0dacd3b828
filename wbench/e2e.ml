(* End-to-end runs: what a user of each workload waits for, with
   tracing off.  Every phase is a closed loop (the next cell starts
   only when the current one settles) and is repeated until the run's
   time is spent, so each metric is the median of many passes. *)

open Core

(* Scratch space inside the checkout: stores live here while a run
   needs them, records and spans stay for reading afterwards. *)
let out_dir = "_wbench"

(* Share of the run's seconds given to the cold passes; the rest
   goes to the resume passes. *)
let cold_share = 0.85
let min_passes = 3

(* Setups timed per pass.  A setup is short (0.01-5 ms) and the
   host's interference only ever adds to it, so each pass keeps the
   fastest of its setups; setup_s is the median of those over the
   passes. *)
let setups_per_pass = 10
let fastest ts = List.fold_left Float.min Float.infinity ts

(* Run [f] for [budget] seconds (and at least [min] times). *)
let repeat ~budget ~min f =
  let t0 = Stat.now_ns () in
  let rec go k = if k < min || Stat.secs_since t0 < budget then (f k; go (k + 1)) in
  go 0

type check = { mutable ok : bool; name : string }

let check name = { ok = true; name }
let fail c = c.ok <- false

(* ------------------------------------------------------------------ *)
(* Sweeps: wan-sweep and lan-cc                                        *)
(* ------------------------------------------------------------------ *)

(* One closed-loop pass over the cells, timing each.  A cell that
   raises counts as failed and leaves a marker payload, so the digest
   check fails too. *)
let sweep_pass cells =
  let failed = ref 0 in
  let times = Array.make (Array.length cells) 0.0 in
  let ms =
    Array.mapi
      (fun i s ->
        let t0 = Stat.now_ns () in
        let m =
          match Run.measure s with
          | m -> Some m
          | exception _ ->
            incr failed;
            None
        in
        times.(i) <- Stat.secs_since t0;
        m)
      cells
  in
  (ms, !failed, times)

let payloads ms =
  Array.map
    (function Some m -> Run.measurement_to_string m | None -> "raised")
    ms

(* Paper-accuracy sidecar: the simulated headline figures beside
   PAPER.md's.  Informational, never gated: the grid is replicated
   twice, not the paper's ten times. *)
let sidecar w cells (ms : Run.measurement option array) =
  (* Bad periods keyed in whole ms: a span's seconds need not equal
     the float it was built from. *)
  let to_ms sec = Float.to_int (Float.round (sec *. 1e3)) in
  let bad_ms s = to_ms (Simtime.span_to_sec s.Scenario.wireless.Scenario.mean_bad) in
  let groups = Hashtbl.create 512 in
  Array.iteri
    (fun i s ->
      match ms.(i) with
      | None -> ()
      | Some m ->
        let key =
          ( s.Scenario.scheme,
            Tcp_config.packet_size s.Scenario.tcp,
            s.Scenario.tcp.Tcp_config.cc,
            bad_ms s )
        in
        Hashtbl.replace groups key
          (m :: Option.value ~default:[] (Hashtbl.find_opt groups key)))
    cells;
  let mean f key =
    match Hashtbl.find_opt groups key with
    | Some l -> Summary.mean (List.map f l)
    | None -> Float.nan
  in
  let tput = mean (fun m -> m.Run.throughput_bps) in
  let keys_of scheme =
    Hashtbl.fold
      (fun ((s, _, cc, _) as k) _ acc ->
        if s = scheme && cc = Tcp_config.Tahoe then k :: acc else acc)
      groups []
  in
  let best_gain () =
    List.fold_left
      (fun acc ((_, size, cc, bad) as k) ->
        let base = tput (Scenario.Basic, size, cc, bad) in
        Float.max acc ((tput k /. base) -. 1.0))
      Float.neg_infinity (keys_of Scenario.Ebsn)
  in
  let ebsn_goodput () =
    Summary.mean
      (List.map (mean (fun m -> m.Run.goodput)) (keys_of Scenario.Ebsn))
  in
  let pct x = Printf.sprintf "%+.0f%%" (100.0 *. x) in
  match w with
  | Workload.Wan_sweep ->
    let size_gain =
      Summary.mean
        (List.map
           (fun bad ->
             let by_size =
               List.map
                 (fun size -> tput (Scenario.Basic, size, Tcp_config.Tahoe, to_ms bad))
                 Wan_sweep.packet_sizes
             in
             (List.fold_left Float.max 0.0 by_size
             /. List.fold_left Float.min Float.infinity by_size)
             -. 1.0)
           Wan_sweep.bad_periods_sec)
    in
    [
      "paper: EBSN over basic, WAN, best grid point: simulated "
      ^ pct (best_gain ()) ^ ", paper up to +100%";
      Printf.sprintf "paper: EBSN goodput, WAN: simulated %.3f, paper ~1"
        (ebsn_goodput ());
      "paper: best over worst packet size, basic WAN, mean over bad periods: \
       simulated " ^ pct size_gain ^ ", paper ~+30%";
    ]
  | Workload.Lan_cc ->
    [
      "paper: EBSN over basic, LAN (tahoe), best bad period: simulated "
      ^ pct (best_gain ()) ^ ", paper up to +50%";
      Printf.sprintf "paper: EBSN goodput, LAN (tahoe): simulated %.3f, paper ~1"
        (ebsn_goodput ());
    ]
  | Workload.Campaign -> []

(* Re-run the cells against a warm replication store, as a user
   re-running the same sweep does: every cell is a fingerprint, a disk
   read and a decode (the memo tier is cleared before each pass).
   Passes are short, so the host is probed once per block of them. *)
let resume_block = 20

let sweep_resume ~dir ~budget cells payloads_ref =
  Stat.rm_rf dir;
  Cache.set_dir dir;
  Cache.set_mode Cache.On;
  Array.iteri
    (fun i s -> Cache.store ~key:(Fingerprint.key s) payloads_ref.(i))
    cells;
  let n = Array.length cells in
  let samples = ref [] and attempted = ref 0 and failed = ref 0 in
  let ok = check "resumed == cold" in
  repeat ~budget ~min:1 (fun _ ->
      let f0 = Stat.host_factor () in
      let rates =
        List.init resume_block (fun _ ->
            Cache.memo_clear ();
            let hits0 = (Cache.stats ()).Cache.disk_hits in
            let out, dt =
              Stat.timed (fun () ->
                  Array.map
                    (fun s -> Run.measurement_to_string (Run.measure_cached s))
                    cells)
            in
            let restored = (Cache.stats ()).Cache.disk_hits - hits0 in
            attempted := !attempted + n;
            if restored <> n || out <> payloads_ref then begin
              fail ok;
              failed := !failed + n
            end;
            float_of_int restored /. dt)
      in
      let f = (f0 +. Stat.host_factor ()) /. 2.0 in
      samples := List.rev_append (List.map (( *. ) f) rates) !samples);
  Cache.set_mode Cache.Off;
  Cache.memo_clear ();
  Stat.rm_rf dir;
  (!samples, !attempted, !failed, ok)

let run_sweep w ~seed ~seconds =
  let rates = ref [] and setups = ref [] and factors = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let first = ref None in
  let same = check "passes agree" in
  let pinned = check "pinned digest" in
  repeat ~budget:(cold_share *. seconds) ~min:min_passes (fun _ ->
      let f0 = Stat.host_factor () in
      let timed_setups =
        List.init setups_per_pass (fun _ ->
            Stat.timed (fun () -> Workload.sweep_cells w ~seed))
      in
      let cells = fst (List.hd timed_setups) in
      let (ms, raised, _), dt = Stat.timed (fun () -> sweep_pass cells) in
      let f = (f0 +. Stat.host_factor ()) /. 2.0 in
      factors := f :: !factors;
      setups := fastest (List.map snd timed_setups) /. f :: !setups;
      let ps = payloads ms in
      let digest = Workload.digest_payloads ps in
      let n = Array.length cells in
      attempted := !attempted + n;
      let expected, c =
        match !first with
        | None ->
          first := Some (cells, ms, ps, digest);
          ((if seed = Workload.default_seed then Workload.pinned w else digest), pinned)
        | Some (_, _, _, d0) -> (d0, same)
      in
      if digest <> expected then fail c;
      failed := !failed + if digest <> expected then n else raised;
      rates := float_of_int n /. dt *. f :: !rates);
  let cells, ms, ps, digest = Option.get !first in
  let resume_rates, r_att, r_fail, resumed_ok =
    sweep_resume
      ~dir:(Filename.concat out_dir ("store-" ^ Workload.name w))
      ~budget:((1.0 -. cold_share) *. seconds)
      cells ps
  in
  {
    Stat.metrics =
      [
        Stat.metric "cells_per_s" "cells/s" !rates;
        Stat.metric "resume_cells_per_s" "cells/s" resume_rates;
        Stat.single "peak_rss_mb" "MiB" (Stat.peak_rss_mb ());
        Stat.metric "setup_s" "s" !setups;
      ];
    attempted = !attempted + r_att;
    failed = !failed + r_fail;
    checks = List.map (fun c -> (c.name, c.ok)) [ same; pinned; resumed_ok ];
    notes =
      ("digest: " ^ digest)
      :: Printf.sprintf "host factor (reference kernel time / %.4f s): %.3f"
           Stat.reference_s (Stat.median !factors)
      :: sidecar w cells ms;
    passes = List.length !rates;
  }

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)
(* ------------------------------------------------------------------ *)

let campaign_jobs () = Domain.recommended_domain_count ()

(* Resume passes per cold pass: a resume reads every entry back
   without simulating, so it is sampled several times. *)
let resumes_per_pass = 5

(* Setup for one campaign invocation: build the cell list (specs and
   store keys, as Campaigns.run does before its first cell), get the
   pool and prepare an empty store directory.  The pool is spawned
   once per process, as in the CLI, so only a run's first setup pays
   for the domains. *)
let campaign_setup ~seed ~jobs dir =
  snd
    (Stat.timed (fun () ->
         ignore (Workload.campaign_cells ~seed);
         ignore (Parallel.Pool.get ~jobs ());
         Stat.rm_rf dir;
         Stat.mkdir_p dir))

let run_campaign ~seed ~seconds =
  let jobs = campaign_jobs () in
  let kind = Workload.campaign_kind ~seed in
  let setups = ref [] and rates = ref [] and resume_rates = ref [] in
  let factors = ref [] and attempted = ref 0 and failed = ref 0 in
  let first = ref None in
  let same = check "passes agree" in
  let pinned = check "pinned digest" in
  let resumed_ok = check "resumed == cold" in
  repeat ~budget:seconds ~min:min_passes (fun k ->
      let dir = Filename.concat out_dir (Printf.sprintf "store-campaign-%d" k) in
      let f0 = Stat.host_factor () in
      let pass_setups = List.init setups_per_pass (fun _ -> campaign_setup ~seed ~jobs dir) in
      let cold, dt =
        Stat.timed (fun () ->
            Campaigns.run ~jobs ~store_dir:dir
              ~options:(Workload.campaign_options ~resume:false)
              kind)
      in
      let resumes =
        List.init resumes_per_pass (fun _ ->
            Stat.timed (fun () ->
                Campaigns.run ~jobs ~store_dir:dir
                  ~options:(Workload.campaign_options ~resume:true)
                  kind))
      in
      let f = (f0 +. Stat.host_factor ()) /. 2.0 in
      factors := f :: !factors;
      setups := fastest pass_setups /. f :: !setups;
      let digest = Workload.digest_report cold in
      attempted := !attempted + cold.Campaigns.total;
      let expected, c =
        match !first with
        | None ->
          first := Some digest;
          ((if seed = Workload.default_seed then Workload.pinned Campaign else digest), pinned)
        | Some d0 -> (d0, same)
      in
      if digest <> expected then fail c;
      failed :=
        !failed + if digest <> expected then cold.total else Workload.campaign_failures cold;
      rates := float_of_int cold.completed /. dt *. f :: !rates;
      List.iter
        (fun ((r : Campaigns.report), dt) ->
          attempted := !attempted + r.total;
          if r.rendered <> cold.rendered || r.json <> cold.json || r.resumed <> r.total
          then begin
            fail resumed_ok;
            failed := !failed + r.total
          end;
          resume_rates := float_of_int r.resumed /. dt *. f :: !resume_rates)
        resumes;
      Stat.rm_rf dir);
  {
    Stat.metrics =
      [
        Stat.metric "cells_per_s" "cells/s" !rates;
        Stat.metric "resume_cells_per_s" "cells/s" !resume_rates;
        Stat.single "peak_rss_mb" "MiB" (Stat.peak_rss_mb ());
        Stat.metric "setup_s" "s" !setups;
      ];
    attempted = !attempted;
    failed = !failed;
    checks = List.map (fun c -> (c.name, c.ok)) [ same; pinned; resumed_ok ];
    notes =
      [
        "digest: " ^ Option.value ~default:"" !first;
        Printf.sprintf "host factor (reference kernel time / %.4f s): %.3f"
          Stat.reference_s (Stat.median !factors);
      ];
    passes = List.length !rates;
  }

let run w ~seed ~seconds =
  match w with
  | Workload.Campaign -> run_campaign ~seed ~seconds
  | Workload.Wan_sweep | Workload.Lan_cc -> run_sweep w ~seed ~seconds
