(* The three workloads: which cells each one runs, built from the
   benchmark seed alone, and the digests that pin their outputs. *)

open Core

type t = Wan_sweep | Lan_cc | Campaign

let all = [ Wan_sweep; Lan_cc; Campaign ]

let name = function
  | Wan_sweep -> "wan-sweep"
  | Lan_cc -> "lan-cc"
  | Campaign -> "campaign"

let of_name s = List.find_opt (fun w -> name w = s) all

(* Outputs are pinned at this seed. *)
let default_seed = 1

(* Each cell gets its own scenario seed; seeds of different benchmark
   seeds never overlap while a workload has fewer than 100k cells. *)
let cell_seed ~seed i = (seed * 100_000) + i

(* Replications per grid point.  WAN cells are short (2.5-7.5 ms), so
   two per point give a 1-2 s pass over the 288-point grid; LAN cells
   (12-60 ms) need only one over the 105-point grid. *)
let wan_reps = 2
let lan_reps = 1

(* The paper's WAN grid over every recovery scheme. *)
let wan_cells ~seed =
  let points =
    List.concat_map
      (fun scheme ->
        List.concat_map
          (fun size ->
            List.concat_map
              (fun bad -> List.init wan_reps (fun _ -> (scheme, size, bad)))
              Wan_sweep.bad_periods_sec)
          Wan_sweep.packet_sizes)
      Scenario.all_schemes
  in
  Array.of_list
    (List.mapi
       (fun i (scheme, packet_size, mean_bad_sec) ->
         Scenario.wan ~scheme ~packet_size ~mean_bad_sec
           ~seed:(cell_seed ~seed i) ())
       points)

(* The schemes a LAN sender can meaningfully run every cc variant
   under: Figure 10's basic/ebsn pair plus plain local recovery. *)
let lan_schemes = Scenario.[ Basic; Local_recovery; Ebsn ]

let lan_cells ~seed =
  let points =
    List.concat_map
      (fun scheme ->
        List.concat_map
          (fun cc ->
            List.concat_map
              (fun bad -> List.init lan_reps (fun _ -> (scheme, cc, bad)))
              Lan_sweep.bad_periods_sec)
          Tcp_config.all_ccs)
      lan_schemes
  in
  Array.of_list
    (List.mapi
       (fun i (scheme, cc, mean_bad_sec) ->
         Scenario.with_cc
           (Scenario.lan ~scheme ~mean_bad_sec ~seed:(cell_seed ~seed i) ())
           cc)
       points)

let sweep_cells w ~seed =
  match w with
  | Wan_sweep -> wan_cells ~seed
  | Lan_cc -> lan_cells ~seed
  | Campaign -> invalid_arg "Workload.sweep_cells: campaign"

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)
(* ------------------------------------------------------------------ *)

let campaign_plans = 400

(* Per-cell simulated-event budget for the first attempt.  Chaos cells
   run p50 ~3.7k, p99 ~9.2k and max ~9.9k events, so about one cell in
   a hundred overruns it and is retried at the relaxed (8x) tier, which
   every cell fits: the retry path works and nothing is quarantined. *)
let campaign_deadline = 8_750

let campaign_kind ~seed =
  Campaigns.Chaos
    {
      plans = campaign_plans;
      base_seed = (seed * campaign_plans) + 1;
      cc = None;
      check = true;
    }

(* The campaign's cells and their store keys, as [Campaigns.run]
   builds them before its first cell runs.  The key mirrors
   Campaigns' own (it covers [check]); a traced pass that resumes
   through [Campaigns.run] re-simulates instead of resuming if the two
   ever differ, which fails its check. *)
let chaos_key sp =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "chaos check=%b %s" true
          (Fingerprint.key ~faults:sp.Chaos.plan sp.Chaos.scenario)))

let campaign_cells ~seed =
  match campaign_kind ~seed with
  | Campaigns.Chaos { plans; base_seed; cc; _ } ->
    let specs = Array.of_list (Chaos.specs ?cc ~plans ~base_seed ()) in
    (specs, Array.map chaos_key specs)
  | _ -> assert false

(* The backoff sleep is real time a retry waits; 1 ms keeps the
   retries visible without letting a seed's retry count dominate the
   pass time. *)
let campaign_options ~resume =
  {
    Campaigns.default_options with
    deadline = Some campaign_deadline;
    backoff_ms = 1.0;
    resume;
  }

(* ------------------------------------------------------------------ *)
(* Output digests                                                      *)
(* ------------------------------------------------------------------ *)

let digest_payloads payloads =
  Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list payloads)))

let digest_report (r : Campaigns.report) =
  Digest.to_hex
    (Digest.string (r.Campaigns.rendered ^ Option.value ~default:"" r.json))

(* MD5 of each workload's outputs at [default_seed]: the
   [Run.measurement_to_string] payloads in cell order for the sweeps,
   the rendered report plus its JSON for the campaign. *)
let pinned = function
  | Wan_sweep -> "8df3ee874d5297b8b1400b93754e0065"
  | Lan_cc -> "bff6f9d040b52e5288e0e1a6dcfa8f7e"
  | Campaign -> "d232a4a48c90e8017222beba2810d1b7"

(* A chaos report's headline:
   "plans=N  completed=N  degraded=N  faulted=N  uncaught=N  quarantined=N". *)
let headline_count (r : Campaigns.report) key =
  let first =
    match String.index_opt r.Campaigns.rendered '\n' with
    | Some i -> String.sub r.rendered 0 i
    | None -> r.rendered
  in
  List.find_map
    (fun tok ->
      match String.split_on_char '=' tok with
      | [ k; v ] when k = key -> int_of_string_opt v
      | _ -> None)
    (String.split_on_char ' ' first)

(* Cells of a settled campaign that count as failed: faulted,
   uncaught or quarantined.  An unreadable headline fails them all. *)
let campaign_failures (r : Campaigns.report) =
  match
    ( headline_count r "faulted",
      headline_count r "uncaught",
      headline_count r "quarantined" )
  with
  | Some f, Some u, Some q -> f + u + q
  | _ -> r.Campaigns.total
