(* The traced run: the per-layer metrics of one workload.

   Untraced and traced passes over the same cells alternate; the
   traced ones turn the Obs metrics registry on, drive the cells one
   by one with a span around each, and read the counters the program
   already exposes (the Wiring outcome, the registry, Pool, Cache and
   Supervisor stats).  Spans are kept in memory and written to
   _wbench/spans-<workload>.jsonl when the workload ends.  Calls into
   the cache, supervisor and render layers are timed from outside, and
   bechamel replays time the event queue, the soft timers and the
   frame-loss decision at the op mix this run measured.

   Every metric in [catalogue] is reported for every workload; one a
   workload's traced run does not observe reads 0. *)

open Core

(* Every per-layer metric: name, unit. *)
let catalogue =
  let schemes = List.map Scenario.scheme_name Scenario.all_schemes in
  let ccs = List.map Tcp_config.cc_name Tcp_config.all_ccs in
  let per prefix unit_ names = List.map (fun n -> (prefix ^ "." ^ n, unit_)) names in
  [ ("topology.wiring.cell_ms_p50", "ms"); ("topology.wiring.cell_ms_p90", "ms") ]
  @ per "topology.wiring.ns_per_event" "ns" (schemes @ ccs)
  @ per "topology.wiring.words_per_event" "words" (schemes @ ccs)
  @ [
      ("engine.simulator.events_per_cell", "events");
      ("engine.simulator.ns_per_event", "ns");
      ("engine.event_queue.ops_per_event", "ops");
      ("engine.event_queue.peak_live", "events");
      ("engine.event_queue.near_pop_share", "share");
      ("engine.event_queue.dead_drop_share", "share");
      ("engine.event_queue.ns_per_op", "ns");
      ("engine.soft_timer.arms_per_event", "arms");
      ("engine.soft_timer.fuse_share", "share");
      ("engine.soft_timer.lazy_cancel_share", "share");
      ("engine.soft_timer.stale_fire_share", "share");
      ("engine.soft_timer.ns_per_arm", "ns");
      ("engine.parallel.busy_share", "share");
      ("engine.parallel.steals", "count");
      ("engine.parallel.chunks", "count");
      ("engine.gc.minor_words_per_event", "words");
      ("engine.gc.promoted_words_per_event", "words");
      ("engine.gc.major_collections", "count");
      ("errors.loss.frames_per_cell", "frames");
      ("errors.loss.frame_loss_share", "share");
      ("errors.loss.ns_per_frame", "ns");
      ("linklayer.fragmenter.frames_per_packet", "frames");
      ("linklayer.arq.transmissions_per_frame", "tx");
      ("linklayer.arq.discard_share", "share");
      ("tcp.tcp_sender.packets_per_cell", "packets");
      ("tcp.tcp_sender.retransmit_share", "share");
      ("tcp.tcp_sender.timeouts_per_cell", "count");
      ("tcp.tcp_sink.acks_per_packet", "acks");
      ("tcp.cc.recovery_entries_per_cell", "count");
      ("feedback.ebsn.sent_per_cell", "count");
      ("feedback.source_quench.sent_per_cell", "count");
      ("agents.snoop.local_retransmits_per_cell", "count");
      ("faults.injector.injected_per_cell", "count");
      ("cache.fingerprint.us_per_key", "us");
      ("cache.store.put_us", "us");
      ("cache.store.get_us", "us");
      ("cache.store.bytes_per_entry", "bytes");
      ("supervise.supervisor.self_share", "share");
      ("supervise.supervisor.retries", "count");
      ("supervise.supervisor.deadline_hits", "count");
      ("supervise.supervisor.backoff_ms", "ms");
      ("supervise.supervisor.quarantined", "count");
      ("supervise.supervisor.checkpoint_flushes", "count");
      ("supervise.manifest.load_ms", "ms");
      ("supervise.campaigns.render_ms", "ms");
      ("experiments.sweep.self_share", "share");
      ("experiments.report.render_ms", "ms");
      ("obs.trace_overhead_share", "share");
    ]

(* Fill the catalogue from what the run measured, zero elsewhere. *)
let complete (measured : Stat.metric list) =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (m : Stat.metric) -> m.name = name) measured with
      | Some m -> m
      | None -> Stat.single name unit_ 0.0)
    catalogue

let unit_of name = Option.value ~default:"" (List.assoc_opt name catalogue)
let m name samples = Stat.metric name (unit_of name) samples
let one name v = Stat.single name (unit_of name) v

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 = root *)
  start_ns : int;
  end_ns : int;
  attrs : (string * Stat.json) list;
}

let spans = ref []
let spans_lock = Mutex.create ()
let next_id = Atomic.make 1

let record_span s = Mutex.protect spans_lock (fun () -> spans := s :: !spans)

(* Run [f id] inside a span named [name]. *)
let with_span ?(parent = 0) ?(attrs = []) name f =
  let id = Atomic.fetch_and_add next_id 1 in
  let start_ns = Stat.now_ns () in
  let v = f id in
  record_span { id; name; parent; start_ns; end_ns = Stat.now_ns (); attrs };
  v

let write_spans w =
  let lines =
    List.rev_map
      (fun s ->
        Stat.to_string
          (Stat.Obj
             ([
                ("id", Stat.Int s.id);
                ("name", Str s.name);
                ("parent", Int s.parent);
                ("start_ns", Int s.start_ns);
                ("end_ns", Int s.end_ns);
              ]
             @ s.attrs)))
      !spans
  in
  Stat.write_file
    (Filename.concat E2e.out_dir ("spans-" ^ Workload.name w ^ ".jsonl"))
    (String.concat "\n" lines ^ "\n")

(* ------------------------------------------------------------------ *)
(* Bechamel replays                                                    *)
(* ------------------------------------------------------------------ *)

(* Ops per replay batch: one bechamel run executes a whole batch. *)
let batch = 1024

(* Estimated ns per call of [f] (OLS over run counts). *)
let bechamel_ns name f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.4) ~kde:None () in
  let raw = Benchmark.all cfg [ instance ] test in
  Hashtbl.fold
    (fun _ r acc ->
      match Analyze.OLS.estimates r with Some (e :: _) -> e | _ -> acc)
    (Analyze.all ols instance raw)
    Float.nan

(* A fixed op sequence drawn with the given weights. *)
let op_mix weights =
  let rng = Random.State.make [| 7 |] in
  let total = Array.fold_left ( +. ) 0.0 weights in
  Array.init batch (fun _ ->
      let u = Random.State.float rng total in
      let rec pick i acc =
        if i = Array.length weights - 1 || u < acc +. weights.(i) then i
        else pick (i + 1) (acc +. weights.(i))
      in
      pick 0 0.0)

(* Event_queue add/pop/cancel at the measured op mix, live size and
   near-horizon share.  Near adds land inside the ~0.5 s bucket
   window, far adds beyond it. *)
let queue_replay ~adds ~pops ~cancels ~peak ~near_share =
  let q = Event_queue.create () in
  let rng = Random.State.make [| 11 |] in
  let now = ref 0 in
  let handles = Array.make 64 Event_queue.null in
  let hpos = ref 0 in
  let add () =
    let d =
      if Random.State.float rng 1.0 < near_share then
        1_000 + Random.State.int rng 400_000_000
      else 1_000_000_000 + Random.State.int rng 1_000_000_000
    in
    handles.(!hpos land 63) <- Event_queue.add q ~time:(Simtime.of_ns (!now + d)) ();
    incr hpos
  in
  let pop () =
    now := Event_queue.next_time_ns q;
    Event_queue.take_exn q
  in
  for _ = 1 to Stdlib.max 1 peak do add () done;
  let ops = op_mix [| adds; pops; cancels |] in
  let ns =
    bechamel_ns "event_queue replay" (fun () ->
        Array.iter
          (fun op ->
            let len = Event_queue.length q in
            if (op = 0 && len < 2 * peak) || len = 0 then add ()
            else if op = 1 || op = 0 then pop ()
            else Event_queue.cancel q handles.(Random.State.int rng 64))
          ops)
  in
  ns /. float_of_int batch

(* Soft_timer arm/cancel at the measured fuse and cancel shares:
   fused arms push the deadline later, the others pull it earlier
   (an eager reschedule). *)
let timer_replay ~fuse_share ~cancel_share =
  let sim = Simulator.create ~seed:1 () in
  let timer = Soft_timer.create sim ~counters:(Soft_timer.create_counters ()) ignore in
  let deadline = ref 1_000_000_000 in
  let ops = op_mix [| fuse_share; 1.0 -. fuse_share; cancel_share |] in
  let arms = Array.fold_left (fun acc op -> if op < 2 then acc + 1 else acc) 0 ops in
  let ns =
    bechamel_ns "soft_timer replay" (fun () ->
        Array.iter
          (fun op ->
            if op = 2 then Soft_timer.cancel timer
            else begin
              deadline :=
                if op = 0 then !deadline + 1_000
                else Stdlib.max 1_000 (!deadline - 500);
              Soft_timer.arm timer ~at:(Simtime.of_ns !deadline)
            end)
          ops)
  in
  ns /. float_of_int (Stdlib.max 1 arms)

(* Loss.frame_lost_in over a Gilbert-Elliott channel at the
   workload's frame airtime and BER. *)
let loss_replay (s : Scenario.t) ~airtime_ns =
  let rng = Rng.create ~seed:42 in
  let wl = s.Scenario.wireless in
  let channel =
    Gilbert_elliott.create ~rng:(Rng.split rng) ~mean_good:wl.Scenario.mean_good
      ~mean_bad:wl.Scenario.mean_bad
  in
  let decision = Loss.Stochastic (Rng.split rng) in
  let bits_per_sec = float_of_int (Units.bandwidth_to_bps wl.Scenario.raw_bandwidth) in
  let t = ref 0 in
  let ns =
    bechamel_ns "loss replay" (fun () ->
        for _ = 1 to batch do
          let start = Simtime.of_ns !t in
          t := !t + airtime_ns;
          ignore
            (Loss.frame_lost_in decision wl.Scenario.ber ~bits_per_sec ~channel
               ~start ~stop:(Simtime.of_ns !t))
        done)
  in
  ns /. float_of_int batch

(* ------------------------------------------------------------------ *)
(* Cache layer, timed from outside                                     *)
(* ------------------------------------------------------------------ *)

(* Median per-call µs of [f] over [keys], five rounds. *)
let per_call_us keys f =
  let n = float_of_int (Stdlib.max 1 (Array.length keys)) in
  Stat.median
    (List.init 5 (fun _ -> snd (Stat.timed (fun () -> Array.iter f keys)) *. 1e6 /. n))

(* Store put/get of the run's payloads in a scratch store; [false]
   when a read does not return what was written. *)
let store_metrics ~parent ~dir (entries : (string * string) array) =
  Stat.rm_rf dir;
  let keys = Array.map fst entries in
  let put_us =
    with_span ~parent "cache.store.put" (fun _ ->
        per_call_us entries (fun (key, p) -> Cache_store.put ~dir ~key p))
  in
  let get_us =
    with_span ~parent "cache.store.get" (fun _ ->
        per_call_us keys (fun key -> ignore (Cache_store.get ~dir ~key)))
  in
  let ok = Array.for_all (fun (key, p) -> Cache_store.get ~dir ~key = Some p) entries in
  let st = Cache_store.stats ~dir in
  Stat.rm_rf dir;
  ( [
      one "cache.store.put_us" put_us;
      one "cache.store.get_us" get_us;
      one "cache.store.bytes_per_entry"
        (Stat.ratio (float_of_int st.Cache_store.bytes) (float_of_int st.Cache_store.entries));
    ],
    ok )

(* ------------------------------------------------------------------ *)
(* Sweeps                                                              *)
(* ------------------------------------------------------------------ *)

(* What one traced cell exposes. *)
type obs = {
  scheme : string;
  cc : string;
  ns : int;
  minor : float;
  promoted : float;
  o : Wiring.outcome;
  recovery_entries : int;
}

(* [tcp.cc.<cc>.recovery_entries] from the run's registry JSONL. *)
let recovery_entries jsonl =
  let key = ".recovery_entries\"" in
  List.fold_left
    (fun acc line ->
      let has_key =
        let n = String.length key and l = String.length line in
        let rec at i = i + n <= l && (String.sub line i n = key || at (i + 1)) in
        at 0
      in
      if not has_key then acc
      else
        match String.rindex_opt line ':' with
        | Some i ->
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          let v = String.concat "" (String.split_on_char '}' v) in
          acc + Option.value ~default:0 (int_of_string_opt (String.trim v))
        | None -> acc)
    0
    (String.split_on_char '\n' jsonl)

let metrics_on = { Obs.Config.check = false; trace = false; metrics = true }

let traced_cell ~parent (s : Scenario.t) =
  let minor0, promoted0, _ = Gc.counters () in
  let t0 = Stat.now_ns () in
  let o = Wiring.run ~obs:metrics_on s in
  let t1 = Stat.now_ns () in
  let minor1, promoted1, _ = Gc.counters () in
  let scheme = Scenario.scheme_name s.Scenario.scheme in
  let cc = Tcp_config.cc_name s.Scenario.tcp.Tcp_config.cc in
  record_span
    {
      id = Atomic.fetch_and_add next_id 1;
      name = "topology.wiring.run";
      parent;
      start_ns = t0;
      end_ns = t1;
      attrs =
        [
          ("scheme", Stat.Str scheme);
          ("cc", Str cc);
          ("events", Int o.Wiring.events_executed);
        ];
    };
  ( Run.measurement_to_string (Run.outcome_measurement o),
    {
      scheme;
      cc;
      ns = t1 - t0;
      minor = minor1 -. minor0;
      promoted = promoted1 -. promoted0;
      o;
      recovery_entries =
        recovery_entries (Option.value ~default:"" o.Wiring.obs_metrics);
    } )

let sum f xs = Array.fold_left (fun acc x -> acc +. f x) 0.0 xs
let isum f xs = sum (fun x -> float_of_int (f x)) xs

(* Per-layer counters of one traced pass. *)
let counter_metrics (obs : obs array) =
  let n = float_of_int (Array.length obs) in
  let ev = isum (fun c -> c.o.Wiring.events_executed) obs in
  let q f = isum (fun c -> f c.o.Wiring.queue_stats) obs in
  let tm f = isum (fun c -> f c.o.Wiring.timer_stats) obs in
  let link f =
    isum (fun c -> f c.o.Wiring.downlink_stats + f c.o.Wiring.uplink_stats) obs
  in
  let arq f =
    isum (fun c -> match c.o.Wiring.arq_stats with Some a -> f a | None -> 0) obs
  in
  let snd_ f = isum (fun c -> f c.o.Wiring.sender_stats) obs in
  let sink f = isum (fun c -> f c.o.Wiring.sink_stats) obs in
  let open Event_queue in
  let adds = q (fun s -> s.adds) and pops = q (fun s -> s.pops) in
  let cancels = q (fun s -> s.cancels) in
  let arms = tm (fun t -> t.Soft_timer.arms) in
  let physical =
    tm (fun t -> t.Soft_timer.fires + t.Soft_timer.stale_fires + t.Soft_timer.chases)
  in
  let packets = snd_ (fun s -> s.Tcp_stats.packets_sent) in
  let down_first =
    isum
      (fun c ->
        c.o.Wiring.downlink_stats.Wireless_link.frames_sent
        - match c.o.Wiring.arq_stats with Some a -> a.Arq.retransmissions | None -> 0)
      obs
  in
  let arq_frames = arq (fun a -> a.Arq.completions + a.Arq.discards) in
  [
    one "engine.simulator.events_per_cell" (ev /. n);
    one "engine.event_queue.ops_per_event" (Stat.ratio (adds +. pops +. cancels) ev);
    one "engine.event_queue.peak_live"
      (Array.fold_left
         (fun acc c -> Float.max acc (float_of_int c.o.Wiring.queue_stats.max_size))
         0.0 obs);
    one "engine.event_queue.near_pop_share" (Stat.ratio (q (fun s -> s.near_pops)) pops);
    one "engine.event_queue.dead_drop_share" (Stat.ratio (q (fun s -> s.dead_drops)) cancels);
    one "engine.soft_timer.arms_per_event" (Stat.ratio arms ev);
    one "engine.soft_timer.fuse_share" (Stat.ratio (tm (fun t -> t.Soft_timer.fuses)) arms);
    one "engine.soft_timer.lazy_cancel_share"
      (Stat.ratio (tm (fun t -> t.Soft_timer.lazy_cancels)) arms);
    one "engine.soft_timer.stale_fire_share"
      (Stat.ratio (tm (fun t -> t.Soft_timer.stale_fires)) physical);
    one "engine.gc.minor_words_per_event" (Stat.ratio (sum (fun c -> c.minor) obs) ev);
    one "engine.gc.promoted_words_per_event" (Stat.ratio (sum (fun c -> c.promoted) obs) ev);
    one "errors.loss.frames_per_cell" (link (fun l -> l.Wireless_link.frames_sent) /. n);
    one "errors.loss.frame_loss_share"
      (Stat.ratio (link (fun l -> l.Wireless_link.frames_lost))
         (link (fun l -> l.Wireless_link.frames_sent)));
    one "linklayer.fragmenter.frames_per_packet" (Stat.ratio down_first packets);
    one "linklayer.arq.transmissions_per_frame"
      (Stat.ratio (arq (fun a -> a.Arq.transmissions)) arq_frames);
    one "linklayer.arq.discard_share" (Stat.ratio (arq (fun a -> a.Arq.discards)) arq_frames);
    one "tcp.tcp_sender.packets_per_cell" (packets /. n);
    one "tcp.tcp_sender.retransmit_share"
      (Stat.ratio (snd_ (fun s -> s.Tcp_stats.packets_retransmitted)) packets);
    one "tcp.tcp_sender.timeouts_per_cell" (snd_ (fun s -> s.Tcp_stats.timeouts) /. n);
    one "tcp.tcp_sink.acks_per_packet"
      (Stat.ratio (sink (fun s -> s.Tcp_tahoe.Tcp_sink.acks_sent))
         (sink (fun s -> s.Tcp_tahoe.Tcp_sink.segments_received)));
    one "tcp.cc.recovery_entries_per_cell" (isum (fun c -> c.recovery_entries) obs /. n);
    one "feedback.ebsn.sent_per_cell" (isum (fun c -> c.o.Wiring.ebsn_sent) obs /. n);
    one "feedback.source_quench.sent_per_cell" (isum (fun c -> c.o.Wiring.quench_sent) obs /. n);
    one "agents.snoop.local_retransmits_per_cell"
      (isum
         (fun c ->
           match c.o.Wiring.snoop_stats with
           | Some s -> s.Agents.Snoop.local_retransmits
           | None -> 0)
         obs
      /. n);
  ]

(* ns and minor words per event for each scheme (wan-sweep) or cc
   variant (lan-cc); [cell_ns.(i)] is cell i's median traced time. *)
let attribution ~by ~labels (obs : obs array) (cell_ns : float array) =
  List.concat_map
    (fun label ->
      let idx =
        List.filter (fun i -> by obs.(i) = label) (List.init (Array.length obs) Fun.id)
      in
      let total f = List.fold_left (fun acc i -> acc +. f i) 0.0 idx in
      let ev = total (fun i -> float_of_int obs.(i).o.Wiring.events_executed) in
      [
        one ("topology.wiring.ns_per_event." ^ label)
          (Stat.ratio (total (fun i -> cell_ns.(i))) ev);
        one ("topology.wiring.words_per_event." ^ label)
          (Stat.ratio (total (fun i -> obs.(i).minor)) ev);
      ])
    labels

(* Render the pass's measurements as the figure modules do. *)
let render_sweep w cells (ms : Run.measurement option array) =
  let tput_of pred =
    Summary.of_list
      (List.filter_map
         (fun i ->
           match ms.(i) with
           | Some m when pred cells.(i) -> Some m.Run.throughput_bps
           | _ -> None)
         (List.init (Array.length cells) Fun.id))
  in
  let bad_of (s : Scenario.t) = Simtime.span_to_sec s.Scenario.wireless.Scenario.mean_bad in
  match w with
  | Workload.Wan_sweep ->
    String.concat "\n"
      (List.map
         (fun scheme ->
           Wan_sweep.render_throughput ~title:(Scenario.scheme_name scheme) ~note:""
             (List.map
                (fun bad_sec ->
                  {
                    Wan_sweep.bad_sec;
                    cells =
                      List.map
                        (fun size ->
                          {
                            Wan_sweep.size;
                            summary =
                              tput_of (fun s ->
                                  s.Scenario.scheme = scheme
                                  && Tcp_config.packet_size s.Scenario.tcp = size
                                  && Float.abs (bad_of s -. bad_sec) < 1e-6);
                          })
                        Wan_sweep.packet_sizes;
                  })
                Wan_sweep.bad_periods_sec))
         Scenario.all_schemes)
  | Workload.Lan_cc ->
    String.concat "\n"
      (List.map
         (fun cc ->
           Lan_sweep.render_throughput ~title:(Tcp_config.cc_name cc) ~note:""
             (List.map
                (fun scheme ->
                  {
                    Lan_sweep.scheme;
                    points =
                      List.map
                        (fun bad_sec ->
                          {
                            Lan_sweep.bad_sec;
                            summary =
                              tput_of (fun s ->
                                  s.Scenario.scheme = scheme
                                  && s.Scenario.tcp.Tcp_config.cc = cc
                                  && Float.abs (bad_of s -. bad_sec) < 1e-6);
                          })
                        Lan_sweep.bad_periods_sec;
                  })
                Workload.lan_schemes))
         Tcp_config.all_ccs)
  | Workload.Campaign -> ""

(* [Sweep.measurements_all]'s own share of its wall time: it runs a
   strided subset of the cells (at its fixed replication seed), paired
   with the same runs made directly through [Run.measure]; the
   difference is the sweep layer's self time.  Also checks the two
   agree. *)
let sweep_self_share ~parent cells =
  let n = Array.length cells in
  let stride = Stdlib.max 1 (n / 48) in
  let sub = List.filteri (fun i _ -> i mod stride = 0) (Array.to_list cells) in
  let seed = List.hd (Sweep.seeds ~replications:1) in
  let pairs =
    List.init 3 (fun _ ->
        let via_sweep, t_sweep =
          with_span ~parent "experiments.sweep.measurements_all" (fun _ ->
              Stat.timed (fun () -> Sweep.measurements_all ~replications:1 ~jobs:1 sub))
        in
        let direct, t_direct =
          Stat.timed (fun () ->
              List.map (fun s -> Run.measure (Scenario.with_seed s seed)) sub)
        in
        ((t_sweep -. t_direct) /. t_sweep, List.map (fun m -> [ m ]) direct = via_sweep))
  in
  (Stat.median (List.map fst pairs), List.for_all snd pairs)

let run_sweep w ~seed ~seconds =
  let cells = Workload.sweep_cells w ~seed in
  let n = Array.length cells in
  let untraced_ns = Array.make n [] and traced_ns = Array.make n [] in
  let digest_u = ref None and digest_t = ref [] in
  let same = ref true in
  let first_obs = ref None and first_ms = ref [||] in
  let busy = ref [] and majors = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let pool0 = Parallel.Pool.stats () in
  let add_times acc i t = acc.(i) <- t :: acc.(i) in
  with_span ("workload." ^ Workload.name w) (fun root ->
      E2e.repeat ~budget:(0.8 *. seconds) ~min:4 (fun k ->
          attempted := !attempted + n;
          if k mod 2 = 0 then begin
            let ms, raised, times =
              with_span ~parent:root "pass.untraced" (fun _ -> E2e.sweep_pass cells)
            in
            Array.iteri (fun i t -> add_times untraced_ns i (t *. 1e9)) times;
            failed := !failed + raised;
            let d = Workload.digest_payloads (E2e.payloads ms) in
            match !digest_u with
            | None ->
              digest_u := Some d;
              first_ms := ms
            | Some d0 ->
              if d <> d0 then begin
                same := false;
                failed := !failed + n
              end
          end
          else begin
            let major0 = (Gc.quick_stat ()).Gc.major_collections in
            let out, dt =
              with_span ~parent:root "pass.traced" (fun pid ->
                  Stat.timed (fun () -> Array.map (traced_cell ~parent:pid) cells))
            in
            majors :=
              float_of_int ((Gc.quick_stat ()).Gc.major_collections - major0) :: !majors;
            let obs = Array.map snd out in
            Array.iteri (fun i c -> add_times traced_ns i (float_of_int c.ns)) obs;
            busy := sum (fun c -> float_of_int c.ns *. 1e-9) obs /. dt :: !busy;
            if !first_obs = None then first_obs := Some obs;
            digest_t := Workload.digest_payloads (Array.map fst out) :: !digest_t
          end);
      let pool1 = Parallel.Pool.stats () in
      let obs = Option.get !first_obs in
      let d0 = Option.get !digest_u in
      let traced_ok = List.for_all (( = ) d0) !digest_t in
      if not traced_ok then failed := !failed + n;
      let pinned_ok = seed <> Workload.default_seed || d0 = Workload.pinned w in
      (* Each cell's median time over the passes, as the end-to-end
         run reports it. *)
      let cell_ns = Array.map Stat.median traced_ns in
      let cell_ms p = Stat.percentile p (Array.to_list cell_ns) *. 1e-6 in
      let pool f = float_of_int (f pool1 - f pool0) in
      let total a = Array.fold_left ( +. ) 0.0 a in
      let overhead = 1.0 -. (total (Array.map Stat.median untraced_ns) /. total cell_ns) in
      let by, labels =
        match w with
        | Workload.Lan_cc -> ((fun c -> c.cc), List.map Tcp_config.cc_name Tcp_config.all_ccs)
        | _ -> ((fun c -> c.scheme), List.map Scenario.scheme_name Scenario.all_schemes)
      in
      let ev = isum (fun c -> c.o.Wiring.events_executed) obs in
      (* The cache tier a warm re-run reads: key derivation and the
         store's put/get on this run's payloads. *)
      let fp_us =
        with_span ~parent:root "cache.fingerprint.key" (fun _ ->
            per_call_us cells (fun s -> ignore (Fingerprint.key s)))
      in
      let store, store_ok =
        store_metrics ~parent:root
          ~dir:(Filename.concat E2e.out_dir ("store-trace-" ^ Workload.name w))
          (Array.map2
             (fun s p -> (Fingerprint.key s, p))
             cells (E2e.payloads !first_ms))
      in
      let sweep_share, sweep_ok = sweep_self_share ~parent:root cells in
      let render_ms =
        with_span ~parent:root "experiments.report.render" (fun _ ->
            Stat.median
              (List.init 5 (fun _ ->
                   snd (Stat.timed (fun () -> ignore (render_sweep w cells !first_ms))) *. 1e3)))
      in
      (* Replays at this workload's measured mix. *)
      let qsum f = isum (fun c -> f c.o.Wiring.queue_stats) obs in
      let tsum f = isum (fun c -> f c.o.Wiring.timer_stats) obs in
      let arms = tsum (fun t -> t.Soft_timer.arms) in
      let adds = qsum (fun s -> s.Event_queue.adds) in
      let down f = isum (fun c -> f c.o.Wiring.downlink_stats) obs in
      let queue_ns, timer_ns, loss_ns =
        with_span ~parent:root "replays" (fun _ ->
            ( queue_replay ~adds
                ~pops:(qsum (fun s -> s.Event_queue.pops))
                ~cancels:(qsum (fun s -> s.Event_queue.cancels))
                ~peak:
                  (Array.fold_left
                     (fun acc c -> Stdlib.max acc c.o.Wiring.queue_stats.Event_queue.max_size)
                     1 obs)
                ~near_share:(Stat.ratio (qsum (fun s -> s.Event_queue.near_adds)) adds),
              timer_replay
                ~fuse_share:(Stat.ratio (tsum (fun t -> t.Soft_timer.fuses)) arms)
                ~cancel_share:(Stat.ratio (tsum (fun t -> t.Soft_timer.lazy_cancels)) arms),
              let air_bits =
                8.0 *. Stat.ratio (down (fun l -> l.Wireless_link.air_bytes))
                         (down (fun l -> l.Wireless_link.frames_sent))
              in
              let s = cells.(0) in
              let bps =
                float_of_int
                  (Units.bandwidth_to_bps s.Scenario.wireless.Scenario.raw_bandwidth)
              in
              loss_replay s ~airtime_ns:(Stdlib.max 1 (int_of_float (air_bits /. bps *. 1e9))) ))
      in
      {
        Stat.metrics =
          complete
            ([
               one "topology.wiring.cell_ms_p50" (cell_ms 0.5);
               one "topology.wiring.cell_ms_p90" (cell_ms 0.9);
               one "engine.simulator.ns_per_event"
                 (Stat.ratio (Array.fold_left ( +. ) 0.0 cell_ns) ev);
               one "engine.event_queue.ns_per_op" queue_ns;
               one "engine.soft_timer.ns_per_arm" timer_ns;
               one "errors.loss.ns_per_frame" loss_ns;
               m "engine.parallel.busy_share" !busy;
               one "engine.parallel.steals" (pool (fun s -> s.Parallel.Pool.steals));
               one "engine.parallel.chunks" (pool (fun s -> s.Parallel.Pool.chunks));
               m "engine.gc.major_collections" !majors;
               one "cache.fingerprint.us_per_key" fp_us;
               one "experiments.sweep.self_share" sweep_share;
               one "experiments.report.render_ms" render_ms;
               one "obs.trace_overhead_share" overhead;
             ]
            @ counter_metrics obs @ store
            @ attribution ~by ~labels obs cell_ns);
        attempted = !attempted;
        failed = !failed;
        checks =
          [
            ("passes agree", !same);
            ("traced == untraced", traced_ok);
            ("pinned digest", pinned_ok);
            ("sweep == direct", sweep_ok);
            ("store get == put", store_ok);
          ];
        notes = [ "digest: " ^ d0 ];
        passes = List.length !digest_t;
      })

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)
(* ------------------------------------------------------------------ *)

type attempt = {
  a_start : int;
  a_end : int;
  a_minor : float;
  a_promoted : float;
}

let attempts = ref []

(* The supervisor cells [Campaigns.run] builds for a chaos campaign,
   with a span around each attempt.  Keys and config mirror
   Campaigns' own, so the resume that follows a traced pass finds its
   manifest: a mismatch shows as cells re-simulated instead of
   resumed, and fails the check. *)
let traced_chaos_cell ~parent sp =
  {
    Supervisor.key = Workload.chaos_key sp;
    simulate =
      (fun () ->
        let minor0, promoted0, _ = Gc.counters () in
        with_span ~parent "topology.wiring.run"
          ~attrs:[ ("label", Stat.Str sp.Chaos.label) ]
          (fun _ ->
            let t0 = Stat.now_ns () in
            let finish () =
              let minor1, promoted1, _ = Gc.counters () in
              let a =
                {
                  a_start = t0;
                  a_end = Stat.now_ns ();
                  a_minor = minor1 -. minor0;
                  a_promoted = promoted1 -. promoted0;
                }
              in
              Mutex.protect spans_lock (fun () -> attempts := a :: !attempts)
            in
            Fun.protect ~finally:finish (fun () -> Chaos.run_spec ~check:true sp)));
    encode = Chaos.result_to_string;
    decode = Chaos.result_of_string sp;
  }

let supervisor_config (o : Campaigns.options) =
  {
    Supervisor.deadline_events = o.Campaigns.deadline;
    max_attempts = o.retries;
    backoff_base_ms = o.backoff_ms;
    backoff_cap_ms = Float.max 1000.0 o.backoff_ms;
    relax_factor = 8;
    wave_size = None;
  }

(* Length of the union of [start, end) intervals. *)
let covered intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (total, cur) (s, e) ->
        match cur with
        | None -> (total, Some (s, e))
        | Some (cs, ce) when s <= ce -> (total, Some (cs, Stdlib.max ce e))
        | Some (cs, ce) -> (total + (ce - cs), Some (s, e)))
      (0, None) sorted
  in
  match last with Some (s, e) -> total + (e - s) | None -> total

(* One traced pass: [Supervisor.run] over spanned cells, checkpointing
   into [dir]. *)
type traced_pass = {
  report : Chaos.run_result Supervisor.report;
  attempts_ : attempt list;
  wall_ns : int;
  sup : Supervisor.stats * Supervisor.stats;
  pool : Parallel.Pool.stats * Parallel.Pool.stats;
  majors : int;
}

let traced_campaign_pass ~parent ~jobs ~spec ~options ~dir specs =
  attempts := [];
  let sup0 = Supervisor.stats () and pool0 = Parallel.Pool.stats () in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let report, wall_ns =
    with_span ~parent "supervise.supervisor.run" (fun pid ->
        let t0 = Stat.now_ns () in
        let cells = Array.map (traced_chaos_cell ~parent:pid) specs in
        let r =
          Supervisor.run ~config:(supervisor_config options) ~jobs ~spec ~store_dir:dir
            cells
        in
        (r, Stat.now_ns () - t0))
  in
  {
    report;
    attempts_ = !attempts;
    wall_ns;
    sup = (sup0, Supervisor.stats ());
    pool = (pool0, Parallel.Pool.stats ());
    majors = (Gc.quick_stat ()).Gc.major_collections - major0;
  }

let run_campaign ~seed ~seconds =
  let jobs = E2e.campaign_jobs () in
  let kind = Workload.campaign_kind ~seed in
  let spec = Campaigns.spec_string kind in
  let specs = fst (Workload.campaign_cells ~seed) in
  let n = Array.length specs in
  let options = Workload.campaign_options ~resume:false in
  let untraced = ref [] and traced = ref [] in
  let cold = ref None and first = ref None in
  let attempted = ref 0 and failed = ref 0 in
  let same = ref true and traced_ok = ref true in
  let kept = Filename.concat E2e.out_dir "store-trace-campaign" in
  let scratch = Filename.concat E2e.out_dir "store-trace-campaign-pass" in
  with_span "workload.campaign" (fun root ->
      (* Untraced and traced cold passes alternate, untraced first. *)
      E2e.repeat ~budget:(0.8 *. seconds) ~min:4 (fun k ->
          let dir = if k = 1 then kept else scratch in
          Stat.rm_rf dir;
          Stat.mkdir_p dir;
          attempted := !attempted + n;
          if k mod 2 = 0 then begin
            let r, dt =
              with_span ~parent:root "pass.untraced" (fun _ ->
                  Stat.timed (fun () -> Campaigns.run ~jobs ~store_dir:dir ~options kind))
            in
            failed := !failed + Workload.campaign_failures r;
            (match !cold with
            | None -> cold := Some r
            | Some c0 ->
              if Workload.digest_report r <> Workload.digest_report c0 then begin
                same := false;
                failed := !failed + n
              end);
            untraced := float_of_int r.Campaigns.completed /. dt :: !untraced
          end
          else begin
            let p = traced_campaign_pass ~parent:root ~jobs ~spec ~options ~dir specs in
            traced :=
              float_of_int p.report.Supervisor.completed /. (float_of_int p.wall_ns *. 1e-9)
              :: !traced;
            if !first = None then first := Some p;
            (* The traced pass must render exactly what the untraced
               cold pass rendered: resume its store through Campaigns. *)
            let c0 = Option.get !cold in
            let r =
              Campaigns.run ~jobs ~store_dir:dir
                ~options:(Workload.campaign_options ~resume:true) kind
            in
            if r.Campaigns.rendered <> c0.Campaigns.rendered || r.json <> c0.json
               || r.resumed <> r.total
            then begin
              traced_ok := false;
              failed := !failed + n
            end
          end;
          if dir = scratch then Stat.rm_rf dir);
      let c0 = Option.get !cold and p = Option.get !first in
      let results =
        List.filter_map
          (function Some (Supervisor.Done r) -> Some r | _ -> None)
          (Array.to_list p.report.Supervisor.outcomes)
      in
      let settled = float_of_int (Stdlib.max 1 (List.length results)) in
      let events =
        float_of_int (List.fold_left (fun acc r -> acc + r.Chaos.events_executed) 0 results)
      in
      let injected =
        List.fold_left
          (fun acc r -> List.fold_left (fun acc (_, k) -> acc + k) acc r.Chaos.injected)
          0 results
      in
      let att = p.attempts_ in
      let wall = float_of_int p.wall_ns in
      let cell_ns =
        float_of_int (List.fold_left (fun acc a -> acc + (a.a_end - a.a_start)) 0 att)
      in
      let durations_ms = List.map (fun a -> float_of_int (a.a_end - a.a_start) *. 1e-6) att in
      let words f = List.fold_left (fun acc a -> acc +. f a) 0.0 att in
      let times_ms f = Stat.median (List.init 5 (fun _ -> snd (Stat.timed f) *. 1e3)) in
      let manifest_ms =
        match p.report.Supervisor.manifest_path with
        | Some path ->
          with_span ~parent:root "supervise.manifest.load" (fun _ ->
              times_ms (fun () -> ignore (Campaign_manifest.load ~path)))
        | None -> 0.0
      in
      let render_ms =
        with_span ~parent:root "supervise.campaigns.render" (fun _ ->
            times_ms (fun () -> ignore (Chaos.render results ^ Chaos.to_json results)))
      in
      let fp_us =
        with_span ~parent:root "cache.fingerprint.key" (fun _ ->
            per_call_us specs (fun sp -> ignore (Workload.chaos_key sp)))
      in
      let store, store_ok =
        store_metrics ~parent:root
          ~dir:(Filename.concat E2e.out_dir "store-trace-campaign-replay")
          (Array.of_list
             (List.map
                (fun r -> (Workload.chaos_key r.Chaos.spec, Chaos.result_to_string r))
                results))
      in
      Stat.rm_rf kept;
      let sup f = float_of_int (f (snd p.sup) - f (fst p.sup)) in
      let pool f = float_of_int (f (snd p.pool) - f (fst p.pool)) in
      let d0 = Workload.digest_report c0 in
      {
        Stat.metrics =
          complete
            ([
               one "topology.wiring.cell_ms_p50" (Stat.percentile 0.5 durations_ms);
               one "topology.wiring.cell_ms_p90" (Stat.percentile 0.9 durations_ms);
               one "engine.simulator.events_per_cell" (events /. settled);
               one "engine.simulator.ns_per_event" (Stat.ratio cell_ns events);
               one "engine.gc.minor_words_per_event"
                 (Stat.ratio (words (fun a -> a.a_minor)) events);
               one "engine.gc.promoted_words_per_event"
                 (Stat.ratio (words (fun a -> a.a_promoted)) events);
               one "engine.gc.major_collections" (float_of_int p.majors);
               one "engine.parallel.busy_share" (cell_ns /. (float_of_int jobs *. wall));
               one "engine.parallel.steals" (pool (fun s -> s.Parallel.Pool.steals));
               one "engine.parallel.chunks" (pool (fun s -> s.Parallel.Pool.chunks));
               one "faults.injector.injected_per_cell" (float_of_int injected /. settled);
               one "cache.fingerprint.us_per_key" fp_us;
               one "supervise.supervisor.self_share"
                 (1.0
                 -. (float_of_int (covered (List.map (fun a -> (a.a_start, a.a_end)) att))
                    /. wall));
               one "supervise.supervisor.retries" (sup (fun s -> s.Supervisor.retries));
               one "supervise.supervisor.deadline_hits"
                 (sup (fun s -> s.Supervisor.deadline_hits));
               one "supervise.supervisor.backoff_ms" (sup (fun s -> s.Supervisor.backoff_ms));
               one "supervise.supervisor.quarantined" (sup (fun s -> s.Supervisor.quarantined));
               one "supervise.supervisor.checkpoint_flushes"
                 (sup (fun s -> s.Supervisor.checkpoint_flushes));
               one "supervise.manifest.load_ms" manifest_ms;
               one "supervise.campaigns.render_ms" render_ms;
               one "obs.trace_overhead_share"
                 (1.0 -. (Stat.median !traced /. Stat.median !untraced));
             ]
            @ store);
        attempted = !attempted;
        failed = !failed;
        checks =
          [
            ("passes agree", !same);
            ("traced == untraced", !traced_ok);
            ("pinned digest", seed <> Workload.default_seed || d0 = Workload.pinned Campaign);
            ("store get == put", store_ok);
          ];
        notes = [ "digest: " ^ d0 ];
        passes = List.length !traced;
      })

(* Per-layer times are reported as measured, unscaled; the host
   factor around the run is noted beside them. *)
let run w ~seed ~seconds =
  let f0 = Stat.host_factor () in
  let r =
    match w with
    | Workload.Campaign -> run_campaign ~seed ~seconds
    | Workload.Wan_sweep | Workload.Lan_cc -> run_sweep w ~seed ~seconds
  in
  write_spans w;
  let note =
    Printf.sprintf "host factor (reference kernel time / %.4f s): %.3f"
      Stat.reference_s
      ((f0 +. Stat.host_factor ()) /. 2.0)
  in
  { r with notes = r.notes @ [ note ] }
