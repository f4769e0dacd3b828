open Sim_engine
open Netsim

type config = {
  local_rto_initial : Simtime.span;
  local_rto_min : Simtime.span;
  max_local_retransmits : int;
}

let default_config =
  {
    local_rto_initial = Simtime.span_ms 500;
    local_rto_min = Simtime.span_ms 100;
    max_local_retransmits = 10;
  }

type stats = {
  cached : int;
  local_retransmits : int;
  dupacks_suppressed : int;
  local_timeouts : int;
  cache_misses : int;
}

type cached_packet = {
  pkt : Packet.t;
  mutable sent_at : Simtime.t;
  mutable local_retx : int;
}

type conn_state = {
  cache : (int, cached_packet) Hashtbl.t;  (* keyed by first seq byte *)
  mutable last_ack : int;
  mutable dup_count : int;
  mutable srtt : float option;  (* seconds, local BS<->MH round trip *)
  mutable rto_scale : float;  (* exponential backoff of the local timer *)
  mutable timer : Simulator.event option;
}

type t = {
  sim : Simulator.t;
  cfg : config;
  mobile : Address.t;
  send_downlink : Packet.t -> unit;
  conns : (int, conn_state) Hashtbl.t;
  mutable cached_total : int;
  mutable retx_total : int;
  mutable suppressed_total : int;
  mutable timeout_total : int;
  mutable miss_total : int;
}

let create sim ~config ~mobile ~send_downlink =
  {
    sim;
    cfg = config;
    mobile;
    send_downlink;
    conns = Hashtbl.create 4;
    cached_total = 0;
    retx_total = 0;
    suppressed_total = 0;
    timeout_total = 0;
    miss_total = 0;
  }

let conn_state t conn =
  match Hashtbl.find_opt t.conns conn with
  | Some s -> s
  | None ->
    let s =
      {
        cache = Hashtbl.create 32;
        last_ack = 0;
        dup_count = 0;
        srtt = None;
        rto_scale = 1.0;
        timer = None;
      }
    in
    Hashtbl.replace t.conns conn s;
    s

let local_rto t state =
  let base =
    match state.srtt with
    | None -> Simtime.span_to_sec t.cfg.local_rto_initial
    | Some srtt ->
      let doubled = 2.0 *. srtt
      and least = Simtime.span_to_sec t.cfg.local_rto_min in
      if doubled >= least then doubled else least
  in
  Simtime.span_sec (base *. state.rto_scale)

let cancel_timer t state =
  match state.timer with
  | None -> ()
  | Some ev ->
    Simulator.cancel t.sim ev;
    state.timer <- None

let retransmit t _state entry =
  entry.local_retx <- entry.local_retx + 1;
  entry.sent_at <- Simulator.now t.sim;
  t.retx_total <- t.retx_total + 1;
  t.send_downlink entry.pkt

let rec arm_timer t state =
  cancel_timer t state;
  if Hashtbl.length state.cache > 0 then
    state.timer <-
      Some
        (Simulator.schedule_after t.sim ~delay:(local_rto t state) (fun () ->
             state.timer <- None;
             on_local_timeout t state))

and on_local_timeout t state =
  t.timeout_total <- t.timeout_total + 1;
  (match Hashtbl.find_opt state.cache state.last_ack with
  | Some entry when entry.local_retx < t.cfg.max_local_retransmits ->
    retransmit t state entry;
    let doubled = state.rto_scale *. 2.0 in
    state.rto_scale <- (if 64.0 <= doubled then 64.0 else doubled)
  | Some _ | None -> ());
  arm_timer t state

let on_data t conn pkt seq =
  let state = conn_state t conn in
  (match Hashtbl.find_opt state.cache seq with
  | Some entry -> entry.sent_at <- Simulator.now t.sim
  | None ->
    if seq >= state.last_ack then begin
      Hashtbl.replace state.cache seq
        { pkt; sent_at = Simulator.now t.sim; local_retx = 0 };
      t.cached_total <- t.cached_total + 1
    end);
  if (match state.timer with None -> true | Some _ -> false) then
    arm_timer t state

let sample_rtt state entry now =
  if entry.local_retx = 0 then begin
    let rtt = Simtime.span_to_sec (Simtime.diff now entry.sent_at) in
    state.srtt <-
      Some
        (match state.srtt with
        | None -> rtt
        | Some srtt -> srtt +. ((rtt -. srtt) /. 8.0))
  end

let on_ack t conn ack =
  let state = conn_state t conn in
  if ack > state.last_ack then begin
    (* New ack: clean everything it covers, take an RTT sample from
       the newest covered packet that was never locally resent. *)
    let now = Simulator.now t.sim in
    Hashtbl.iter
      (fun seq entry ->
        if seq < ack then sample_rtt state entry now)
      state.cache;
    Hashtbl.filter_map_inplace
      (fun seq entry -> if seq < ack then None else Some entry)
      state.cache;
    state.last_ack <- ack;
    state.dup_count <- 0;
    state.rto_scale <- 1.0;
    arm_timer t state;
    false
  end
  else if ack = state.last_ack then begin
    state.dup_count <- state.dup_count + 1;
    match Hashtbl.find_opt state.cache ack with
    | Some entry ->
      (* The missing packet is ours to fix: retransmit locally on the
         first duplicate, swallow this and subsequent duplicates. *)
      if
        state.dup_count = 1
        && entry.local_retx < t.cfg.max_local_retransmits
      then begin
        retransmit t state entry;
        arm_timer t state
      end;
      t.suppressed_total <- t.suppressed_total + 1;
      true
    | None ->
      t.miss_total <- t.miss_total + 1;
      false
  end
  else false

let on_forward t pkt =
  match pkt.Packet.kind with
  | Packet.Tcp_data { conn; seq; _ }
    when Address.equal pkt.Packet.dst t.mobile ->
    on_data t conn pkt seq;
    false
  | Packet.Tcp_ack { conn; ack; _ }
    when Address.equal pkt.Packet.src t.mobile ->
    on_ack t conn ack
  | Packet.Tcp_data _ | Packet.Tcp_ack _ | Packet.Ebsn _
  | Packet.Source_quench _ ->
    false

let cache_size t =
  Hashtbl.fold (fun _ s acc -> acc + Hashtbl.length s.cache) t.conns 0

let stats t =
  {
    cached = t.cached_total;
    local_retransmits = t.retx_total;
    dupacks_suppressed = t.suppressed_total;
    local_timeouts = t.timeout_total;
    cache_misses = t.miss_total;
  }
