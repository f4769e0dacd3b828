open Sim_engine

type pattern =
  | Cbr of { rate : Units.bandwidth; packet_bytes : int }
  | On_off of {
      rate : Units.bandwidth;
      packet_bytes : int;
      mean_on : Simtime.span;
      mean_off : Simtime.span;
    }

type t = {
  sim : Simulator.t;
  rng : Rng.t;
  pattern : pattern;
  src : Address.t;
  dst : Address.t;
  conn : int;
  alloc_id : unit -> int;
  send : Packet.t -> unit;
  mutable running : bool;
  mutable packets : int;
  mutable bytes : int;
}

let packet_bytes_of = function
  | Cbr { packet_bytes; _ } | On_off { packet_bytes; _ } -> packet_bytes

let rate_of = function Cbr { rate; _ } | On_off { rate; _ } -> rate

(* Spacing that averages to the pattern's rate while sending. *)
let interval t =
  Units.tx_time
    ~bits:(Units.bits_of_bytes (packet_bytes_of t.pattern))
    (rate_of t.pattern)

let emit t =
  let bytes = packet_bytes_of t.pattern in
  let header = Int.min 40 bytes in
  let pkt =
    Packet.create ~id:(t.alloc_id ()) ~src:t.src ~dst:t.dst
      ~kind:
        (Packet.Tcp_data
           { conn = t.conn; seq = t.bytes; length = bytes - header;
             is_retransmit = false })
      ~header_bytes:header ~created:(Simulator.now t.sim)
  in
  t.packets <- t.packets + 1;
  t.bytes <- t.bytes + bytes;
  t.send pkt

let rec tick t =
  if t.running then begin
    emit t;
    ignore (Simulator.schedule_after t.sim ~delay:(interval t) (fun () -> tick t))
  end

(* On/off: alternate sending bursts with silent gaps, both
   exponentially distributed. *)
let rec burst t =
  if t.running then begin
    match t.pattern with
    | Cbr _ -> ()
    | On_off { mean_on; mean_off; _ } ->
      let on = Rng.exponential t.rng ~mean:(Simtime.span_to_sec mean_on) in
      let off = Rng.exponential t.rng ~mean:(Simtime.span_to_sec mean_off) in
      let rec send_during remaining =
        if t.running && remaining > 0.0 then begin
          emit t;
          let gap = interval t in
          ignore
            (Simulator.schedule_after t.sim ~delay:gap (fun () ->
                 send_during (remaining -. Simtime.span_to_sec gap)))
        end
        else
          ignore
            (Simulator.schedule_after t.sim ~delay:(Simtime.span_sec off)
               (fun () -> burst t))
      in
      send_during on
  end

let start sim ~rng ~pattern ~src ~dst ~conn ~alloc_id ~send =
  (match pattern with
  | Cbr { packet_bytes; _ } | On_off { packet_bytes; _ } ->
    if packet_bytes <= 0 then
      invalid_arg "Cross_traffic.start: packet_bytes <= 0");
  let t =
    {
      sim;
      rng;
      pattern;
      src;
      dst;
      conn;
      alloc_id;
      send;
      running = true;
      packets = 0;
      bytes = 0;
    }
  in
  (match pattern with Cbr _ -> tick t | On_off _ -> burst t);
  t

let stop t = t.running <- false
let packets_sent t = t.packets
let bytes_sent t = t.bytes
