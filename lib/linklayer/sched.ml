open Sim_engine

type policy = Fifo | Round_robin

(* A deque with a bounded tail: [front] holds re-queued items (never
   dropped), [back] is the bounded arrival queue. *)
type 'a lane = {
  mutable front : 'a list;
  back : 'a Queue.t;
  mutable drop_count : int;
}

let lane_create () = { front = []; back = Queue.create (); drop_count = 0 }
let lane_length lane = List.length lane.front + Queue.length lane.back

let lane_push lane ~capacity item =
  if Queue.length lane.back >= capacity then begin
    lane.drop_count <- lane.drop_count + 1;
    false
  end
  else begin
    Queue.add item lane.back;
    true
  end

let lane_push_front lane item = lane.front <- item :: lane.front

let lane_pop lane =
  match lane.front with
  | item :: rest ->
    lane.front <- rest;
    Some item
  | [] -> Queue.take_opt lane.back

type 'a t = {
  pol : policy;
  capacity : int;
  fifo : (int * 'a) lane;
  per_conn : 'a lane Int_table.t;
  mutable rotation : int list;  (* round-robin order, head is next *)
}

let create pol ~capacity =
  if capacity <= 0 then invalid_arg "Sched.create: capacity <= 0";
  {
    pol;
    capacity;
    fifo = lane_create ();
    per_conn = Int_table.create 8;
    rotation = [];
  }

let policy t = t.pol

let conn_lane t conn =
  match Int_table.find_opt t.per_conn conn with
  | Some lane -> lane
  | None ->
    let lane = lane_create () in
    Int_table.replace t.per_conn conn lane;
    t.rotation <- t.rotation @ [ conn ];
    lane

let push t ~conn item =
  match t.pol with
  | Fifo -> lane_push t.fifo ~capacity:t.capacity (conn, item)
  | Round_robin -> lane_push (conn_lane t conn) ~capacity:t.capacity item

let push_front t ~conn item =
  match t.pol with
  | Fifo -> lane_push_front t.fifo (conn, item)
  | Round_robin -> lane_push_front (conn_lane t conn) item

let pop t =
  match t.pol with
  | Fifo -> lane_pop t.fifo
  | Round_robin ->
    (* Scan at most one full rotation for a non-empty lane; the served
       connection moves to the back. *)
    let rec scan remaining rot =
      match rot, remaining with
      | _, 0 | [], _ -> None
      | conn :: rest, _ -> (
        let lane = Int_table.find t.per_conn conn in
        match lane_pop lane with
        | Some item ->
          t.rotation <- rest @ [ conn ];
          Some (conn, item)
        | None -> scan (remaining - 1) (rest @ [ conn ]))
    in
    scan (List.length t.rotation) t.rotation

let length t =
  match t.pol with
  | Fifo -> lane_length t.fifo
  | Round_robin ->
    Int_table.fold (fun _ lane acc -> acc + lane_length lane) t.per_conn 0

let is_empty t = length t = 0

let drops t =
  match t.pol with
  | Fifo -> t.fifo.drop_count
  | Round_robin ->
    Int_table.fold (fun _ lane acc -> acc + lane.drop_count) t.per_conn 0

let lane_clear lane =
  let n = lane_length lane in
  lane.front <- [];
  Queue.clear lane.back;
  n

let clear t =
  match t.pol with
  | Fifo -> lane_clear t.fifo
  | Round_robin ->
    Int_table.fold (fun _ lane acc -> acc + lane_clear lane) t.per_conn 0
