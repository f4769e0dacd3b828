type 'a t = {
  mutable capacity : int;
  items : 'a Queue.t;
  mutable drop_count : int;
  mutable peak : int;
}

let create ~capacity () =
  if capacity <= 0 then invalid_arg "Queue_drop_tail.create: capacity <= 0";
  { capacity; items = Queue.create (); drop_count = 0; peak = 0 }

let capacity t = t.capacity

let set_capacity t capacity =
  if capacity <= 0 then invalid_arg "Queue_drop_tail.set_capacity: capacity <= 0";
  t.capacity <- capacity
let length t = Queue.length t.items
let is_empty t = Queue.is_empty t.items

let enqueue t x =
  if Queue.length t.items >= t.capacity then begin
    t.drop_count <- t.drop_count + 1;
    false
  end
  else begin
    Queue.add x t.items;
    t.peak <- Int.max t.peak (Queue.length t.items);
    true
  end

let dequeue t = Queue.take_opt t.items
let peek t = Queue.peek_opt t.items
let drops t = t.drop_count
let peak_length t = t.peak
let clear t = Queue.clear t.items
let iter f t = Queue.iter f t.items

let filter_in_place keep t =
  let kept = Queue.create () in
  let removed = ref 0 in
  Queue.iter (fun x -> if keep x then Queue.add x kept else incr removed) t.items;
  Queue.clear t.items;
  Queue.transfer kept t.items;
  !removed
