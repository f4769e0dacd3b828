(* Pending-event set: a struct-of-arrays 4-ary min-heap with lazy
   deletion, amortised compaction and a recycled payload pool.

   The simulator's hot loop is add/pop/cancel: timers are armed and
   cancelled on every ACK and every frame, so the design optimises the
   sift comparisons and the cancel-heavy steady state.  Pop order is
   the unique total order (time, then insertion number); the qcheck
   model tests in test/ assert it against a sorted-list reference.

   Layout.  Three parallel int arrays — [times] (ns), [orders]
   (insertion number, the tie-break) and [ids] (packed pool-slot
   handle) — so the sift loops compare and move unboxed integers only:
   no pointer chasing into entry records, no write barrier
   ([caml_modify]) on the moves.  A 4-ary shape halves the tree depth
   of the binary version.  Payloads live in a side pool ([values])
   indexed by slot, touched only on add and on a live pop, never
   during sifts.

   Handles and the free pool.  [add] hands out an int handle packing
   (generation lsl slot_bits) lor slot.  Freeing a slot (on cancel or
   on a live pop) bumps its generation, so stale handles — and stale
   nodes pointing at a recycled slot — are recognised in O(1) by a
   generation mismatch.  Freed slots go on a LIFO free list and are
   reused by the next add, so steady-state scheduling allocates
   nothing on the minor heap: no entry records, no handle boxes.

   Deletion.  [cancel] is O(1): it frees the slot (killing the node by
   generation mismatch) and leaves the node in place.  Dead nodes are
   dropped when they surface at the root, and swept wholesale by
   [compact] whenever live entries fall below half the occupancy — so
   occupancy is bounded by O(live entries), not O(total adds), even
   when almost every timer is cancelled (an RTO re-armed per ACK). *)

let slot_bits = 25
let slot_mask = (1 lsl slot_bits) - 1
let max_slots = 1 lsl slot_bits

type handle = int

(* Slot [slot_mask] paired with an unreachable generation ([-1] lsr
   slot_bits = 2^38-1): [cancel] and [is_live] reject it through their
   normal guards, so it needs no special-casing anywhere. *)
let null = -1

type stats = {
  adds : int;
  pops : int;
  cancels : int;
  max_size : int;
  dead_drops : int;
  compactions : int;
  recycled : int;
  near_adds : int;
  near_pops : int;
}

type 'a t = {
  (* Heap: parallel arrays, nodes 0..size-1, dead nodes included. *)
  mutable times : int array;
  mutable orders : int array;
  mutable ids : int array;
  mutable size : int;
  mutable next_order : int;
  mutable live_count : int;
  (* Payload pool, indexed by slot. *)
  mutable values : 'a array;
  mutable gens : int array;
  mutable free_next : int array;
  mutable pool_len : int;  (* slots ever handed out *)
  mutable free_head : int;  (* LIFO free list, -1 when empty *)
  mutable filler : 'a array;  (* length 1 after the first add *)
  (* Lifetime counters. *)
  mutable adds : int;
  mutable pops : int;
  mutable cancels : int;
  mutable max_size : int;
  mutable dead_drops : int;
  mutable compactions : int;
  mutable recycled : int;
}

let create () =
  {
    times = [||];
    orders = [||];
    ids = [||];
    size = 0;
    next_order = 0;
    live_count = 0;
    values = [||];
    gens = [||];
    free_next = [||];
    pool_len = 0;
    free_head = -1;
    filler = [||];
    adds = 0;
    pops = 0;
    cancels = 0;
    max_size = 0;
    dead_drops = 0;
    compactions = 0;
    recycled = 0;
  }

let stats t =
  {
    adds = t.adds;
    pops = t.pops;
    cancels = t.cancels;
    max_size = t.max_size;
    dead_drops = t.dead_drops;
    compactions = t.compactions;
    recycled = t.recycled;
    near_adds = 0;
    near_pops = 0;
  }

let length t = t.live_count
let is_empty t = t.live_count = 0
let occupancy t = t.size

(* A node (or a handle) is live iff its packed generation still
   matches the pool's: freeing a slot bumps the generation, which
   kills every outstanding reference to the old tenancy at once. *)
let node_live t id = t.gens.(id land slot_mask) = id lsr slot_bits

(* [a]'s first [len] elements in a fresh array of [capacity]. *)
let resize a len capacity fill =
  let a' = Array.make capacity fill in
  Array.blit a 0 a' 0 len;
  a'

(* ------------------------------------------------------------------ *)
(* Payload pool                                                        *)
(* ------------------------------------------------------------------ *)

let alloc_slot t value =
  let s = t.free_head in
  if s >= 0 then begin
    t.free_head <- t.free_next.(s);
    t.values.(s) <- value;
    t.recycled <- t.recycled + 1;
    s
  end
  else begin
    let capacity = Array.length t.gens in
    if t.pool_len = capacity then begin
      if capacity >= max_slots then
        failwith "Event_queue: more than 2^25 concurrently pending events";
      let capacity' = Int.min max_slots (Int.max 16 (2 * capacity)) in
      t.values <- resize t.values t.pool_len capacity' value;
      t.gens <- resize t.gens t.pool_len capacity' 0;
      t.free_next <- resize t.free_next t.pool_len capacity' 0
    end;
    let s = t.pool_len in
    t.pool_len <- s + 1;
    t.values.(s) <- value;
    s
  end

let free_slot t s =
  t.gens.(s) <- t.gens.(s) + 1;
  (* Drop the payload reference so a cancelled closure is collectable
     before the slot is next reused. *)
  t.values.(s) <- t.filler.(0);
  t.free_next.(s) <- t.free_head;
  t.free_head <- s

(* ------------------------------------------------------------------ *)
(* Heap sifts                                                          *)
(* ------------------------------------------------------------------ *)

(* Both sifts use hole insertion: the moving key is held in registers
   while displaced nodes slide into the hole (three int writes each),
   and the held key is written once at its final position.  Indices
   stay within [0, t.size), so the unsafe accesses are in bounds; the
   model tests in test/ drive every path. *)

let sift_up t i time order id =
  let times = t.times and orders = t.orders and ids = t.ids in
  let i = ref i in
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) lsr 2 in
    let pt = Array.unsafe_get times p in
    if
      pt > time || (pt = time && Array.unsafe_get orders p > order)
    then begin
      Array.unsafe_set times !i pt;
      Array.unsafe_set orders !i (Array.unsafe_get orders p);
      Array.unsafe_set ids !i (Array.unsafe_get ids p);
      i := p
    end
    else moving := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set orders !i order;
  Array.unsafe_set ids !i id

let sift_down t i time order id =
  let times = t.times and orders = t.orders and ids = t.ids in
  let size = t.size in
  let i = ref i in
  let moving = ref true in
  while !moving do
    let c = (!i lsl 2) + 1 in
    if c >= size then moving := false
    else begin
      (* Smallest of the up-to-four children. *)
      let last = Int.min (c + 3) (size - 1) in
      let m = ref c in
      let mt = ref (Array.unsafe_get times c) in
      let mo = ref (Array.unsafe_get orders c) in
      for k = c + 1 to last do
        let kt = Array.unsafe_get times k in
        if kt < !mt || (kt = !mt && Array.unsafe_get orders k < !mo) then begin
          m := k;
          mt := kt;
          mo := Array.unsafe_get orders k
        end
      done;
      if !mt < time || (!mt = time && !mo < order) then begin
        Array.unsafe_set times !i !mt;
        Array.unsafe_set orders !i !mo;
        Array.unsafe_set ids !i (Array.unsafe_get ids !m);
        i := !m
      end
      else moving := false
    end
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set orders !i order;
  Array.unsafe_set ids !i id

(* ------------------------------------------------------------------ *)
(* Maintenance                                                         *)
(* ------------------------------------------------------------------ *)

let grow_heap t =
  let capacity = Array.length t.times in
  if t.size = capacity then begin
    let capacity' = Int.max 16 (2 * capacity) in
    t.times <- resize t.times t.size capacity' 0;
    t.orders <- resize t.orders t.size capacity' 0;
    t.ids <- resize t.ids t.size capacity' 0
  end

(* Remove the root node (live or dead), restoring the heap shape. *)
let remove_root t =
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then sift_down t 0 t.times.(n) t.orders.(n) t.ids.(n)

(* Drop every dead node and re-heapify in place.  Any correct heap over
   the same live set pops in the same (total) order, so compaction is
   invisible to callers. *)
let compact t =
  let times = t.times and orders = t.orders and ids = t.ids in
  let j = ref 0 in
  for i = 0 to t.size - 1 do
    let id = Array.unsafe_get ids i in
    if node_live t id then begin
      Array.unsafe_set times !j (Array.unsafe_get times i);
      Array.unsafe_set orders !j (Array.unsafe_get orders i);
      Array.unsafe_set ids !j id;
      incr j
    end
  done;
  t.dead_drops <- t.dead_drops + (t.size - !j);
  t.size <- !j;
  for k = (!j - 2) asr 2 downto 0 do
    sift_down t k times.(k) orders.(k) ids.(k)
  done;
  t.compactions <- t.compactions + 1

(* Below this occupancy the heap is never swept.  It sits near the live
   set of a real cell (a WAN cell holds ~6 live events at a pop): a
   higher floor lets cancelled far-future timers, which never surface
   at the root, pad the heap that every sift walks. *)
let compact_min = 8

let maybe_compact t =
  if t.size >= compact_min && 2 * t.live_count < t.size then compact t

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

let add t ~time value =
  let s = alloc_slot t value in
  if Array.length t.filler = 0 then t.filler <- [| value |];
  let id = (t.gens.(s) lsl slot_bits) lor s in
  let order = t.next_order in
  t.next_order <- order + 1;
  t.live_count <- t.live_count + 1;
  t.adds <- t.adds + 1;
  grow_heap t;
  let i = t.size in
  t.size <- i + 1;
  sift_up t i (Simtime.to_ns time) order id;
  if t.size > t.max_size then t.max_size <- t.size;
  (* An add onto a queue that is mostly dead nodes must not push
     occupancy past the documented bound either. *)
  maybe_compact t;
  id

let is_live t h =
  let s = h land slot_mask in
  s < t.pool_len && t.gens.(s) = h lsr slot_bits

let cancel t h =
  if is_live t h then begin
    free_slot t (h land slot_mask);
    t.live_count <- t.live_count - 1;
    t.cancels <- t.cancels + 1;
    maybe_compact t
  end

(* Drop dead roots (counted in [dead_drops]), leaving the earliest live
   event, if any, at the root. *)
let next_time_ns t =
  while t.size > 0 && not (node_live t t.ids.(0)) do
    remove_root t;
    t.dead_drops <- t.dead_drops + 1
  done;
  if t.size > 0 then t.times.(0) else min_int

(* Remove the live root and return its payload.  Must follow a
   [next_time_ns] that found a live event. *)
let take_root t =
  let s = t.ids.(0) land slot_mask in
  remove_root t;
  let value = t.values.(s) in
  free_slot t s;
  t.live_count <- t.live_count - 1;
  t.pops <- t.pops + 1;
  (* Pops shrink the live set without touching buried dead nodes, so
     the occupancy bound needs the compaction check here too, not just
     in [cancel]. *)
  maybe_compact t;
  value

let take_exn t =
  if next_time_ns t = min_int then
    invalid_arg "Event_queue.take_exn: queue is empty"
  else take_root t

let pop t =
  let tn = next_time_ns t in
  if tn = min_int then None else Some (Simtime.of_ns tn, take_root t)

let peek_time t =
  let tn = next_time_ns t in
  if tn = min_int then None else Some (Simtime.of_ns tn)
