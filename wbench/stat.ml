(* Clocks, order statistics, process memory, the host stamp and a
   small JSON writer: everything a benchmark record is made of. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, secs_since t0)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> Float.nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartile by the "exclusive" method, as Python's
   [statistics.quantiles(xs, n=4)] computes them, so that a record's
   spread reads the same as the one the acceptance check computes. *)
let quartiles xs =
  match sorted xs with
  | [] -> (Float.nan, Float.nan)
  | [ x ] -> (x, x)
  | s ->
    let a = Array.of_list s in
    let ld = Array.length a in
    let m = ld + 1 in
    let q i =
      let j = Stdlib.max 1 (Stdlib.min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

(* The value the [p]-quantile sample sits at (nearest rank). *)
let percentile p xs =
  match sorted xs with
  | [] -> Float.nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    a.(Stdlib.max 0 (Stdlib.min (n - 1) k))

let ratio a b = if b = 0.0 then 0.0 else a /. b

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []

(* "Key:   value" field of a /proc status file. *)
let proc_field path key =
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.sub l 0 i = key ->
        Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
      | _ -> None)
    (read_lines path)

(* Peak resident set of this process, MiB. *)
let peak_rss_mb () =
  match proc_field "/proc/self/status" "VmHWM" with
  | Some v -> (
    match String.split_on_char ' ' v with
    | kb :: _ -> (
      match float_of_string_opt kb with Some k -> k /. 1024.0 | None -> 0.0)
    | [] -> 0.0)
  | None -> 0.0

(* CPUs this process may run on ("0-1,4" → 3), as nproc reports. *)
let nproc () =
  let count_range r =
    match String.split_on_char '-' r with
    | [ a ] -> Option.fold ~none:0 ~some:(fun _ -> 1) (int_of_string_opt a)
    | [ a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b -> b - a + 1
      | _ -> 0)
    | _ -> 0
  in
  match proc_field "/proc/self/status" "Cpus_allowed_list" with
  | Some l ->
    List.fold_left (fun acc r -> acc + count_range r) 0
      (String.split_on_char ',' l)
  | None -> Domain.recommended_domain_count ()

(* The commit a checkout was made from, when it is a git work tree. *)
let commit () =
  let first path = match read_lines path with l :: _ -> Some l | [] -> None in
  match first ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " ->
    let r = String.sub head 5 (String.length head - 5) in
    let packed =
      List.find_map
        (fun l ->
          match String.split_on_char ' ' l with
          | [ sha; name ] when name = r -> Some sha
          | _ -> None)
        (read_lines ".git/packed-refs")
    in
    Option.value ~default:"unknown"
      (match first (Filename.concat ".git" r) with
      | Some sha -> Some sha
      | None -> packed)
  | Some sha -> sha
  | None -> "unknown"

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Obj of (string * json) list
  | Arr of json list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Floats keep every digit (%.17g); non-finite values have no JSON
   spelling and become null. *)
let rec to_string = function
  | Num f when Float.is_finite f ->
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Int i -> string_of_int i
  | Str s -> "\"" ^ escape s ^ "\""
  | Bool b -> string_of_bool b
  | Obj kvs ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kvs)
    ^ "}"
  | Arr xs -> "[" ^ String.concat ", " (List.map to_string xs) ^ "]"

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())

let write_file path contents =
  mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* ------------------------------------------------------------------ *)
(* What a run reports                                                  *)
(* ------------------------------------------------------------------ *)

(* A metric's reported value is the median of its samples. *)
type metric = { name : string; unit_ : string; samples : float list }

let metric name unit_ samples = { name; unit_; samples }
let value m = median m.samples
let single name unit_ v = metric name unit_ [ v ]

type run = {
  metrics : metric list;
  attempted : int;  (** cells attempted over every phase *)
  failed : int;  (** cells that raised, failed a check or were quarantined *)
  checks : (string * bool) list;  (** output checks, by name *)
  notes : string list;  (** informational lines (paper-accuracy sidecar) *)
  passes : int;  (** timed passes the metrics summarise *)
}

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* The host this benchmark runs on shares its cores with other
   machines, and its speed drifts by up to ~1.5x over minutes.  A fixed
   reference kernel, which uses no code of the repository, is timed
   around every timed phase; end-to-end rates and times are scaled to
   the speed at which it takes [reference_s] (its time on an idle
   2-core Xeon host), so that a drift shows in neither.  A change to
   the program moves the scaled figures as it moves the raw ones. *)
let reference_s = 0.0155

(* Hashing, allocation and short lists, as in the simulator's inner
   loop, so host contention slows both alike. *)
let kernel () =
  let h = Hashtbl.create 4096 in
  let acc = ref 0 in
  for i = 0 to 200_000 do
    let k = (i * 7919) land 4095 in
    (match Hashtbl.find_opt h k with Some v -> acc := !acc + v | None -> ());
    Hashtbl.replace h k (i land 255);
    acc := !acc + List.fold_left ( + ) 0 (List.init 4 (fun j -> j + i))
  done;
  !acc

(* Best of three kernel times, over the reference: above 1 when the
   host runs slower than the reference speed. *)
let host_factor () =
  List.fold_left Float.min Float.infinity
    (List.init 3 (fun _ -> snd (timed kernel)))
  /. reference_s
