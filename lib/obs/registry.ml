type counter = { c_live : bool; c_name : string; mutable count : int }
type gauge = { g_live : bool; g_name : string; mutable value : float }

type histogram = {
  h_live : bool;
  h_name : string;
  mutable n : int;
  mutable sum : float;
  mutable h_min : float;
  mutable h_max : float;
  buckets : int array;  (* indexed by binary exponent + exponent_bias *)
}

type t = {
  live : bool;
  mutable counters : counter list;  (* registration order; rendered sorted *)
  mutable gauges : gauge list;
  mutable histograms : histogram list;
}

let create () = { live = true; counters = []; gauges = []; histograms = [] }
let disabled = { live = false; counters = []; gauges = []; histograms = [] }
let enabled t = t.live

(* Buckets cover 2^-32 .. 2^31; everything outside clamps to the end
   buckets, and non-positive samples land in bucket 0. *)
let exponent_bias = 32
let bucket_count = 64

let bucket_of v =
  if v <= 0.0 then 0
  else
    let _, e = Float.frexp v in
    Int.max 0 (Int.min (bucket_count - 1) (e + exponent_bias))

let counter t name =
  if not t.live then { c_live = false; c_name = name; count = 0 }
  else
    match List.find_opt (fun c -> c.c_name = name) t.counters with
    | Some c -> c
    | None ->
      let c = { c_live = true; c_name = name; count = 0 } in
      t.counters <- c :: t.counters;
      c

let gauge t name =
  if not t.live then { g_live = false; g_name = name; value = 0.0 }
  else
    match List.find_opt (fun g -> g.g_name = name) t.gauges with
    | Some g -> g
    | None ->
      let g = { g_live = true; g_name = name; value = 0.0 } in
      t.gauges <- g :: t.gauges;
      g

let histogram t name =
  if not t.live then
    {
      h_live = false;
      h_name = name;
      n = 0;
      sum = 0.0;
      h_min = 0.0;
      h_max = 0.0;
      buckets = [||];
    }
  else
    match List.find_opt (fun h -> h.h_name = name) t.histograms with
    | Some h -> h
    | None ->
      let h =
        {
          h_live = true;
          h_name = name;
          n = 0;
          sum = 0.0;
          h_min = Float.infinity;
          h_max = Float.neg_infinity;
          buckets = Array.make bucket_count 0;
        }
      in
      t.histograms <- h :: t.histograms;
      h

let[@inline] incr c = if c.c_live then c.count <- c.count + 1
let[@inline] add c n = if c.c_live then c.count <- c.count + n
let[@inline] set g v = if g.g_live then g.value <- v

let[@inline] observe h v =
  if h.h_live then begin
    h.n <- h.n + 1;
    h.sum <- h.sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    let b = bucket_of v in
    h.buckets.(b) <- h.buckets.(b) + 1
  end

let to_jsonl t =
  if not t.live then ""
  else begin
    let open Jsonl in
    let lines = ref [] in
    List.iter
      (fun c ->
        lines :=
          ( c.c_name,
            line
              [
                ("metric", Str c.c_name);
                ("type", Str "counter");
                ("value", Int c.count);
              ] )
          :: !lines)
      t.counters;
    List.iter
      (fun g ->
        lines :=
          ( g.g_name,
            line
              [
                ("metric", Str g.g_name);
                ("type", Str "gauge");
                ("value", Float g.value);
              ] )
          :: !lines)
      t.gauges;
    List.iter
      (fun h ->
        let base =
          [
            ("metric", Str h.h_name);
            ("type", Str "histogram");
            ("count", Int h.n);
            ("sum", Float h.sum);
          ]
        in
        let extremes =
          if h.n = 0 then []
          else [ ("min", Float h.h_min); ("max", Float h.h_max) ]
        in
        let buckets = ref [] in
        for b = bucket_count - 1 downto 0 do
          if h.buckets.(b) > 0 then
            buckets :=
              (Printf.sprintf "b%d" (b - exponent_bias), Int h.buckets.(b))
              :: !buckets
        done;
        lines := (h.h_name, line (base @ extremes @ !buckets)) :: !lines)
      t.histograms;
    !lines
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map snd
    |> String.concat ""
  end
