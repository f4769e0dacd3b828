(* The repository benchmark.

     main.exe --workload wan-sweep|lan-cc|campaign --seed N --seconds S
              --trace 0|1

   With --trace 0 it measures the end-to-end metrics (tracing off);
   with --trace 1 it runs the same workload traced and reports the
   per-layer metrics.  Either way it checks the simulated outputs,
   prints a table, writes a host-stamped record and spans under
   _wbench/, and ends with one JSON line:

     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

   It exits 1 when an output check fails and 2 on bad arguments. *)

let usage =
  "usage: main.exe --workload wan-sweep|lan-cc|campaign --seed N --seconds S \
   --trace 0|1"

let bad_args msg =
  prerr_endline ("wbench: " ^ msg);
  prerr_endline usage;
  exit 2

let parse argv =
  let rec go acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | a :: _ -> bad_args ("unexpected argument " ^ a)
  in
  let kvs = go [] (List.tl (Array.to_list argv)) in
  List.iter
    (fun (k, _) ->
      if not (List.mem k [ "workload"; "seed"; "seconds"; "trace" ]) then
        bad_args ("unknown option --" ^ k))
    kvs;
  let int k ~default ~ok =
    match List.assoc_opt k kvs with
    | None -> default
    | Some v -> (
      match int_of_string_opt v with
      | Some n when ok n -> n
      | _ -> bad_args (Printf.sprintf "bad --%s %s" k v))
  in
  let workload =
    match List.assoc_opt "workload" kvs with
    | None -> bad_args "missing --workload"
    | Some n -> (
      match Workload.of_name n with
      | Some w -> w
      | None -> bad_args ("unknown workload " ^ n))
  in
  ( workload,
    int "seed" ~default:Workload.default_seed ~ok:(fun n -> n >= 0),
    int "seconds" ~default:10 ~ok:(fun n -> n >= 1),
    int "trace" ~default:0 ~ok:(fun n -> n = 0 || n = 1) = 1 )

let host_stamp ~w ~seed ~seconds ~trace (r : Stat.run) =
  Stat.Obj
    [
      ("workload", Str (Workload.name w));
      ("trace", Bool trace);
      ("commit", Str (Stat.commit ()));
      ("ocaml_version", Str Sys.ocaml_version);
      ("nproc", Int (Stat.nproc ()));
      ("recommended_domain_count", Int (Domain.recommended_domain_count ()));
      ("seed", Int seed);
      ("seconds", Int seconds);
      ("passes", Int r.passes);
    ]

let record ~w ~seed ~seconds ~trace (r : Stat.run) =
  let metric (m : Stat.metric) =
    let q1, q3 = Stat.quartiles m.samples in
    ( m.name,
      Stat.Obj
        [
          ("unit", Str m.unit_);
          ("median", Num (Stat.value m));
          ("q1", Num q1);
          ("q3", Num q3);
          ("samples", Int (List.length m.samples));
        ] )
  in
  Stat.Obj
    [
      ("host", host_stamp ~w ~seed ~seconds ~trace r);
      ("correct", Bool (List.for_all snd r.checks));
      ("attempted", Int r.attempted);
      ("failed", Int r.failed);
      ("fail_ratio", Num (Stat.ratio (float_of_int r.failed) (float_of_int r.attempted)));
      ("checks", Obj (List.map (fun (n, ok) -> (n, Stat.Bool ok)) r.checks));
      ("notes", Arr (List.map (fun s -> Stat.Str s) r.notes));
      ("metrics", Obj (List.map metric r.metrics));
    ]

let print_table ~w ~trace (r : Stat.run) =
  Printf.printf "%s (%s), %d passes\n" (Workload.name w)
    (if trace then "traced" else "end to end")
    r.passes;
  List.iter
    (fun (m : Stat.metric) ->
      let q1, q3 = Stat.quartiles m.samples in
      Printf.printf "  %-44s %14.6g %-8s q1 %.6g  q3 %.6g  n=%d\n" m.name
        (Stat.value m) m.unit_ q1 q3 (List.length m.samples))
    r.metrics;
  Printf.printf "  %-44s %14.6g share (%d of %d cells)\n" "fail_ratio"
    (Stat.ratio (float_of_int r.failed) (float_of_int r.attempted))
    r.failed r.attempted;
  List.iter
    (fun (n, ok) -> Printf.printf "  check %-38s %s\n" n (if ok then "ok" else "FAILED"))
    r.checks;
  List.iter (fun s -> Printf.printf "  %s\n" s) r.notes

let () =
  let w, seed, seconds, trace = parse Sys.argv in
  let seconds_f = float_of_int seconds in
  let r =
    if trace then Layers.run w ~seed ~seconds:seconds_f
    else E2e.run w ~seed ~seconds:seconds_f
  in
  let correct = List.for_all snd r.checks in
  print_table ~w ~trace r;
  Stat.write_file
    (Filename.concat E2e.out_dir
       (Printf.sprintf "record-%s-trace%d.json" (Workload.name w)
          (if trace then 1 else 0)))
    (Stat.to_string (record ~w ~seed ~seconds ~trace r) ^ "\n");
  print_endline
    (Stat.to_string
       (Stat.Obj
          [
            ("correct", Bool correct);
            ("attempted", Int r.attempted);
            ("failed", Int r.failed);
            ( "metrics",
              Obj
                (List.map
                   (fun (m : Stat.metric) ->
                     ( m.name,
                       Stat.Obj [ ("value", Num (Stat.value m)); ("unit", Str m.unit_) ] ))
                   r.metrics) );
          ]));
  exit (if correct then 0 else 1)
