(* The behavioural contract: the fig7 and fig10 CSVs at reps=3 digest
   to pinned MD5s, at jobs=1 and at jobs=2.  Neither installing the
   empty fault plan as the process default nor running under the
   runtime invariant checkers moves a digest, while an engine change
   that reorders a single event pop (ties break by insertion order) or
   perturbs a single random draw does.

   Each case computes its figure once; nothing is shared between
   cases, so a failure names exactly one figure, mode and job count. *)

open Core

let fig7_md5 = "5964875618a07db07de4f4b01357197f"
let fig10_md5 = "6a785698082a6381fa59aac6710439b5"
let digest csv = Digest.to_hex (Digest.string csv)

let fig7 ~jobs =
  digest (Wan_sweep.to_csv (Fig7.compute ~replications:3 ~jobs ()))

let fig10 ~jobs =
  let basic, ebsn = Fig10.compute ~replications:3 ~jobs () in
  digest (Lan_sweep.to_csv [ basic; ebsn ])

(* The default plan is read by every Wiring.run not given an explicit
   ~faults, on whichever domain runs it. *)
let with_empty_plan f =
  Fault_plan.set_default (Some Fault_plan.empty);
  Fun.protect ~finally:(fun () -> Fault_plan.set_default None) f

let with_checked f =
  Obs.Config.set_default Obs.Config.checked;
  Fun.protect ~finally:(fun () -> Obs.Config.set_default Obs.Config.off) f

let case name ~want compute =
  Alcotest.test_case name `Slow (fun () ->
      Alcotest.(check string) name want (compute ()))

let () =
  Alcotest.run "golden"
    [
      ( "fig7",
        [
          case "jobs=1" ~want:fig7_md5 (fun () -> fig7 ~jobs:1);
          case "jobs=2" ~want:fig7_md5 (fun () -> fig7 ~jobs:2);
        ] );
      ( "fig10",
        [
          case "jobs=1" ~want:fig10_md5 (fun () -> fig10 ~jobs:1);
          case "jobs=2" ~want:fig10_md5 (fun () -> fig10 ~jobs:2);
        ] );
      ( "fig7 empty fault plan",
        [
          case "jobs=1" ~want:fig7_md5 (fun () ->
              with_empty_plan (fun () -> fig7 ~jobs:1));
          case "jobs=2" ~want:fig7_md5 (fun () ->
              with_empty_plan (fun () -> fig7 ~jobs:2));
        ] );
      ( "checked",
        [
          case "fig7 jobs=2" ~want:fig7_md5 (fun () ->
              with_checked (fun () -> fig7 ~jobs:2));
          case "fig10 jobs=2" ~want:fig10_md5 (fun () ->
              with_checked (fun () -> fig10 ~jobs:2));
        ] );
    ]
