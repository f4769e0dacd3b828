let src = Logs.Src.create "wtcp.sim" ~doc:"Wireless-TCP simulator"

module Log = (val Logs.src_log src : Logs.LOG)

let set_level level =
  Logs.Src.set_level src level;
  if Logs.reporter () == Logs.nop_reporter then
    Logs.set_reporter (Logs.format_reporter ())

let rank = function
  | Logs.App -> 0
  | Logs.Error -> 1
  | Logs.Warning -> 2
  | Logs.Info -> 3
  | Logs.Debug -> 4

(* The source's level is [None] unless logging was switched on, so the
   disabled answer is one load and one branch. *)
let enabled level =
  match Logs.Src.level src with
  | None -> false
  | Some threshold -> rank level <= rank threshold

(* Logs drops a disabled message, but only after the format has run:
   callers guard with [enabled]. *)
let stamped level sim fmt =
  Format.kasprintf
    (fun s ->
      Logs.msg ~src level (fun m ->
          m "[%a] %s" Simtime.pp (Simulator.now sim) s))
    fmt

let debug sim fmt = stamped Logs.Debug sim fmt
let info sim fmt = stamped Logs.Info sim fmt
