(* Reno (RFC 2581) and NewReno (RFC 3782), which differ only in what a
   partial ack does during fast recovery: Reno deflates and leaves,
   NewReno retransmits the next hole, partially deflates and stays in
   until the whole pre-loss window ([recover]) is acknowledged. *)

let enter_recovery (host : Cc.host) =
  let st = host.Cc.state in
  let cfg = host.Cc.cfg in
  host.Cc.stats.Tcp_stats.fast_retransmits <-
    host.Cc.stats.Tcp_stats.fast_retransmits + 1;
  Cc.set_loss_threshold host;
  st.Cc.recover <- host.Cc.max_sent ();
  st.Cc.in_recovery <- true;
  st.Cc.recovery_entries <- st.Cc.recovery_entries + 1;
  host.Cc.clear_timing ();
  let una = host.Cc.snd_una () in
  let len = Int.min cfg.Tcp_config.mss (host.Cc.total - una) in
  host.Cc.emit_segment ~seq:una ~len;
  (* Inflate by the segments the duplicate acks proved have left the
     network (RFC 2581 §3.2 step 2). *)
  st.Cc.cwnd <-
    float_of_int
      (st.Cc.ssthresh + (cfg.Tcp_config.dupack_threshold * cfg.Tcp_config.mss));
  host.Cc.arm_rto ()

let make ~newreno (host : Cc.host) =
  let st = host.Cc.state in
  let cfg = host.Cc.cfg in
  let mss = cfg.Tcp_config.mss in
  Cc.
    {
      kind = (if newreno then Tcp_config.Newreno else Tcp_config.Reno);
      uses_scoreboard = false;
      on_new_ack =
        (fun ~ack ->
          if st.in_recovery then
            if newreno && ack < st.recover then begin
              (* Partial ack: the first segment past [ack] was lost
                 too.  Retransmit it, deflate by the amount acked (plus
                 one segment back if a full segment left the pipe), and
                 stay in recovery; the shell re-arms the timer after
                 every new ack. *)
              let acked = ack - host.snd_una () in
              let len = Int.min mss (host.total - ack) in
              if len > 0 then host.emit_segment ~seq:ack ~len;
              st.cwnd <- st.cwnd -. float_of_int acked;
              if acked >= mss then st.cwnd <- st.cwnd +. float_of_int mss;
              if st.cwnd < float_of_int mss then st.cwnd <- float_of_int mss
            end
            else begin
              (* Recovery complete: deflate to ssthresh. *)
              st.in_recovery <- false;
              st.cwnd <- float_of_int st.ssthresh
            end
          else grow_cwnd host);
      on_dupack =
        (fun ~ack:_ ->
          if st.in_recovery then begin
            (* Window inflation: each duplicate ack signals a departure. *)
            st.cwnd <- st.cwnd +. float_of_int mss;
            host.send_window ()
          end
          else if
            st.dupacks = cfg.Tcp_config.dupack_threshold
            && host.snd_una () > st.recover
          then enter_recovery host);
      on_timeout = (fun () -> collapse host);
      on_rtt_sample = (fun ~rtt_ticks:_ ~rtt_ns:_ -> ());
      diag = (fun () -> []);
    }
