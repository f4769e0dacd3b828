(* RFC 2018/6675, simplified: enter recovery like Reno, but drive
   retransmission from the receiver's scoreboard — one hole filled per
   arriving ack, new data only once the scoreboard shows no hole. *)

let make (host : Cc.host) =
  let st = host.Cc.state in
  let cfg = host.Cc.cfg in
  let mss = cfg.Tcp_config.mss in
  Cc.
    {
      kind = Tcp_config.Sack;
      uses_scoreboard = true;
      on_new_ack =
        (fun ~ack ->
          if st.in_recovery then
            if ack < st.recover then begin
              (* Partial ack: keep recovering, fill the next hole.  The
                 cumulative point must advance before the hole scan so
                 the scan starts above it. *)
              host.set_snd_una ack;
              host.prune_scoreboard ~ack;
              ignore (host.retransmit_hole ())
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
            (* One hole retransmission per arriving ack; new data once
               the scoreboard is clean. *)
            if not (host.retransmit_hole ()) then begin
              st.cwnd <- st.cwnd +. float_of_int mss;
              host.send_window ()
            end
          end
          else if
            st.dupacks = cfg.Tcp_config.dupack_threshold
            && host.snd_una () > st.recover
          then begin
            host.stats.Tcp_stats.fast_retransmits <-
              host.stats.Tcp_stats.fast_retransmits + 1;
            set_loss_threshold host;
            st.recover <- host.max_sent ();
            st.in_recovery <- true;
            st.recovery_entries <- st.recovery_entries + 1;
            host.clear_timing ();
            host.set_hole_cursor (host.snd_una ());
            st.cwnd <- float_of_int st.ssthresh;
            if not (host.retransmit_hole ()) then begin
              let una = host.snd_una () in
              let len = Int.min mss (host.total - una) in
              host.emit_segment ~seq:una ~len
            end;
            host.arm_rto ()
          end);
      on_timeout = (fun () -> collapse host);
      on_rtt_sample = (fun ~rtt_ticks:_ ~rtt_ns:_ -> ());
      diag = (fun () -> []);
    }
