(* Tests for the snapshot protocol core: wraparound arithmetic, the
   idealized Figure-3 unit, the hardware-constrained Speedlight unit
   (including a differential property test against the idealized spec),
   the Fig-7 control-plane tracker, and the observer. *)

open Speedlight_sim
open Speedlight_dataplane
open Speedlight_core

let check_float eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Wrap *)

let test_wrap_basics () =
  Alcotest.(check int) "modulus" 8 (Wrap.modulus ~max_sid:7);
  Alcotest.(check int) "wrap" 2 (Wrap.wrap ~max_sid:7 10);
  Alcotest.(check int) "wrap negative" 6 (Wrap.wrap ~max_sid:7 (-2));
  Alcotest.(check int) "fwd distance" 3 (Wrap.forward_distance ~max_sid:7 ~from_:6 ~to_:1);
  Alcotest.(check int) "max skew" 3 (Wrap.max_skew ~max_sid:7)

let test_wrap_compare () =
  let cmp = Wrap.compare_ids ~max_sid:7 in
  Alcotest.(check bool) "equal" true (cmp 3 3 = Wrap.Equal);
  Alcotest.(check bool) "newer simple" true (cmp 4 3 = Wrap.Newer);
  Alcotest.(check bool) "older simple" true (cmp 2 3 = Wrap.Older);
  (* Rollover: 1 is newer than 6 in a mod-8 space. *)
  Alcotest.(check bool) "newer across rollover" true (cmp 1 6 = Wrap.Newer);
  Alcotest.(check bool) "older across rollover" true (cmp 6 1 = Wrap.Older)

let test_wrap_compare_matches_ints =
  QCheck.Test.make ~name:"wrapped compare = integer compare within half window"
    ~count:2000
    QCheck.(triple (int_range 3 64) (int_range 0 10_000) (int_range (-10_000) 10_000))
    (fun (max_sid, a, delta) ->
      (* Constrain the pair within the soundness window. *)
      let skew = Wrap.max_skew ~max_sid in
      let b = Stdlib.max 0 (a + (delta mod (skew + 1))) in
      QCheck.assume (abs (a - b) <= skew);
      let wa = Wrap.wrap ~max_sid a and wb = Wrap.wrap ~max_sid b in
      let expected = if a = b then Wrap.Equal else if a > b then Wrap.Newer else Wrap.Older in
      Wrap.compare_ids ~max_sid wa wb = expected)

let test_wrap_unwrap_roundtrip =
  QCheck.Test.make ~name:"unwrap recovers true value within half window"
    ~count:2000
    QCheck.(triple (int_range 3 64) (int_range 0 100_000) (int_range (-100) 100))
    (fun (max_sid, reference, delta) ->
      let m = Wrap.modulus ~max_sid in
      let half = m / 2 in
      let delta = delta mod (half + 1) in
      let x = Stdlib.max 0 (reference + delta) in
      (* Only deltas inside the window are guaranteed exact. *)
      QCheck.assume (x - reference > -half && x - reference <= m - half);
      Wrap.unwrap ~max_sid ~reference (Wrap.wrap ~max_sid x) = x)

let test_wrap_unwrap_skew_window =
  (* The shipped moduli: the 2-bit unit-test variant, the 8-bit hardware
     register, and an odd modulus to catch even/odd half-window slips. *)
  QCheck.Test.make
    ~name:"unwrap (wrap x) = x whenever |x - reference| <= max_skew" ~count:3000
    QCheck.(
      triple (oneofl [ 3; 255; 256 ]) (int_range 0 1_000_000)
        (int_range (-130) 130))
    (fun (max_sid, reference, d) ->
      let skew = Wrap.max_skew ~max_sid in
      let delta = d mod (skew + 1) in
      let x = reference + delta in
      QCheck.assume (x >= 0);
      Wrap.unwrap ~max_sid ~reference (Wrap.wrap ~max_sid x) = x)

let test_unwrap_edges () =
  (* Reference at zero, w a full half-window behind: the in-window
     candidate is negative, and the unique non-negative congruent value is
     one lap forward. *)
  Alcotest.(check int) "fallback stays non-negative" 255
    (Wrap.unwrap ~max_sid:255 ~reference:0 255);
  Alcotest.(check int) "behind a small reference" 0
    (Wrap.unwrap ~max_sid:255 ~reference:1 0);
  Alcotest.(check int) "ahead across rollover" 257
    (Wrap.unwrap ~max_sid:255 ~reference:255 1);
  (* Odd modulus (max_sid = 256, m = 257). *)
  Alcotest.(check int) "odd modulus, ahead" 300
    (Wrap.unwrap ~max_sid:256 ~reference:280 (Wrap.wrap ~max_sid:256 300));
  Alcotest.(check int) "odd modulus, behind" 260
    (Wrap.unwrap ~max_sid:256 ~reference:280 (Wrap.wrap ~max_sid:256 260))

let test_wrap_rejects_small () =
  Alcotest.(check bool) "max_sid >= 3 enforced" true
    (try
       ignore (Wrap.modulus ~max_sid:2);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Ideal_unit (Figure 3) *)

let test_ideal_advance_saves_state () =
  let u = Ideal_unit.create ~n_neighbors:2 ~channel_state:true in
  Ideal_unit.set_state u 42.;
  let _ = Ideal_unit.on_receive u ~sender:0 ~pkt_sid:1 ~contribution:1. in
  Alcotest.(check int) "advanced" 1 (Ideal_unit.sid u);
  Alcotest.(check (option (float 1e-9))) "state captured" (Some 42.)
    (Ideal_unit.snapshot_value u ~sid:1)

let test_ideal_jump_fills_intermediates () =
  let u = Ideal_unit.create ~n_neighbors:2 ~channel_state:true in
  Ideal_unit.set_state u 7.;
  let _ = Ideal_unit.on_receive u ~sender:0 ~pkt_sid:3 ~contribution:1. in
  (* Fig. 3 line 4: every skipped snapshot gets the same state. *)
  List.iter
    (fun i ->
      Alcotest.(check (option (float 1e-9)))
        (Printf.sprintf "snap %d" i) (Some 7.)
        (Ideal_unit.snapshot_value u ~sid:i))
    [ 1; 2; 3 ]

let test_ideal_in_flight_channel_state () =
  let u = Ideal_unit.create ~n_neighbors:2 ~channel_state:true in
  let _ = Ideal_unit.on_receive u ~sender:0 ~pkt_sid:2 ~contribution:0. in
  (* An old packet from sender 1 straddles snapshots 1 and 2. *)
  let _ = Ideal_unit.on_receive u ~sender:1 ~pkt_sid:0 ~contribution:5. in
  check_float 1e-9 "snap1 channel" 5. (Ideal_unit.channel_state_of u ~sid:1);
  check_float 1e-9 "snap2 channel" 5. (Ideal_unit.channel_state_of u ~sid:2);
  check_float 1e-9 "snap3 untouched" 0. (Ideal_unit.channel_state_of u ~sid:3)

let test_ideal_finished_through () =
  let u = Ideal_unit.create ~n_neighbors:2 ~channel_state:true in
  let _ = Ideal_unit.on_receive u ~sender:0 ~pkt_sid:2 ~contribution:1. in
  Alcotest.(check int) "not finished until all seen" 0 (Ideal_unit.finished_through u);
  let _ = Ideal_unit.on_receive u ~sender:1 ~pkt_sid:2 ~contribution:1. in
  Alcotest.(check int) "finished" 2 (Ideal_unit.finished_through u)

let test_ideal_initiate_idempotent () =
  let u = Ideal_unit.create ~n_neighbors:1 ~channel_state:false in
  Ideal_unit.initiate u ~sid:2;
  Ideal_unit.initiate u ~sid:1;
  Ideal_unit.initiate u ~sid:2;
  Alcotest.(check int) "outdated initiations ignored" 2 (Ideal_unit.sid u)

(* ------------------------------------------------------------------ *)
(* Snapshot_unit *)

let mk_unit ?(cfg = Snapshot_unit.variant_channel_state) ?(n_neighbors = 3)
    ?counter () =
  let counter = match counter with Some c -> c | None -> Counter.packet_count () in
  let notifs = ref [] in
  let u =
    Snapshot_unit.create
      ~id:(Unit_id.ingress ~switch:0 ~port:0)
      ~cfg ~n_neighbors ~counter
      ~notify:(fun n -> notifs := n :: !notifs)
      ()
  in
  (u, notifs)

let mk_data_packet ~sid ~channel ~ghost uid =
  let p =
    Packet.create ~uid ~flow_id:1 ~src_host:0 ~dst_host:1 ~size:100 ~created:0 ()
  in
  Packet.set_snap p ~sid ~channel ~ghost_sid:ghost;
  p

let test_unit_initiation_advances () =
  let u, notifs = mk_unit () in
  Snapshot_unit.process_initiation u ~now:10 ~sid:1 ~ghost_sid:1;
  Alcotest.(check int) "sid" 1 (Snapshot_unit.current_sid u);
  Alcotest.(check int) "ghost" 1 (Snapshot_unit.current_ghost_sid u);
  Alcotest.(check int) "one notification" 1 (List.length !notifs);
  let n = List.hd !notifs in
  Alcotest.(check int) "former sid" 0 n.Notification.former_sid;
  Alcotest.(check int) "new sid" 1 n.Notification.new_sid;
  Alcotest.(check int) "dp time" 10 n.Notification.dp_time

let test_unit_duplicate_initiation_ignored () =
  let u, notifs = mk_unit () in
  Snapshot_unit.process_initiation u ~now:10 ~sid:1 ~ghost_sid:1;
  let before = List.length !notifs in
  Snapshot_unit.process_initiation u ~now:20 ~sid:1 ~ghost_sid:1;
  Alcotest.(check int) "sid unchanged" 1 (Snapshot_unit.current_sid u);
  Alcotest.(check int) "no new notification" before (List.length !notifs)

let test_unit_saved_value_excludes_trigger () =
  (* The packet that advances the ID is post-snapshot: the saved counter
     value must not include it. *)
  let u, _ = mk_unit () in
  for i = 0 to 4 do
    Snapshot_unit.process_packet u ~now:i (mk_data_packet ~sid:0 ~channel:1 ~ghost:0 i)
  done;
  Snapshot_unit.process_packet u ~now:5 (mk_data_packet ~sid:1 ~channel:1 ~ghost:1 5);
  let slot = Snapshot_unit.read_slot u ~ghost_sid:1 in
  Alcotest.(check (option (float 1e-9))) "value excludes trigger" (Some 5.)
    slot.Snapshot_unit.value

let test_unit_in_flight_goes_to_current_slot () =
  let u, _ = mk_unit () in
  Snapshot_unit.process_initiation u ~now:0 ~sid:1 ~ghost_sid:1;
  (* In-flight packet stamped 0 arrives after the snapshot. *)
  Snapshot_unit.process_packet u ~now:1 (mk_data_packet ~sid:0 ~channel:1 ~ghost:0 0);
  let slot = Snapshot_unit.read_slot u ~ghost_sid:1 in
  check_float 1e-9 "channel state accumulated" 1. slot.Snapshot_unit.channel

let test_unit_header_rewrite () =
  let u, _ = mk_unit () in
  Snapshot_unit.process_initiation u ~now:0 ~sid:2 ~ghost_sid:2;
  let p = mk_data_packet ~sid:0 ~channel:1 ~ghost:0 0 in
  Snapshot_unit.process_packet u ~now:1 p;
  (match Packet.snap p with
  | Some h -> Alcotest.(check int) "header rewritten to local sid" 2 h.Snapshot_header.sid
  | None -> Alcotest.fail "header missing")

let test_unit_headerless_gets_header () =
  let u, notifs = mk_unit () in
  Snapshot_unit.process_initiation u ~now:0 ~sid:3 ~ghost_sid:3;
  let before = List.length !notifs in
  let p = Packet.create ~uid:9 ~flow_id:1 ~src_host:0 ~dst_host:1 ~size:64 ~created:0 () in
  Snapshot_unit.process_packet u ~now:1 p;
  (match Packet.snap p with
  | Some h ->
      Alcotest.(check int) "attached at current sid" 3 h.Snapshot_header.sid
  | None -> Alcotest.fail "no header attached");
  Alcotest.(check int) "no snapshot notification for headerless" before
    (List.length !notifs)

let test_unit_last_seen_tracking () =
  let u, _ = mk_unit ~n_neighbors:3 () in
  Snapshot_unit.process_packet u ~now:0 (mk_data_packet ~sid:1 ~channel:1 ~ghost:1 0);
  Snapshot_unit.process_packet u ~now:1 (mk_data_packet ~sid:2 ~channel:2 ~ghost:2 1);
  let ls = Snapshot_unit.last_seen u in
  Alcotest.(check int) "channel1 saw 1" 1 ls.(1);
  Alcotest.(check int) "channel2 saw 2" 2 ls.(2)

let test_unit_fifo_violation_detected () =
  let u, _ = mk_unit () in
  Snapshot_unit.process_packet u ~now:0 (mk_data_packet ~sid:2 ~channel:1 ~ghost:2 0);
  Snapshot_unit.process_packet u ~now:1 (mk_data_packet ~sid:1 ~channel:1 ~ghost:1 1);
  (* sid going backwards on a FIFO channel is impossible: flagged. *)
  Alcotest.(check int) "violation counted" 1 (Snapshot_unit.fifo_violations u)

let test_unit_wraparound_rollover () =
  let cfg = { Snapshot_unit.variant_channel_state with max_sid = 7 } in
  let u, _ = mk_unit ~cfg () in
  (* Walk the ID all the way around the mod-8 space, one step at a time. *)
  for ghost = 1 to 20 do
    Snapshot_unit.process_initiation u ~now:ghost ~sid:(Wrap.wrap ~max_sid:7 ghost)
      ~ghost_sid:ghost
  done;
  Alcotest.(check int) "wrapped register" (Wrap.wrap ~max_sid:7 20)
    (Snapshot_unit.current_sid u);
  Alcotest.(check int) "unwrapped bookkeeping" 20 (Snapshot_unit.current_ghost_sid u)

let test_unit_slot_staleness () =
  let cfg = { Snapshot_unit.variant_channel_state with max_sid = 7 } in
  let u, _ = mk_unit ~cfg () in
  for ghost = 1 to 10 do
    Snapshot_unit.process_initiation u ~now:ghost ~sid:(Wrap.wrap ~max_sid:7 ghost)
      ~ghost_sid:ghost
  done;
  (* Slot for ghost 2 was overwritten by ghost 10 (same ring cell). *)
  Alcotest.(check (option (float 1e-9))) "stale slot unreadable" None
    (Snapshot_unit.read_slot u ~ghost_sid:2).Snapshot_unit.value;
  Alcotest.(check bool) "current slot readable" true
    ((Snapshot_unit.read_slot u ~ghost_sid:10).Snapshot_unit.value <> None)

let test_unit_neighbor_traffic () =
  let u, _ = mk_unit ~n_neighbors:3 () in
  for i = 0 to 4 do
    Snapshot_unit.process_packet u ~now:i (mk_data_packet ~sid:0 ~channel:1 ~ghost:0 i)
  done;
  Snapshot_unit.process_packet u ~now:9 (mk_data_packet ~sid:0 ~channel:2 ~ghost:0 9);
  let t = Snapshot_unit.neighbor_traffic u in
  Alcotest.(check int) "cpu zero" 0 t.(0);
  Alcotest.(check int) "channel 1" 5 t.(1);
  Alcotest.(check int) "channel 2" 1 t.(2)

let test_unit_reset () =
  let u, _ = mk_unit () in
  Snapshot_unit.process_initiation u ~now:0 ~sid:2 ~ghost_sid:2;
  Snapshot_unit.process_packet u ~now:1 (mk_data_packet ~sid:2 ~channel:1 ~ghost:2 0);
  Snapshot_unit.reset u;
  Alcotest.(check int) "sid cleared" 0 (Snapshot_unit.current_sid u);
  Alcotest.(check int) "ghost cleared" 0 (Snapshot_unit.current_ghost_sid u);
  Alcotest.(check (option (float 1e-9))) "slots cleared" None
    (Snapshot_unit.read_slot u ~ghost_sid:2).Snapshot_unit.value

(* Differential property test: on schedules where snapshot IDs advance by
   at most one step at a time (the regime Speedlight guarantees consistent),
   the hardware-constrained unit must record exactly the same snapshot
   values and channel state as the idealized Figure-3 algorithm. *)
let differential_test ~wraparound =
  let name =
    Printf.sprintf "Speedlight unit == Fig.3 spec (%s)"
      (if wraparound then "wraparound mod 8" else "unbounded ids")
  in
  QCheck.Test.make ~name ~count:150
    QCheck.(pair small_int (int_range 2 4))
    (fun (seed, k) ->
      let rng = Rng.create (seed + (k * 7919)) in
      let epochs = 10 in
      let cfg =
        if wraparound then { Snapshot_unit.variant_channel_state with max_sid = 7 }
        else { Snapshot_unit.variant_channel_state with wraparound = false }
      in
      let counter = Counter.packet_count () in
      let sl, _ =
        ( Snapshot_unit.create
            ~id:(Unit_id.egress ~switch:0 ~port:0)
            ~cfg ~n_neighbors:(k + 1) ~counter
            ~notify:(fun _ -> ())
            (),
          () )
      in
      let ideal = Ideal_unit.create ~n_neighbors:k ~channel_state:true in
      let uid = ref 0 in
      let deliver ~stamp ~ch =
        incr uid;
        (* Ideal spec first (it reads the shared state notionally before
           the packet): its state is the packet count so far. *)
        let _ = Ideal_unit.on_receive ideal ~sender:ch ~pkt_sid:stamp ~contribution:1. in
        Ideal_unit.set_state ideal (Ideal_unit.state ideal +. 1.);
        let p =
          mk_data_packet
            ~sid:(if wraparound then Wrap.wrap ~max_sid:7 stamp else stamp)
            ~channel:(ch + 1) ~ghost:stamp !uid
        in
        Snapshot_unit.process_packet sl ~now:!uid p
      in
      (* Build per-channel FIFO schedules: every epoch, each channel sends
         a few in-flight packets stamped e-1 followed by >=1 stamped e. *)
      for e = 1 to epochs do
        let sends = ref [] in
        for ch = 0 to k - 1 do
          let pre = Rng.int rng 3 in
          for _ = 1 to pre do
            sends := (e - 1, ch) :: !sends
          done;
          for _ = 1 to 1 + Rng.int rng 3 do
            sends := (e, ch) :: !sends
          done
        done;
        (* Random interleaving that preserves per-channel FIFO order: sort
           stable by random keys per channel won't preserve order; instead
           pop randomly from per-channel queues. *)
        (* !sends lists each channel's stamps newest-first; prepending
           them again restores per-channel send order (pre, then new). *)
        let queues = Array.make k [] in
        List.iter (fun (st, ch) -> queues.(ch) <- st :: queues.(ch)) !sends;
        let remaining = ref (List.length !sends) in
        while !remaining > 0 do
          let ch = Rng.int rng k in
          match queues.(ch) with
          | [] -> ()
          | stamp :: rest ->
              queues.(ch) <- rest;
              decr remaining;
              deliver ~stamp ~ch
        done
      done;
      (* Compare every snapshot whose slot still survives: with wraparound
         the ring has modulus-many cells, so ghosts older than one modulus
         behind the current ID were overwritten (the control plane reads
         them out long before that in practice). *)
      let ok = ref true in
      let lo = if wraparound then Stdlib.max 1 (epochs - 7) else 1 in
      for i = lo to epochs do
        (match
           ( (Snapshot_unit.read_slot sl ~ghost_sid:i).Snapshot_unit.value,
             Ideal_unit.snapshot_value ideal ~sid:i )
         with
        | Some v, Some w -> if v <> w then ok := false
        | None, _ | _, None -> ok := false);
        let c_sl = (Snapshot_unit.read_slot sl ~ghost_sid:i).Snapshot_unit.channel in
        let c_id = Ideal_unit.channel_state_of ideal ~sid:i in
        if c_sl <> c_id then ok := false
      done;
      !ok
      && Snapshot_unit.current_ghost_sid sl = Ideal_unit.sid ideal
      && Snapshot_unit.fifo_violations sl = 0)

(* ------------------------------------------------------------------ *)
(* Cp_tracker *)

let mk_tracked ?(channel_state = true) ?(n_neighbors = 3) ?(excluded = []) () =
  let counter = Counter.packet_count () in
  let notifs = Queue.create () in
  let uid = Unit_id.ingress ~switch:0 ~port:0 in
  let u =
    Snapshot_unit.create ~id:uid
      ~cfg:
        (if channel_state then Snapshot_unit.variant_channel_state
         else Snapshot_unit.variant_wraparound)
      ~n_neighbors ~counter
      ~notify:(fun n -> Queue.push n notifs)
      ()
  in
  let reports = ref [] in
  let tracker =
    Cp_tracker.create ~channel_state
      ~units:[ { Cp_tracker.unit_ = u; excluded_neighbors = excluded } ]
      ~report:(fun r -> reports := r :: !reports)
      ()
  in
  let drain ~now =
    while not (Queue.is_empty notifs) do
      Cp_tracker.on_notify tracker ~now (Queue.pop notifs)
    done
  in
  (u, uid, tracker, reports, notifs, drain)

let test_tracker_completion_with_cs () =
  let u, uid, tracker, reports, _, drain = mk_tracked () in
  Snapshot_unit.process_initiation u ~now:0 ~sid:1 ~ghost_sid:1;
  drain ~now:5;
  Alcotest.(check int) "not finished before channels catch up" 0
    (Cp_tracker.finished_through tracker uid);
  (* Both data channels deliver snapshot-1 markers. *)
  Snapshot_unit.process_packet u ~now:6 (mk_data_packet ~sid:1 ~channel:1 ~ghost:1 0);
  Snapshot_unit.process_packet u ~now:7 (mk_data_packet ~sid:1 ~channel:2 ~ghost:1 1);
  drain ~now:8;
  Alcotest.(check int) "finished" 1 (Cp_tracker.finished_through tracker uid);
  match !reports with
  | [ r ] ->
      Alcotest.(check bool) "consistent" true r.Report.consistent;
      Alcotest.(check int) "sid" 1 r.Report.sid
  | _ -> Alcotest.fail "expected exactly one report"

let test_tracker_skip_marked_inconsistent () =
  let u, uid, tracker, reports, _, drain = mk_tracked () in
  (* The unit jumps from 0 straight to 3 (e.g. initiations lost): skipped
     snapshots 1 and 2 can no longer collect channel state. *)
  Snapshot_unit.process_initiation u ~now:0 ~sid:3 ~ghost_sid:3;
  drain ~now:1;
  Snapshot_unit.process_packet u ~now:2 (mk_data_packet ~sid:3 ~channel:1 ~ghost:3 0);
  Snapshot_unit.process_packet u ~now:3 (mk_data_packet ~sid:3 ~channel:2 ~ghost:3 1);
  drain ~now:4;
  Alcotest.(check bool) "1 inconsistent" true (Cp_tracker.is_inconsistent tracker uid ~sid:1);
  Alcotest.(check bool) "2 inconsistent" true (Cp_tracker.is_inconsistent tracker uid ~sid:2);
  Alcotest.(check bool) "3 consistent" false (Cp_tracker.is_inconsistent tracker uid ~sid:3);
  let consistent, inconsistent =
    List.partition (fun (r : Report.t) -> r.Report.consistent) !reports
  in
  Alcotest.(check int) "one consistent report" 1 (List.length consistent);
  Alcotest.(check int) "two inconsistent reports" 2 (List.length inconsistent)

let test_tracker_no_cs_inference () =
  let u, uid, tracker, reports, _, drain = mk_tracked ~channel_state:false () in
  (* Jump 0 -> 3 without channel state: values for 1 and 2 are inferred
     from snapshot 3's register (Fig. 7 lines 19-21). *)
  Snapshot_unit.process_packet u ~now:1 (mk_data_packet ~sid:0 ~channel:1 ~ghost:0 0);
  Snapshot_unit.process_packet u ~now:2 (mk_data_packet ~sid:0 ~channel:1 ~ghost:0 1);
  Snapshot_unit.process_initiation u ~now:3 ~sid:3 ~ghost_sid:3;
  drain ~now:4;
  Alcotest.(check int) "finished through 3" 3 (Cp_tracker.finished_through tracker uid);
  let sorted = List.sort (fun a b -> compare a.Report.sid b.Report.sid) !reports in
  (match sorted with
  | [ r1; r2; r3 ] ->
      Alcotest.(check bool) "1 inferred" true r1.Report.inferred;
      Alcotest.(check bool) "2 inferred" true r2.Report.inferred;
      Alcotest.(check bool) "3 direct" false r3.Report.inferred;
      Alcotest.(check (option (float 1e-9))) "inferred value = later value"
        r3.Report.value r1.Report.value;
      Alcotest.(check (option (float 1e-9))) "value is pre-snapshot count"
        (Some 2.) r3.Report.value
  | _ -> Alcotest.fail "expected three reports");
  Alcotest.(check int) "no duplicates" 0 (Cp_tracker.duplicates_dropped tracker)

let test_tracker_duplicate_notifications_dropped () =
  let u, _, tracker, _, notifs, _ = mk_tracked () in
  Snapshot_unit.process_initiation u ~now:0 ~sid:1 ~ghost_sid:1;
  let n = Queue.pop notifs in
  Cp_tracker.on_notify tracker ~now:1 n;
  Cp_tracker.on_notify tracker ~now:2 n;
  Alcotest.(check int) "second copy dropped" 1 (Cp_tracker.duplicates_dropped tracker)

let test_tracker_poll_recovers_lost_notifications () =
  let u, uid, tracker, reports, notifs, _ = mk_tracked () in
  Snapshot_unit.process_initiation u ~now:0 ~sid:1 ~ghost_sid:1;
  Snapshot_unit.process_packet u ~now:1 (mk_data_packet ~sid:1 ~channel:1 ~ghost:1 0);
  Snapshot_unit.process_packet u ~now:2 (mk_data_packet ~sid:1 ~channel:2 ~ghost:1 1);
  (* All notifications dropped on the DP->CPU channel. *)
  Queue.clear notifs;
  Alcotest.(check int) "tracker blind" 0 (Cp_tracker.ctrl_sid tracker uid);
  Cp_tracker.poll tracker ~now:10;
  Alcotest.(check int) "poll found the ID" 1 (Cp_tracker.ctrl_sid tracker uid);
  Alcotest.(check int) "poll completed the snapshot" 1
    (Cp_tracker.finished_through tracker uid);
  Alcotest.(check int) "report emitted" 1 (List.length !reports)

let test_tracker_exclusion_unblocks () =
  let u, uid, tracker, _, _, drain = mk_tracked () in
  Snapshot_unit.process_initiation u ~now:0 ~sid:1 ~ghost_sid:1;
  (* Only channel 1 ever carries traffic. *)
  Snapshot_unit.process_packet u ~now:1 (mk_data_packet ~sid:1 ~channel:1 ~ghost:1 0);
  drain ~now:2;
  Alcotest.(check int) "stuck on idle channel 2" 0
    (Cp_tracker.finished_through tracker uid);
  Cp_tracker.exclude_neighbor tracker ~now:3 uid 2;
  Alcotest.(check bool) "marked excluded" true (Cp_tracker.is_excluded tracker uid 2);
  Alcotest.(check int) "completes after exclusion" 1
    (Cp_tracker.finished_through tracker uid)

let test_tracker_sync_window () =
  let u, _, tracker, _, notifs, _ = mk_tracked () in
  Snapshot_unit.process_initiation u ~now:100 ~sid:1 ~ghost_sid:1;
  Snapshot_unit.process_packet u ~now:150 (mk_data_packet ~sid:1 ~channel:1 ~ghost:1 0);
  Snapshot_unit.process_packet u ~now:170 (mk_data_packet ~sid:1 ~channel:2 ~ghost:1 1);
  while not (Queue.is_empty notifs) do
    Cp_tracker.on_notify tracker ~now:200 (Queue.pop notifs)
  done;
  match Cp_tracker.sync_window tracker ~sid:1 with
  | Some (lo, hi) ->
      Alcotest.(check int) "window lo" 100 lo;
      Alcotest.(check int) "window hi" 170 hi
  | None -> Alcotest.fail "no window recorded"

(* A foreign id at the unit's own index, and the unit's id at an index
   the tracker does not hold. *)
let test_tracker_unknown_unit_rejected () =
  let u, _, tracker, _, notifs, _ = mk_tracked () in
  Snapshot_unit.process_initiation u ~now:0 ~sid:1 ~ghost_sid:1;
  let n = Queue.pop notifs in
  let stranger = Unit_id.egress ~switch:9 ~port:9 in
  List.iter
    (fun (what, n) ->
      match Cp_tracker.on_notify tracker ~now:1 n with
      | () -> Alcotest.failf "notification for %s accepted" what
      | exception Invalid_argument _ -> ())
    [
      ("an unknown unit", { n with Notification.unit_id = stranger });
      ("index -1", { n with unit_ix = -1 });
      ("index 1", { n with unit_ix = 1 });
    ]

(* A switch builds its heavy-hitter cells (Ingress virtual ports) before
   its chain units (Egress virtual ports), so index order interleaves
   against Unit_id order. [poll] must report in Unit_id order whatever
   the order of the specs (the run digest depends on it), and a
   notification must reach the unit its index names. *)
let test_tracker_poll_in_unit_id_order () =
  let vport k = Unit_id.app_port_base + k in
  let ids =
    List.map (fun k -> Unit_id.ingress ~switch:0 ~port:(vport k)) [ 0; 1; 2 ]
    @ List.map (fun k -> Unit_id.egress ~switch:0 ~port:(vport k)) [ 0; 1 ]
  in
  let notifs = Queue.create () in
  let units =
    List.mapi
      (fun k id ->
        let u =
          Snapshot_unit.create ~id ~cfg:Snapshot_unit.variant_wraparound ~n_neighbors:2
            ~counter:(Counter.packet_count ())
            ~notify:(fun n -> Queue.push n notifs)
            ()
        in
        Snapshot_unit.set_index u (7 + k);
        u)
      ids
  in
  let reports = ref [] in
  let specs = List.map (fun u -> { Cp_tracker.unit_ = u; excluded_neighbors = [] }) units in
  let tracker =
    Cp_tracker.create ~channel_state:false ~units:(List.rev specs)
      ~report:(fun r -> reports := r :: !reports)
      ()
  in
  let emitted () =
    let l =
      List.rev_map (fun (r : Report.t) -> (Unit_id.to_string r.unit_id, r.unit_ix)) !reports
    in
    reports := [];
    l
  in
  let pairs =
    List.map (fun u -> (Unit_id.to_string (Snapshot_unit.id u), Snapshot_unit.index u))
  in
  let by_id =
    List.sort (fun a b -> Unit_id.compare (Snapshot_unit.id a) (Snapshot_unit.id b)) units
  in
  List.iter (fun u -> Snapshot_unit.process_initiation u ~now:0 ~sid:1 ~ghost_sid:1) units;
  Queue.clear notifs;
  Cp_tracker.poll tracker ~now:1;
  Alcotest.(check (list (pair string int))) "poll: Unit_id order" (pairs by_id)
    (emitted ());
  List.iter (fun u -> Snapshot_unit.process_initiation u ~now:2 ~sid:2 ~ghost_sid:2) units;
  Queue.iter (Cp_tracker.on_notify tracker ~now:3) notifs;
  Alcotest.(check (list (pair string int))) "notifications: routed by index" (pairs units)
    (emitted ())

(* ------------------------------------------------------------------ *)
(* Observer *)

type fake_device = {
  fd_id : int;
  fd_units : Unit_id.t list;
  mutable fd_initiations : (int * Time.t) list;
  mutable fd_resends : int list;
}

(* The device's units take dense indices [first], [first + 1], ... *)
let mk_fake_device id ~first ~units =
  let fd = { fd_id = id; fd_units = units; fd_initiations = []; fd_resends = [] } in
  let dev =
    {
      Observer.device_id = id;
      units = List.mapi (fun k u -> (first + k, u)) units;
      initiate = (fun ~sid ~fire_at -> fd.fd_initiations <- (sid, fire_at) :: fd.fd_initiations);
      resend = (fun ~sid -> fd.fd_resends <- sid :: fd.fd_resends);
    }
  in
  (fd, dev)

let report ~ix ~uid ~sid =
  {
    Report.unit_id = uid;
    unit_ix = ix;
    sid;
    value = Some 1.;
    channel = 0.;
    consistent = true;
    inferred = false;
    completed_at = 0;
  }

let take_snapshot_exn obs =
  match Observer.try_take_snapshot obs () with
  | Ok sid -> sid
  | Error e -> Alcotest.fail ("snapshot refused: " ^ Observer.error_to_string e)

let test_observer_assembly () =
  let engine = Engine.create () in
  let obs = Observer.create ~engine () in
  let u1 = Unit_id.ingress ~switch:0 ~port:0 in
  let u2 = Unit_id.egress ~switch:0 ~port:0 in
  let fd, dev = mk_fake_device 0 ~first:0 ~units:[ u1; u2 ] in
  Observer.register_device obs dev;
  let completions = ref [] in
  Observer.on_complete obs (fun s -> completions := s :: !completions);
  let sid = take_snapshot_exn obs in
  Alcotest.(check int) "first sid is 1" 1 sid;
  Alcotest.(check int) "initiation broadcast" 1 (List.length fd.fd_initiations);
  Observer.on_report obs (report ~ix:0 ~uid:u1 ~sid);
  Alcotest.(check bool) "incomplete with one report" false
    (match Observer.result obs ~sid with Some s -> s.Observer.complete | None -> true);
  Observer.on_report obs (report ~ix:1 ~uid:u2 ~sid);
  (match Observer.result obs ~sid with
  | Some s ->
      Alcotest.(check bool) "complete" true s.Observer.complete;
      Alcotest.(check bool) "consistent" true s.Observer.consistent;
      Alcotest.(check int) "two reports" 2 (Unit_id.Map.cardinal s.Observer.reports)
  | None -> Alcotest.fail "no result");
  Alcotest.(check int) "completion callback fired once" 1 (List.length !completions);
  Alcotest.(check int) "nothing outstanding" 0 (Observer.outstanding obs)

let test_observer_retry_and_exclusion () =
  let engine = Engine.create () in
  let obs =
    Observer.create ~engine ~retry_timeout:(Time.ms 10) ~max_retries:3 ()
  in
  let u1 = Unit_id.ingress ~switch:0 ~port:0 in
  let fd, dev = mk_fake_device 0 ~first:0 ~units:[ u1 ] in
  Observer.register_device obs dev;
  let sid = take_snapshot_exn obs in
  (* Never report: the observer must retry 3 times then exclude. *)
  Engine.run_until engine (Time.ms 200);
  Alcotest.(check int) "three resends" 3 (List.length fd.fd_resends);
  Alcotest.(check int) "retries counted" 3 (Observer.retries_sent obs);
  match Observer.result obs ~sid with
  | Some s ->
      Alcotest.(check bool) "finished by exclusion" true (Observer.completed obs ~sid);
      Alcotest.(check (list int)) "device excluded" [ 0 ] s.Observer.timed_out;
      Alcotest.(check bool) "not complete" false s.Observer.complete
  | None -> Alcotest.fail "no result after exclusion"

let test_observer_no_spurious_retry () =
  let engine = Engine.create () in
  let obs = Observer.create ~engine ~retry_timeout:(Time.ms 10) () in
  let u1 = Unit_id.ingress ~switch:0 ~port:0 in
  let fd, dev = mk_fake_device 0 ~first:0 ~units:[ u1 ] in
  Observer.register_device obs dev;
  let sid = take_snapshot_exn obs in
  Observer.on_report obs (report ~ix:0 ~uid:u1 ~sid);
  Engine.run_until engine (Time.ms 100);
  Alcotest.(check int) "no resend after completion" 0 (List.length fd.fd_resends)

let test_observer_pacing_cap () =
  let engine = Engine.create () in
  let obs = Observer.create ~engine ~max_outstanding:2 () in
  let u1 = Unit_id.ingress ~switch:0 ~port:0 in
  let _, dev = mk_fake_device 0 ~first:0 ~units:[ u1 ] in
  Observer.register_device obs dev;
  ignore (take_snapshot_exn obs);
  ignore (take_snapshot_exn obs);
  Alcotest.(check bool) "third refused (wraparound pacing)" true
    (match Observer.try_take_snapshot obs () with
    | Error Observer.Pacing_full -> true
    | Ok _ | Error _ -> false)

let test_observer_spurious_report_ignored () =
  let engine = Engine.create () in
  let obs = Observer.create ~engine () in
  let u1 = Unit_id.ingress ~switch:0 ~port:0 in
  let _, dev = mk_fake_device 0 ~first:0 ~units:[ u1 ] in
  Observer.register_device obs dev;
  (* A report for a snapshot never scheduled (node-attachment jump-ahead)
     must be ignored. *)
  Observer.on_report obs (report ~ix:0 ~uid:u1 ~sid:999);
  Alcotest.(check bool) "not recorded" true (Observer.result obs ~sid:999 = None)

(* Property: whatever the order, duplication, staleness and routing of
   the reports, the round holds exactly the first report each unit sent
   for its sid under its own index, and completes exactly once. Devices
   own 1-4 units each; every report carries its position in the stream
   as value so the first and a later duplicate differ. A report filed
   under another registered unit's index, under a negative or
   past-the-end index, or from a unit registered after the take must be
   ignored. *)
let test_observer_assembly_matches_reference =
  let gen =
    QCheck.(
      triple
        (list_of_size (Gen.int_range 1 3) (int_range 1 4))
        (list_of_size (Gen.int_range 0 40)
           (quad small_nat (int_range 0 2) bool (int_range 0 7)))
        int)
  in
  QCheck.Test.make ~name:"assembly = first report per unit" ~count:200 gen
    (fun (sizes, stream, perm_seed) ->
      (* Shrinking may empty the device list below the generator's bound. *)
      QCheck.assume (sizes <> []);
      let engine = Engine.create () in
      let obs = Observer.create ~engine () in
      let next = ref 0 in
      let register d n =
        let us = List.init n (fun p -> Unit_id.ingress ~switch:d ~port:p) in
        Observer.register_device obs (snd (mk_fake_device d ~first:!next ~units:us));
        next := !next + n;
        us
      in
      (* Indices are dense in registration order: [units.(i)] holds i. *)
      let units = List.mapi register sizes |> List.concat |> Array.of_list in
      let n = Array.length units in
      let completions = ref [] in
      Observer.on_complete obs (fun s -> completions := s :: !completions);
      (* Round 1 completes first: its sid is stale in round 2. *)
      let stale = take_snapshot_exn obs in
      Array.iteri (fun ix uid -> Observer.on_report obs (report ~ix ~uid ~sid:stale)) units;
      let sid = take_snapshot_exn obs in
      (* A device registered after the take: indices n, n + 1, ... *)
      let late =
        Array.of_list (register (List.length sizes) (1 + abs (perm_seed mod 3)))
      in
      let pos = ref 0 in
      let expected = ref Unit_id.Map.empty in
      let send ~ix uid ~sid:s ~consistent =
        incr pos;
        let r = { (report ~ix ~uid ~sid:s) with value = Some (float !pos); consistent } in
        Observer.on_report obs r;
        if s = sid && ix >= 0 && ix < n && Unit_id.equal units.(ix) uid
           && not (Unit_id.Map.mem uid !expected)
        then expected := Unit_id.Map.add uid r !expected
      in
      List.iter
        (fun (u, which, consistent, route) ->
          let s = match which with 0 -> sid | 1 -> stale | _ -> sid + 7 in
          let own = u mod n in
          match route with
          | 4 -> send ~ix:((own + 1) mod n) units.(own) ~sid:s ~consistent
          | 5 -> send ~ix:(-1 - (u mod 3)) units.(own) ~sid:s ~consistent
          | 6 -> send ~ix:(!next + (u mod 3)) units.(own) ~sid:s ~consistent
          | 7 ->
              let l = u mod Array.length late in
              send ~ix:(n + l) late.(l) ~sid:s ~consistent
          | _ -> send ~ix:own units.(own) ~sid:s ~consistent)
        stream;
      (* Then every unit reports once more, in a random order. *)
      let order = Array.init n Fun.id in
      let rng = Random.State.make [| perm_seed |] in
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let x = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- x
      done;
      Array.iter (fun ix -> send ~ix units.(ix) ~sid ~consistent:true) order;
      match (List.filter (fun s -> s.Observer.sid = sid) !completions, Observer.result obs ~sid) with
      | [ fired ], Some s ->
          fired == s && s.Observer.complete
          && Unit_id.Map.equal ( = ) s.Observer.reports !expected
          && s.Observer.consistent
             = Unit_id.Map.for_all (fun _ (r : Report.t) -> r.consistent) !expected
      | _ -> false)

let test_observer_silent_device_excluded () =
  let engine = Engine.create () in
  let obs =
    Observer.create ~engine ~retry_timeout:(Time.ms 10) ~max_retries:2 ()
  in
  let a1 = Unit_id.ingress ~switch:0 ~port:0 in
  let a2 = Unit_id.egress ~switch:0 ~port:0 in
  let b1 = Unit_id.ingress ~switch:1 ~port:0 in
  let fa, da = mk_fake_device 0 ~first:0 ~units:[ a1; a2 ] in
  let fb, db = mk_fake_device 1 ~first:2 ~units:[ b1 ] in
  Observer.register_device obs da;
  Observer.register_device obs db;
  let sid = take_snapshot_exn obs in
  Observer.on_report obs (report ~ix:0 ~uid:a1 ~sid);
  Observer.on_report obs (report ~ix:1 ~uid:a2 ~sid);
  Engine.run_until engine (Time.ms 200);
  Alcotest.(check int) "reporting device never resent to" 0 (List.length fa.fd_resends);
  Alcotest.(check (list int)) "silent device resent to" [ sid; sid ] fb.fd_resends;
  match Observer.result obs ~sid with
  | Some s ->
      Alcotest.(check (list int)) "silent device timed out" [ 1 ] s.Observer.timed_out;
      Alcotest.(check bool) "not complete" false s.Observer.complete;
      Alcotest.(check bool) "not consistent" false s.Observer.consistent;
      Alcotest.(check (list string)) "reports: the other device's units"
        (List.map Unit_id.to_string [ a1; a2 ])
        (List.map
           (fun (u, _) -> Unit_id.to_string u)
           (Unit_id.Map.bindings s.Observer.reports))
  | None -> Alcotest.fail "no result after exclusion"

(* Indices must be dense in registration order and name new units. *)
let test_observer_register_rejects_bad_index () =
  let engine = Engine.create () in
  let obs = Observer.create ~engine () in
  let a1 = Unit_id.ingress ~switch:0 ~port:0 in
  let b1 = Unit_id.ingress ~switch:1 ~port:0 in
  Observer.register_device obs (snd (mk_fake_device 0 ~first:0 ~units:[ a1 ]));
  List.iter
    (fun (what, first, units) ->
      match Observer.register_device obs (snd (mk_fake_device 1 ~first ~units)) with
      | () -> Alcotest.failf "%s accepted" what
      | exception Invalid_argument _ -> ())
    [
      ("a gap in the indices", 2, [ b1 ]);
      ("a taken index", 0, [ b1 ]);
      ("a unit registered twice", 1, [ a1 ]);
    ]

let test_observer_late_device_not_in_round () =
  let engine = Engine.create () in
  let obs = Observer.create ~engine () in
  let a1 = Unit_id.ingress ~switch:0 ~port:0 in
  let b1 = Unit_id.ingress ~switch:1 ~port:0 in
  let _, da = mk_fake_device 0 ~first:0 ~units:[ a1 ] in
  let fb, db = mk_fake_device 1 ~first:1 ~units:[ b1 ] in
  Observer.register_device obs da;
  let sid = take_snapshot_exn obs in
  Observer.register_device obs db;
  (* The late unit's report neither counts nor blocks the round. *)
  Observer.on_report obs (report ~ix:1 ~uid:b1 ~sid);
  Alcotest.(check bool) "still waiting on the old device" false (Observer.completed obs ~sid);
  Observer.on_report obs (report ~ix:0 ~uid:a1 ~sid);
  (match Observer.result obs ~sid with
  | Some s ->
      Alcotest.(check bool) "complete without the late device" true s.Observer.complete;
      Alcotest.(check bool) "late unit left out" false
        (Unit_id.Map.mem b1 s.Observer.reports);
      Alcotest.(check int) "one report" 1 (Unit_id.Map.cardinal s.Observer.reports)
  | None -> Alcotest.fail "no result");
  Alcotest.(check int) "late device not initiated" 0 (List.length fb.fd_initiations);
  (* The next round includes it. *)
  let sid2 = take_snapshot_exn obs in
  Alcotest.(check int) "initiated next round" 1 (List.length fb.fd_initiations);
  Observer.on_report obs (report ~ix:0 ~uid:a1 ~sid:sid2);
  Alcotest.(check bool) "next round waits for it" false (Observer.completed obs ~sid:sid2);
  Observer.on_report obs (report ~ix:1 ~uid:b1 ~sid:sid2);
  Alcotest.(check bool) "next round completes" true (Observer.completed obs ~sid:sid2)

let q = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "core"
    [
      ( "wrap",
        [
          Alcotest.test_case "basics" `Quick test_wrap_basics;
          Alcotest.test_case "compare" `Quick test_wrap_compare;
          Alcotest.test_case "rejects small" `Quick test_wrap_rejects_small;
          q test_wrap_compare_matches_ints;
          q test_wrap_unwrap_roundtrip;
          q test_wrap_unwrap_skew_window;
          Alcotest.test_case "unwrap edge cases" `Quick test_unwrap_edges;
        ] );
      ( "ideal_unit",
        [
          Alcotest.test_case "advance saves state" `Quick test_ideal_advance_saves_state;
          Alcotest.test_case "jump fills intermediates" `Quick
            test_ideal_jump_fills_intermediates;
          Alcotest.test_case "in-flight channel state" `Quick
            test_ideal_in_flight_channel_state;
          Alcotest.test_case "finished through" `Quick test_ideal_finished_through;
          Alcotest.test_case "initiate idempotent" `Quick test_ideal_initiate_idempotent;
        ] );
      ( "snapshot_unit",
        [
          Alcotest.test_case "initiation advances" `Quick test_unit_initiation_advances;
          Alcotest.test_case "duplicate initiation" `Quick
            test_unit_duplicate_initiation_ignored;
          Alcotest.test_case "trigger excluded from value" `Quick
            test_unit_saved_value_excludes_trigger;
          Alcotest.test_case "in-flight to current slot" `Quick
            test_unit_in_flight_goes_to_current_slot;
          Alcotest.test_case "header rewrite" `Quick test_unit_header_rewrite;
          Alcotest.test_case "headerless handling" `Quick test_unit_headerless_gets_header;
          Alcotest.test_case "last seen" `Quick test_unit_last_seen_tracking;
          Alcotest.test_case "fifo violation" `Quick test_unit_fifo_violation_detected;
          Alcotest.test_case "wraparound rollover" `Quick test_unit_wraparound_rollover;
          Alcotest.test_case "slot staleness" `Quick test_unit_slot_staleness;
          Alcotest.test_case "neighbor traffic" `Quick test_unit_neighbor_traffic;
          Alcotest.test_case "reset" `Quick test_unit_reset;
          q (differential_test ~wraparound:false);
          q (differential_test ~wraparound:true);
        ] );
      ( "cp_tracker",
        [
          Alcotest.test_case "completion w/ channel state" `Quick
            test_tracker_completion_with_cs;
          Alcotest.test_case "skip marked inconsistent" `Quick
            test_tracker_skip_marked_inconsistent;
          Alcotest.test_case "no-CS inference" `Quick test_tracker_no_cs_inference;
          Alcotest.test_case "duplicates dropped" `Quick
            test_tracker_duplicate_notifications_dropped;
          Alcotest.test_case "poll recovery" `Quick
            test_tracker_poll_recovers_lost_notifications;
          Alcotest.test_case "exclusion unblocks" `Quick test_tracker_exclusion_unblocks;
          Alcotest.test_case "sync window" `Quick test_tracker_sync_window;
          Alcotest.test_case "unknown unit rejected" `Quick
            test_tracker_unknown_unit_rejected;
          Alcotest.test_case "poll in Unit_id order" `Quick
            test_tracker_poll_in_unit_id_order;
        ] );
      ( "observer",
        [
          Alcotest.test_case "assembly" `Quick test_observer_assembly;
          Alcotest.test_case "retry + exclusion" `Quick test_observer_retry_and_exclusion;
          Alcotest.test_case "no spurious retry" `Quick test_observer_no_spurious_retry;
          Alcotest.test_case "pacing cap" `Quick test_observer_pacing_cap;
          Alcotest.test_case "spurious report ignored" `Quick
            test_observer_spurious_report_ignored;
          q test_observer_assembly_matches_reference;
          Alcotest.test_case "silent device excluded" `Quick
            test_observer_silent_device_excluded;
          Alcotest.test_case "late device not in round" `Quick
            test_observer_late_device_not_in_round;
          Alcotest.test_case "register rejects a bad index" `Quick
            test_observer_register_rejects_bad_index;
        ] );
    ]
