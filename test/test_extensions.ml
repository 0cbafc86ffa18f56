(* Tests for the production extensions: the count-min sketch and its
   snapshot counter, the classic marker-based Chandy-Lamport baseline, the
   ASCII chart renderer, CSV export, the continuous Monitor API, and the
   marker-overhead ablation. *)

open Speedlight_sim
open Speedlight_stats
open Speedlight_dataplane
open Speedlight_core
open Speedlight_topology
open Speedlight_net

(* ------------------------------------------------------------------ *)
(* Sketch *)

let test_sketch_exact_when_sparse () =
  let sk = Sketch.create ~depth:4 ~width:1024 () in
  Sketch.update sk ~flow_id:7 3;
  Sketch.update sk ~flow_id:7 2;
  Sketch.update sk ~flow_id:9 1;
  Alcotest.(check int) "flow 7" 5 (Sketch.query sk ~flow_id:7);
  Alcotest.(check int) "flow 9" 1 (Sketch.query sk ~flow_id:9);
  Alcotest.(check int) "absent flow" 0 (Sketch.query sk ~flow_id:12345);
  Alcotest.(check int) "total" 6 (Sketch.total sk)

let test_sketch_never_underestimates =
  QCheck.Test.make ~name:"count-min never underestimates" ~count:100
    QCheck.(pair small_int (list_of_size Gen.(1 -- 200) (int_range 0 50)))
    (fun (seed, flows) ->
      ignore seed;
      let sk = Sketch.create ~depth:4 ~width:64 () in
      let truth = Hashtbl.create 64 in
      List.iter
        (fun f ->
          Sketch.update sk ~flow_id:f 1;
          Hashtbl.replace truth f (1 + Option.value ~default:0 (Hashtbl.find_opt truth f)))
        flows;
      Hashtbl.fold
        (fun f c ok -> ok && Sketch.query sk ~flow_id:f >= c)
        truth true)

let test_sketch_error_bound () =
  (* With width >> distinct flows, estimates should be exact. *)
  let sk = Sketch.create ~depth:4 ~width:4096 () in
  let rng = Rng.create 3 in
  let truth = Array.make 50 0 in
  for _ = 1 to 5_000 do
    let f = Rng.int rng 50 in
    truth.(f) <- truth.(f) + 1;
    Sketch.update sk ~flow_id:f 1
  done;
  Array.iteri
    (fun f c -> Alcotest.(check int) (Printf.sprintf "flow %d exact" f) c
        (Sketch.query sk ~flow_id:f))
    truth

let test_sketch_reset () =
  let sk = Sketch.create () in
  Sketch.update sk ~flow_id:1 10;
  Sketch.reset sk;
  Alcotest.(check int) "cleared" 0 (Sketch.query sk ~flow_id:1);
  Alcotest.(check int) "total cleared" 0 (Sketch.total sk)

let test_sketch_counter () =
  let c = Counter.sketch_flow ~tracked_flow:42 () in
  let mk flow =
    Packet.create ~uid:0 ~flow_id:flow ~src_host:0 ~dst_host:1 ~size:100 ~created:0 ()
  in
  for _ = 1 to 7 do
    Counter.update c ~now:0 (mk 42)
  done;
  for _ = 1 to 3 do
    Counter.update c ~now:0 (mk 5)
  done;
  Alcotest.(check (float 1e-9)) "tracked flow estimate" 7. (Counter.read c ~now:0);
  Alcotest.(check (float 1e-9)) "tracked contributes channel state" 1.
    (Counter.channel_contribution c (mk 42));
  Alcotest.(check (float 1e-9)) "others do not" 0.
    (Counter.channel_contribution c (mk 5))

let test_sketch_snapshot_integration () =
  (* Track one flow across the network with channel-state snapshots; the
     tracked flow's wire conservation holds exactly because channel
     contributions are per-packet exact and sketch estimates only ever
     overestimate by collisions (none at this scale). *)
  let host_link = { Topology.bandwidth_bps = 1e9; latency = Time.us 1 } in
  let fabric_link = { Topology.bandwidth_bps = 4e9; latency = Time.us 1 } in
  let ls = Topology.leaf_spine ~host_link ~fabric_link () in
  let tracked = 777 in
  let cfg = Config.default |> Config.with_counter (Config.Sketch_flow tracked) in
  let net = Net.create ~cfg ls.Topology.topo in
  let engine = Net.engine net in
  (* The tracked elephant plus background flows. *)
  let h = ls.Topology.host_of_server in
  let rec elephant n =
    if n > 0 then begin
      Net.send net ~flow_id:tracked ~src:h.(0) ~dst:h.(3) ~size:1500 ();
      ignore (Engine.schedule_after engine ~delay:(Time.us 120) (fun () -> elephant (n - 1)))
    end
  in
  elephant 600;
  let rec background n =
    if n > 0 then begin
      Net.send net ~flow_id:(1000 + (n mod 17)) ~src:h.(1) ~dst:h.(4) ~size:800 ();
      ignore (Engine.schedule_after engine ~delay:(Time.us 90) (fun () -> background (n - 1)))
    end
  in
  background 800;
  ignore (Engine.schedule engine ~at:(Time.ms 20) (fun () -> Net.auto_exclude_idle net));
  let sid = ref 0 in
  ignore
    (Engine.schedule engine ~at:(Time.ms 30) (fun () ->
         match Net.try_take_snapshot net () with
         | Ok s -> sid := s
         | Error e ->
             Alcotest.fail ("snapshot refused: " ^ Observer.error_to_string e)));
  Engine.run_until engine (Time.ms 300);
  match Net.result net ~sid:!sid with
  | Some snap ->
      Alcotest.(check bool) "complete" true snap.Observer.complete;
      (* Somewhere in the network the tracked flow was seen pre-snapshot. *)
      let any_positive =
        Unit_id.Map.exists
          (fun _ (r : Report.t) ->
            match Report.consistent_value r with Some v -> v > 0. | None -> false)
          snap.Observer.reports
      in
      Alcotest.(check bool) "tracked flow visible in snapshot" true any_positive
  | None -> Alcotest.fail "snapshot missing"

(* ------------------------------------------------------------------ *)
(* Classic_marker *)

let test_classic_basic_flow () =
  let n = Classic_marker.create ~n_in:2 ~n_out:2 in
  let sent = ref [] in
  let send_marker ~out_channel_ = sent := out_channel_ :: !sent in
  Alcotest.(check bool) "not recorded" false (Classic_marker.recorded n);
  Classic_marker.initiate n ~state:10. ~send_marker;
  Alcotest.(check bool) "recorded" true (Classic_marker.recorded n);
  Alcotest.(check int) "markers on both outputs" 2 (List.length !sent);
  (* In-flight packets on channel 0 count until its marker arrives. *)
  Classic_marker.on_packet n ~in_channel_:0 ~contribution:1.;
  Classic_marker.on_packet n ~in_channel_:0 ~contribution:1.;
  Classic_marker.on_marker n ~in_channel_:0 ~state:0. ~send_marker;
  Classic_marker.on_packet n ~in_channel_:0 ~contribution:1. (* post-marker *);
  Alcotest.(check (float 1e-9)) "channel 0 state" 2. (Classic_marker.channel_state n 0);
  Alcotest.(check bool) "incomplete with channel 1 open" false (Classic_marker.complete n);
  Classic_marker.on_marker n ~in_channel_:1 ~state:0. ~send_marker;
  Alcotest.(check bool) "complete" true (Classic_marker.complete n);
  Alcotest.(check int) "no duplicate markers" 2 (Classic_marker.markers_sent n)

let test_classic_marker_triggers_snapshot () =
  let n = Classic_marker.create ~n_in:1 ~n_out:3 in
  let sent = ref 0 in
  Classic_marker.on_packet n ~in_channel_:0 ~contribution:5.;
  (* Pre-snapshot packets are not channel state. *)
  Classic_marker.on_marker n ~in_channel_:0 ~state:42. ~send_marker:(fun ~out_channel_:_ -> incr sent);
  Alcotest.(check (option (float 1e-9))) "state from marker" (Some 42.)
    (Classic_marker.state n);
  Alcotest.(check (float 1e-9)) "channel closed immediately" 0.
    (Classic_marker.channel_state n 0);
  Alcotest.(check bool) "complete (single input)" true (Classic_marker.complete n);
  Alcotest.(check int) "cascaded markers" 3 !sent

(* Differential check against the Fig. 3 spec for one snapshot on a node
   with FIFO inputs: classic markers and piggybacked IDs must record the
   same state and channel contributions. *)
let test_classic_vs_ideal =
  QCheck.Test.make ~name:"classic CL == Fig.3 spec for a single snapshot" ~count:100
    QCheck.(pair small_int (int_range 1 3))
    (fun (seed, k) ->
      let rng = Rng.create (seed + 17) in
      let classic = Classic_marker.create ~n_in:k ~n_out:0 in
      let ideal = Ideal_unit.create ~n_neighbors:k ~channel_state:true in
      let state = ref 0. in
      (* Phase 1: pre-snapshot traffic. *)
      for _ = 1 to Rng.int rng 20 do
        let ch = Rng.int rng k in
        let _ = Ideal_unit.on_receive ideal ~sender:ch ~pkt_sid:0 ~contribution:1. in
        Ideal_unit.set_state ideal (Ideal_unit.state ideal +. 1.);
        Classic_marker.on_packet classic ~in_channel_:ch ~contribution:1.;
        state := !state +. 1.
      done;
      (* Snapshot initiates locally on both. *)
      Classic_marker.initiate classic ~state:!state ~send_marker:(fun ~out_channel_:_ -> ());
      Ideal_unit.initiate ideal ~sid:1;
      (* Phase 2: per channel, some in-flight packets then the boundary
         (marker / first packet stamped 1). *)
      for ch = 0 to k - 1 do
        for _ = 1 to Rng.int rng 4 do
          let _ = Ideal_unit.on_receive ideal ~sender:ch ~pkt_sid:0 ~contribution:1. in
          Ideal_unit.set_state ideal (Ideal_unit.state ideal +. 1.);
          Classic_marker.on_packet classic ~in_channel_:ch ~contribution:1.;
          state := !state +. 1.
        done;
        Classic_marker.on_marker classic ~in_channel_:ch ~state:!state
          ~send_marker:(fun ~out_channel_:_ -> ());
        let _ = Ideal_unit.on_receive ideal ~sender:ch ~pkt_sid:1 ~contribution:1. in
        Ideal_unit.set_state ideal (Ideal_unit.state ideal +. 1.);
        state := !state +. 1.
      done;
      (* The ideal unit aggregates channel state across channels; classic
         CL keeps it per channel — totals must agree, as must the recorded
         local state. *)
      let total_classic =
        List.fold_left
          (fun acc ch -> acc +. Classic_marker.channel_state classic ch)
          0.
          (List.init k (fun i -> i))
      in
      Classic_marker.complete classic
      && Classic_marker.state classic = Ideal_unit.snapshot_value ideal ~sid:1
      && total_classic = Ideal_unit.channel_state_of ideal ~sid:1)

(* ------------------------------------------------------------------ *)
(* Chart *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_chart_renders_markers () =
  let out =
    Chart.plot_xy
      [ ("a", [| (1., 1.); (2., 2.) |]); ("b", [| (1., 2.); (2., 1.) |]) ]
  in
  Alcotest.(check bool) "series a marker" true (contains out "*");
  Alcotest.(check bool) "series b marker" true (contains out "+");
  Alcotest.(check bool) "legend" true (contains out "[*] a" && contains out "[+] b")

let test_chart_log_skips_nonpositive () =
  let out =
    Chart.plot_xy ~x_scale:Chart.Log10
      [ ("s", [| (0., 5.); (10., 1.); (100., 2.) |]) ]
  in
  (* The zero-x point must be dropped, not crash. *)
  Alcotest.(check bool) "renders" true (String.length out > 0)

let test_chart_empty_rejected () =
  Alcotest.(check bool) "nothing to plot raises" true
    (try
       ignore (Chart.plot_xy [ ("empty", [||]) ]);
       false
     with Invalid_argument _ -> true)

let test_chart_cdfs () =
  let cdf = Cdf.of_samples (Array.init 100 (fun i -> float_of_int (i + 1))) in
  let out = Chart.plot_cdfs ~x_label:"value" [ ("data", cdf) ] in
  Alcotest.(check bool) "CDF axis label" true (contains out "CDF");
  Alcotest.(check bool) "x label" true (contains out "value")

(* ------------------------------------------------------------------ *)
(* Export *)

let test_export_quoting_and_roundtrip () =
  let path = Filename.temp_file "speedlight" ".csv" in
  Speedlight_experiments.Export.write_rows ~path ~header:[ "a"; "b" ]
    [ [ "plain"; "with,comma" ]; [ "with\"quote"; "x" ] ];
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  let lines = List.rev !lines in
  Alcotest.(check int) "3 lines" 3 (List.length lines);
  Alcotest.(check string) "header" "a,b" (List.nth lines 0);
  Alcotest.(check string) "comma quoted" "plain,\"with,comma\"" (List.nth lines 1);
  Alcotest.(check string) "quote escaped" "\"with\"\"quote\",x" (List.nth lines 2)

let test_export_cdfs () =
  let path = Filename.temp_file "speedlight" ".csv" in
  let cdf = Cdf.of_samples [| 1.; 2. |] in
  Speedlight_experiments.Export.cdfs ~path [ ("s", cdf) ];
  let ic = open_in path in
  let header = input_line ic in
  let row1 = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "header" "series,value,cumulative_probability" header;
  Alcotest.(check string) "first point" "s,1,0.5" row1

(* ------------------------------------------------------------------ *)
(* Monitor *)

let test_monitor_stream () =
  let host_link = { Topology.bandwidth_bps = 1e9; latency = Time.us 1 } in
  let fabric_link = { Topology.bandwidth_bps = 4e9; latency = Time.us 1 } in
  let ls = Topology.leaf_spine ~host_link ~fabric_link () in
  let cfg = Config.default |> Config.with_variant Snapshot_unit.variant_wraparound in
  let net = Net.create ~cfg ls.Topology.topo in
  let engine = Net.engine net in
  let seen = ref 0 in
  let mon =
    Monitor.start net ~period:(Time.ms 10) ~history:5
      ~on_snapshot:(fun _ -> incr seen)
      ()
  in
  Engine.run_until engine (Time.ms 125);
  Monitor.stop mon;
  Engine.run_until engine (Time.ms 300);
  Alcotest.(check bool) "snapshots taken" true (Monitor.taken mon >= 10);
  Alcotest.(check int) "all delivered to callback" (Monitor.taken mon) !seen;
  Alcotest.(check int) "history bounded" 5 (List.length (Monitor.history mon));
  Alcotest.(check int) "no pacing skips at this rate" 0 (Monitor.skipped mon);
  (* Stopped: no further snapshots. *)
  let after = Monitor.taken mon in
  Engine.run_until engine (Time.ms 400);
  Alcotest.(check int) "stopped" after (Monitor.taken mon);
  (* Per-unit series come from the retained history. *)
  let uid = Unit_id.ingress ~switch:0 ~port:0 in
  Alcotest.(check int) "series length = history" 5
    (Array.length (Monitor.series mon uid))

let test_monitor_skips_when_overrunning () =
  (* A period far below the completion latency must trip the pacing guard
     rather than raise. *)
  let host_link = { Topology.bandwidth_bps = 1e9; latency = Time.us 1 } in
  let fabric_link = { Topology.bandwidth_bps = 4e9; latency = Time.us 1 } in
  let ls = Topology.leaf_spine ~host_link ~fabric_link () in
  (* Channel state with zero traffic: completion waits for retry floods
     (~50 ms), so a 1 ms period overruns immediately. *)
  let net = Net.create ls.Topology.topo in
  let engine = Net.engine net in
  let mon = Monitor.start net ~period:(Time.ms 1) () in
  Engine.run_until engine (Time.ms 100);
  Monitor.stop mon;
  Alcotest.(check bool) "skipped ticks counted" true (Monitor.skipped mon > 0)

(* ------------------------------------------------------------------ *)
(* Control-plane loss-recovery equivalence *)

(* Drive the same data-plane history into two trackers: one receives
   every notification; the other loses a random subset but is allowed a
   final register poll. The paper's recovery is deliberately conservative
   ("handles notification drops conservatively", SS6): the lossy tracker
   must finalize the same snapshot range, never report a value the
   lossless one didn't, and may only downgrade consistent snapshots to
   inconsistent — never the reverse. *)
let test_tracker_loss_recovery_equivalence =
  QCheck.Test.make ~name:"dropped notifications + poll: conservative recovery"
    ~count:60
    QCheck.(pair small_int (int_range 1 6))
    (fun (seed, epochs) ->
      let rng = Rng.create (seed + 31) in
      let mk () =
        let notifs = Queue.create () in
        let u =
          Snapshot_unit.create
            ~id:(Unit_id.ingress ~switch:0 ~port:0)
            ~cfg:Snapshot_unit.variant_channel_state ~n_neighbors:3
            ~counter:(Counter.packet_count ())
            ~notify:(fun n -> Queue.push n notifs)
            ()
        in
        let reports = ref [] in
        let tracker =
          Cp_tracker.create ~channel_state:true
            ~units:[ { Cp_tracker.unit_ = u; excluded_neighbors = [] } ]
            ~report:(fun r -> reports := r :: !reports)
            ()
        in
        (u, notifs, tracker, reports)
      in
      let u1, n1, t1, r1 = mk () in
      let u2, n2, t2, r2 = mk () in
      (* Identical data-plane history on both units. *)
      let uid = ref 0 in
      let feed f =
        incr uid;
        f u1;
        f u2
      in
      for e = 1 to epochs do
        feed (fun u -> Snapshot_unit.process_initiation u ~now:!uid ~sid:e ~ghost_sid:e);
        for ch = 1 to 2 do
          for _ = 0 to Rng.int rng 2 do
            feed (fun u ->
                let p =
                  Packet.create ~uid:!uid ~flow_id:1 ~src_host:0 ~dst_host:1
                    ~size:100 ~created:0 ()
                in
                Packet.set_snap p ~sid:e ~channel:ch ~ghost_sid:e;
                Snapshot_unit.process_packet u ~now:!uid p)
          done
        done
      done;
      (* Tracker 1: lossless. Tracker 2: ~40% loss, then a poll. *)
      Queue.iter (fun n -> Cp_tracker.on_notify t1 ~now:0 n) n1;
      Queue.iter
        (fun n -> if not (Rng.bernoulli rng 0.4) then Cp_tracker.on_notify t2 ~now:0 n)
        n2;
      Cp_tracker.poll t2 ~now:1;
      let by_sid l =
        List.sort (fun (a : Report.t) b -> compare a.Report.sid b.Report.sid) l
      in
      let l1 = by_sid !r1 and l2 = by_sid !r2 in
      List.length l1 = List.length l2
      && List.for_all2
           (fun (a : Report.t) (b : Report.t) ->
             a.Report.sid = b.Report.sid
             && (* never falsely consistent after loss *)
             ((not b.Report.consistent)
             || (a.Report.consistent && a.Report.value = b.Report.value
                && a.Report.channel = b.Report.channel)))
           l1 l2
      && (* the lossless run of this schedule is fully consistent *)
      List.for_all (fun (r : Report.t) -> r.Report.consistent) l1
      && Cp_tracker.finished_through t1 (Snapshot_unit.id u1)
         = Cp_tracker.finished_through t2 (Snapshot_unit.id u2))

(* ------------------------------------------------------------------ *)
(* Marker-overhead ablation *)

let test_marker_overhead () =
  let r = Speedlight_experiments.Ablations.run_marker_overhead () in
  (* Leaf-spine testbed: 2 leaves with 5 connected ports (5*4=20 internal
     channels each) + 2 spines with 2 ports (2 each) + 8 directed wires. *)
  Alcotest.(check int) "directed channels" 52
    r.Speedlight_experiments.Ablations.directed_channels;
  Alcotest.(check int) "marker bytes" (52 * 64)
    r.Speedlight_experiments.Ablations.marker_bytes_per_snapshot;
  Alcotest.(check int) "header bytes (chnl state)" 8
    r.Speedlight_experiments.Ablations.header_bytes_per_packet;
  let no_cs =
    Speedlight_experiments.Ablations.run_marker_overhead ~channel_state:false ()
  in
  Alcotest.(check int) "header bytes (no chnl state)" 4
    no_cs.Speedlight_experiments.Ablations.header_bytes_per_packet

let q = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "extensions"
    [
      ( "sketch",
        [
          Alcotest.test_case "exact when sparse" `Quick test_sketch_exact_when_sparse;
          Alcotest.test_case "error bound" `Quick test_sketch_error_bound;
          Alcotest.test_case "reset" `Quick test_sketch_reset;
          Alcotest.test_case "counter" `Quick test_sketch_counter;
          Alcotest.test_case "snapshot integration" `Slow test_sketch_snapshot_integration;
          q test_sketch_never_underestimates;
        ] );
      ( "classic_marker",
        [
          Alcotest.test_case "basic flow" `Quick test_classic_basic_flow;
          Alcotest.test_case "marker triggers snapshot" `Quick
            test_classic_marker_triggers_snapshot;
          q test_classic_vs_ideal;
        ] );
      ( "chart",
        [
          Alcotest.test_case "markers + legend" `Quick test_chart_renders_markers;
          Alcotest.test_case "log skips nonpositive" `Quick test_chart_log_skips_nonpositive;
          Alcotest.test_case "empty rejected" `Quick test_chart_empty_rejected;
          Alcotest.test_case "cdfs" `Quick test_chart_cdfs;
        ] );
      ( "export",
        [
          Alcotest.test_case "quoting" `Quick test_export_quoting_and_roundtrip;
          Alcotest.test_case "cdf csv" `Quick test_export_cdfs;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "stream" `Quick test_monitor_stream;
          Alcotest.test_case "pacing skips" `Quick test_monitor_skips_when_overrunning;
        ] );
      ( "ablation",
        [ Alcotest.test_case "marker overhead" `Quick test_marker_overhead ] );
      ( "loss_recovery",
        [ q test_tracker_loss_recovery_equivalence ] );
    ]
