(* Smoke tests of the experiment harnesses: each must run (at reduced
   size), produce structurally sane results, and print without error.
   Full-scale reproduction numbers are recorded in EXPERIMENTS.md. *)

open Speedlight_stats
open Speedlight_experiments

let null_fmt = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let test_table1 () =
  let rows = Table1.run () in
  Alcotest.(check int) "three variants" 3 (List.length rows);
  Table1.print null_fmt rows

let test_fig10_shape () =
  let r = Fig10.run ~quick:true () in
  Alcotest.(check int) "five port counts" 5 (List.length r);
  (* Rate must decrease with port count (~1/ports). *)
  let rates = List.map (fun p -> p.Fig10.max_rate_hz) r in
  let rec decreasing = function
    | a :: b :: rest -> a > b && decreasing (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "monotone decreasing" true (decreasing rates);
  (* Paper: >70 Hz at 64 ports. *)
  let at64 = List.nth rates 4 in
  Alcotest.(check bool) "at 64 ports near paper (>50 Hz)" true (at64 > 50.);
  Fig10.print null_fmt r

let test_fig11_shape () =
  let r = Fig11.run ~quick:true () in
  Alcotest.(check int) "seven sizes" 7 (List.length r);
  let first = List.hd r and last = List.nth r (List.length r - 1) in
  Alcotest.(check bool) "grows with size" true
    (last.Fig11.avg_sync_us > first.Fig11.avg_sync_us);
  Alcotest.(check bool) "under 120us at 10k routers" true
    (last.Fig11.avg_sync_us < 120.);
  Alcotest.(check bool) "over 5us at 10 routers" true (first.Fig11.avg_sync_us > 5.);
  Fig11.print null_fmt r

let test_fig9_shape () =
  let r = Fig9.run ~quick:true () in
  (* Snapshots must beat polling by orders of magnitude. *)
  Alcotest.(check bool) "snapshot sync well under polling" true
    (Cdf.median r.Fig9.no_cs *. 50. < Cdf.median r.Fig9.polling);
  Alcotest.(check bool) "polling in the milliseconds" true
    (Cdf.median r.Fig9.polling > 1_000.);
  Alcotest.(check bool) "no-CS median in single-digit us" true
    (Cdf.median r.Fig9.no_cs > 1. && Cdf.median r.Fig9.no_cs < 20.);
  Alcotest.(check bool) "channel state has a longer tail" true
    (Cdf.max r.Fig9.with_cs >= Cdf.max r.Fig9.no_cs);
  Fig9.print null_fmt r

(* The parallel-trials contract: every trial is seeded and self-contained,
   so the figure must come out bit-identical no matter how many domains
   execute it. *)
let test_fig9_domain_determinism () =
  let with_domains n f =
    let prev = Speedlight_sim.Pool.default_domains () in
    Speedlight_sim.Pool.set_default_domains n;
    Fun.protect ~finally:(fun () -> Speedlight_sim.Pool.set_default_domains prev) f
  in
  let r1 = with_domains 1 (fun () -> Fig9.run ~quick:true ()) in
  let r4 = with_domains 4 (fun () -> Fig9.run ~quick:true ()) in
  Alcotest.(check bool) "1-domain and 4-domain runs bit-identical" true (r1 = r4)

(* The sharded-simulation contract (DESIGN.md "Parallel simulation"): for
   a fixed seed, partitioning the switch graph across domains must change
   nothing observable — same packet counts, same snapshot reports, byte
   for byte. Exercised on the fig9 testbed topology with real traffic,
   auto-exclusion as a global action, and the full snapshot protocol. *)
let sharded_testbed_digest ~shards ~seed =
  let open Speedlight_sim in
  let open Speedlight_net in
  let open Speedlight_topology in
  let open Speedlight_workload in
  let cfg = Config.default |> Config.with_seed seed in
  let host_link, fabric_link = Common.testbed_links ~scaled:true in
  let ls = Topology.leaf_spine ~host_link ~fabric_link () in
  let net = Net.create ~cfg ~shards ls.Topology.topo in
  let engine = Net.engine net in
  let rng = Net.fresh_rng net in
  let fids = Traffic.flow_ids () in
  let hosts = Array.to_list ls.Topology.host_of_server in
  Apps.Uniform.run ~engine ~rng ~send:(Common.sender net) ~fids ~hosts
    ~rate_pps:20_000. ~pkt_size:1500 ~until:(Time.ms 40);
  Net.schedule_global net ~at:(Time.ms 15) (fun () -> Net.auto_exclude_idle net);
  let sids =
    Common.take_snapshots net ~start:(Time.ms 20) ~interval:(Time.ms 6) ~count:5
      ~run_until:(Time.ms 90)
  in
  (Common.run_digest net ~sids, Net.n_shards net)

let test_sharded_equivalence () =
  let d1, n1 = sharded_testbed_digest ~shards:1 ~seed:7 in
  let d2, n2 = sharded_testbed_digest ~shards:2 ~seed:7 in
  let d4, n4 = sharded_testbed_digest ~shards:4 ~seed:7 in
  Alcotest.(check int) "serial" 1 n1;
  Alcotest.(check int) "two shards" 2 n2;
  Alcotest.(check int) "four shards" 4 n4;
  Alcotest.(check string) "2 domains == serial" d1 d2;
  Alcotest.(check string) "4 domains == serial" d1 d4;
  (* A different seed must give a different run (the digest is not
     degenerate). *)
  let d1', _ = sharded_testbed_digest ~shards:1 ~seed:8 in
  Alcotest.(check bool) "digest sensitive to the run" false (d1 = d1')

(* Heavy-hitter cells and chain replicas on the same leaves: a leaf
   builds its HH units (Ingress virtual ports) before its chain units
   (Egress virtual ports), so construction order interleaves against
   Unit_id order there. *)
let apps_digest ~seed =
  let open Speedlight_sim in
  let open Speedlight_net in
  let open Speedlight_topology in
  let open Speedlight_workload in
  let ls = Topology.leaf_spine ~leaves:3 ~spines:2 ~hosts_per_leaf:2 () in
  let cfg =
    Config.default |> Config.with_seed seed
    |> Config.with_apps
         {
           Speedlight_apps.Apps.hh =
             Some { Speedlight_apps.Precision.entries = 2; recirc_passes = 1 };
           chain =
             Some
               { Speedlight_apps.Netchain.replicas = ls.Topology.leaf_switches; keys = 2 };
         }
  in
  let cfg = { cfg with Config.notify_proc_time = Time.us 25 } in
  let net = Net.create ~cfg ls.Topology.topo in
  let engine = Net.engine net in
  let rng = Net.fresh_rng net in
  let fids = Traffic.flow_ids () in
  let hosts = Array.to_list ls.Topology.host_of_server in
  Apps.Uniform.run ~engine ~rng ~send:(Common.sender net) ~fids ~hosts
    ~rate_pps:20_000. ~pkt_size:200 ~until:(Time.ms 40);
  for i = 0 to 3 do
    Net.chain_write net ~at:(Time.ms (18 + (4 * i))) ~key:(i mod 2) ~value:(100 + i)
  done;
  Net.schedule_global net ~at:(Time.ms 12) (fun () -> Net.auto_exclude_idle net);
  let sids =
    Common.take_snapshots net ~start:(Time.ms 16) ~interval:(Time.ms 3) ~count:8
      ~run_until:(Time.ms 60)
  in
  Common.run_digest net ~sids

(* The k=4 fat tree without channel state, one switch left out of the
   snapshot deployment, and only the last two finished rounds kept. *)
let partial_fat_tree_digest ~seed =
  let open Speedlight_sim in
  let open Speedlight_net in
  let open Speedlight_core in
  let open Speedlight_topology in
  let open Speedlight_workload in
  let cfg =
    Config.default |> Config.with_seed seed
    |> Config.with_variant Snapshot_unit.variant_wraparound
  in
  let cfg =
    { cfg with Config.observer_retain = Some 2; snapshot_disabled_switches = [ 5 ] }
  in
  let ft = Topology.fat_tree ~k:4 () in
  let net = Net.create ~cfg ft.Topology.ft_topo in
  let engine = Net.engine net in
  let rng = Net.fresh_rng net in
  let fids = Traffic.flow_ids () in
  let hosts = Array.to_list ft.Topology.ft_hosts in
  Apps.Uniform.run ~engine ~rng ~send:(Common.sender net) ~fids ~hosts
    ~rate_pps:10_000. ~pkt_size:1500 ~until:(Time.ms 10);
  let sids =
    Common.take_snapshots net ~start:(Time.ms 5) ~interval:(Time.ms 2) ~count:5
      ~run_until:(Time.ms 25)
  in
  Common.run_digest net ~sids

(* Golden serial digests, captured before the parallel-core overhaul
   (BFS-only partitioner, monolithic heap, 3-barrier coordinator). The
   event core is the regression oracle for every optimization behind
   it: if one of these moves, serial behavior changed — a much stronger
   claim than shards merely agreeing with each other. Keys: MD5 of
   [Common.run_digest] over the full delivered/forwarded/drop/snapshot
   report. The apps and partial fat-tree pins were captured
   before units carried a dense index from data plane to observer. *)
let test_golden_serial_digests () =
  let check name expect digest =
    Alcotest.(check string) name expect (Digest.to_hex (Digest.string digest))
  in
  let d7, _ = sharded_testbed_digest ~shards:1 ~seed:7 in
  check "testbed seed 7" "649101faacdfc3a75da0cd8954e22ce1" d7;
  let d8, _ = sharded_testbed_digest ~shards:1 ~seed:8 in
  check "testbed seed 8" "5b60921f6237c92e7b1b6b938dcaa95e" d8;
  check "apps seed 91" "c51e08c3bc77aca2b35b3c0aabd22d84" (apps_digest ~seed:91);
  check "partial fat tree seed 7" "ded38d9eade494e5acd9e3e25120460e"
    (partial_fat_tree_digest ~seed:7)

(* 8-way sharding needs a topology with enough switches for eight
   non-empty parts: the k=4 fat tree (20 switches). The leaf-spine
   testbed above clamps at 4. *)
let fat_tree_digest ~shards ~seed =
  let open Speedlight_sim in
  let open Speedlight_net in
  let open Speedlight_topology in
  let open Speedlight_workload in
  let cfg = Config.default |> Config.with_seed seed in
  let ft = Topology.fat_tree ~k:4 () in
  let net = Net.create ~cfg ~shards ft.Topology.ft_topo in
  let engine = Net.engine net in
  let rng = Net.fresh_rng net in
  let fids = Traffic.flow_ids () in
  let hosts = Array.to_list ft.Topology.ft_hosts in
  Apps.Uniform.run ~engine ~rng ~send:(Common.sender net) ~fids ~hosts
    ~rate_pps:10_000. ~pkt_size:1500 ~until:(Time.ms 10);
  Net.schedule_global net ~at:(Time.ms 4) (fun () -> Net.auto_exclude_idle net);
  let sids =
    Common.take_snapshots net ~start:(Time.ms 5) ~interval:(Time.ms 2) ~count:3
      ~run_until:(Time.ms 20)
  in
  (Common.run_digest net ~sids, Net.n_shards net)

let test_sharded_equivalence_8 () =
  let d1, n1 = fat_tree_digest ~shards:1 ~seed:7 in
  let d8, n8 = fat_tree_digest ~shards:8 ~seed:7 in
  Alcotest.(check int) "serial" 1 n1;
  Alcotest.(check int) "eight shards" 8 n8;
  Alcotest.(check string) "8 domains == serial" d1 d8;
  Alcotest.(check string) "fat-tree serial digest pinned"
    "bd73a2f130655368cee6aadf2c3e42ba"
    (Digest.to_hex (Digest.string d1))

let test_fig13_shape () =
  let r = Fig13.run ~quick:true () in
  let n = Array.length r.Fig13.snap.Fig13.units in
  Alcotest.(check int) "14 egress ports" 14 n;
  Alcotest.(check int) "matrices square" n (Array.length r.Fig13.snap.Fig13.rho);
  Alcotest.(check bool) "snapshots find significant pairs" true
    (r.Fig13.snap_sig_pairs > 0);
  Fig13.print null_fmt r

let test_ablation_initiator () =
  let r = Ablations.run_initiator ~quick:true () in
  Alcotest.(check bool) "single initiator much worse" true
    (Cdf.median r.Ablations.single_sync > 3. *. Cdf.median r.Ablations.multi_sync);
  Alcotest.(check bool) "single initiator misses units" true
    (r.Ablations.single_unreached > 0);
  Ablations.print_initiator null_fmt r

let test_ablation_notifications () =
  let r = Ablations.run_notifications ~quick:true () in
  Alcotest.(check bool) "channel state costs more notifications" true
    (r.Ablations.with_cs_per_snapshot > r.Ablations.no_cs_per_snapshot);
  Alcotest.(check bool) "no-CS is ~2 per unit (28 units)" true
    (r.Ablations.no_cs_per_snapshot > 20. && r.Ablations.no_cs_per_snapshot < 40.);
  Ablations.print_notifications null_fmt r

let test_scale_sharded () =
  let r = Scale.run_sharded ~quick:true () in
  Alcotest.(check int) "three domain counts" 3 (List.length r);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "k=%d domains=%d digest matches serial" p.Scale.sp_k
           p.Scale.sp_domains)
        true p.Scale.sp_identical;
      if p.Scale.sp_domains > 1 then
        Alcotest.(check bool) "sharded runs have positive lookahead" true
          (p.Scale.sp_lookahead_us > 0.))
    r;
  Scale.print_sharded null_fmt r

let test_scale_extension () =
  let r = Scale.run ~quick:true () in
  List.iter
    (fun p ->
      Alcotest.(check bool) "measured within 3x of prediction" true
        (p.Scale.measured_avg_us < 3. *. p.Scale.predicted_avg_us
        && p.Scale.measured_avg_us *. 3. > p.Scale.predicted_avg_us);
      Alcotest.(check bool) "sane magnitude (<100us)" true
        (p.Scale.measured_avg_us < 100.))
    r;
  Scale.print null_fmt r

let test_chaos_smoke () =
  (* Two audited points: a clean baseline and a heavy-fault run. The
     baseline must be fully certified; the faulted run may degrade but
     never lie. *)
  let clean = Chaos.run_point ~quick:true ~seed:31 ~intensity:0. () in
  Alcotest.(check bool) "clean run completes" true
    (clean.Chaos.completion_rate > 0.99);
  Alcotest.(check int) "clean run: no false consistents" 0
    clean.Chaos.false_consistent;
  Alcotest.(check bool) "clean run: snapshots certified" true
    (clean.Chaos.certified > 0);
  let hot = Chaos.run_point ~quick:true ~seed:31 ~intensity:1. () in
  Alcotest.(check bool) "faults actually injected" true
    (hot.Chaos.injected_drops > 0 && hot.Chaos.faults_fired > 0);
  Alcotest.(check int) "chaos run: no false consistents" 0
    hot.Chaos.false_consistent;
  Chaos.print null_fmt [ clean; hot ]

let () =
  Alcotest.run "experiments"
    [
      ( "harness",
        [
          Alcotest.test_case "table1" `Quick test_table1;
          Alcotest.test_case "fig10 shape" `Slow test_fig10_shape;
          Alcotest.test_case "fig11 shape" `Quick test_fig11_shape;
          Alcotest.test_case "fig9 shape" `Slow test_fig9_shape;
          Alcotest.test_case "fig9 domain determinism" `Slow
            test_fig9_domain_determinism;
          Alcotest.test_case "sharded == serial (1/2/4 domains)" `Quick
            test_sharded_equivalence;
          Alcotest.test_case "golden serial digests" `Quick
            test_golden_serial_digests;
          Alcotest.test_case "sharded == serial (8 domains, fat tree)" `Quick
            test_sharded_equivalence_8;
          Alcotest.test_case "fig13 shape" `Slow test_fig13_shape;
          Alcotest.test_case "ablation: initiator" `Slow test_ablation_initiator;
          Alcotest.test_case "ablation: notifications" `Slow test_ablation_notifications;
          Alcotest.test_case "scale extension" `Slow test_scale_extension;
          Alcotest.test_case "scale sharded (fat tree)" `Quick test_scale_sharded;
          Alcotest.test_case "chaos sweep smoke (audited)" `Quick
            test_chaos_smoke;
        ] );
    ]
