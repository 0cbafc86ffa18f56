(* Macro-benchmark: end-to-end simulator throughput.

   Runs the paper's leaf–spine testbed at line rate with periodic
   snapshots and measures wall-clock packets/sec, events/sec and
   snapshots/sec — first serial, then with the topology sharded across
   1/2/4/8 domains (the conservative parallel backend). Writes the
   numbers to BENCH_sim.json (override with [-o PATH]) so the perf
   trajectory is tracked across PRs.

   The sharded entries record [serial_wall_s] and [speedup] relative to
   the serial run of the same configuration, plus [identical]: whether
   the sharded run's digest (all packet counts and snapshot reports)
   matched the serial run byte for byte. Speedup above 1 requires real
   cores; on a single-CPU machine the domains time-slice and the
   barrier overhead shows up as speedup < 1.

   Modes: full (default, ~200 ms of simulated time) or quick
   ([--quick] or SPEEDLIGHT_QUICK=1, ~15 ms — a smoke test wired into
   the @bench-quick dune alias). *)

open Speedlight_sim
open Speedlight_net
open Speedlight_topology
open Speedlight_workload
open Speedlight_experiments
open Speedlight_trace

type result = {
  domains : int;
  sim_ms : int;
  wall_s : float;
  delivered : int;
  forwarded : int;
  events : int;
  snapshots_complete : int;
  snapshots_taken : int;
  packets_per_sec : float;
  events_per_sec : float;
  snapshots_per_sec : float;
  digest : string;
  metrics : Metrics.t;
  part : Partition.report option;
  stats : Shard.stats option;
  peak_rss_kb : int;  (* process VmHWM right after the run; -1 if unavailable *)
}

(* Process-cumulative peak RSS (VmHWM); every BENCH_sim.json section
   carries the reading taken right after it ran, so the growth between
   sections attributes memory to the stage that caused it. *)
let rss_now () =
  match Common.peak_rss_kb () with Some kb -> kb | None -> -1

(* [fat_tree:false] is the paper's 4-switch leaf–spine testbed — the
   headline throughput configuration benched since PR 1. The sharded
   sweep instead uses a k=4 fat tree (20 switches): with only 4
   switches a shard is a single switch and there is nothing to scale;
   the fat tree gives each domain several switches of work per epoch. *)
let run ~quick ~fat_tree ~domains =
  let sim_ms = if quick then 15 else 200 in
  let rate_pps = if fat_tree then 50_000. else 150_000. in
  let interval_ms = 5 in
  let cfg = Config.default |> Config.with_seed 77 in
  let net, hosts =
    if fat_tree then begin
      let ft = Topology.fat_tree ~k:4 () in
      ( Net.create ~cfg ~shards:domains ft.Topology.ft_topo,
        Array.to_list ft.Topology.ft_hosts )
    end
    else begin
      let host_link, fabric_link = Common.testbed_links ~scaled:false in
      let ls = Topology.leaf_spine ~host_link ~fabric_link () in
      ( Net.create ~cfg ~shards:domains ls.Topology.topo,
        Array.to_list ls.Topology.host_of_server )
    end
  in
  let metrics = Metrics.create () in
  Net.register_metrics net metrics;
  Net.set_epoch_timing net true;
  let engine = Net.engine net in
  let rng = Net.fresh_rng net in
  let fids = Traffic.flow_ids () in
  let t_end = Time.ms sim_ms in
  (* [Speedlight_experiments.Apps] (the in-switch application campaign)
     shadows the workload's traffic-generator [Apps]; qualify the latter. *)
  Speedlight_workload.Apps.Uniform.run ~engine ~rng ~send:(Common.sender net)
    ~fids ~hosts ~rate_pps ~pkt_size:1500 ~until:t_end;
  (* Channels the workload never exercises must be excluded or no
     snapshot can complete (§6); same warm-up step as fig9. Scheduled as
     a global action: it reads every switch at once. *)
  Net.schedule_global net ~at:(Time.ms 4) (fun () -> Net.auto_exclude_idle net);
  let count = Stdlib.max 1 ((sim_ms - 5) / interval_ms) in
  let t0 = Unix.gettimeofday () in
  let sids =
    Common.take_snapshots net ~start:(Time.ms 5) ~interval:(Time.ms interval_ms)
      ~count
      ~run_until:(Time.add t_end (Time.ms 20))
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let delivered = Net.delivered net in
  let forwarded =
    List.fold_left
      (fun acc s -> acc + Switch.total_forwarded (Net.switch net s))
      0
      (List.init (Topology.n_switches (Net.topology net)) (fun s -> s))
  in
  let events = Net.events net in
  let snapshots_complete =
    List.length
      (List.filter
         (fun sid ->
           match Net.result net ~sid with
           | Some s -> s.Speedlight_core.Observer.complete
           | None -> false)
         sids)
  in
  {
    domains = Net.n_shards net;
    sim_ms;
    wall_s;
    delivered;
    forwarded;
    events;
    snapshots_complete;
    snapshots_taken = List.length sids;
    packets_per_sec = float_of_int delivered /. wall_s;
    events_per_sec = float_of_int events /. wall_s;
    snapshots_per_sec = float_of_int snapshots_complete /. wall_s;
    digest = Common.run_digest net ~sids;
    metrics;
    part = Net.partition_report net;
    stats = Net.shard_stats net;
    peak_rss_kb = rss_now ();
  }

(* One point of the speedup curve. Partition quality comes from
   [Net.partition_report]; epoch statistics from the accumulated
   [Net.shard_stats] of the run ([avg_epoch_us] is simulated time per
   ordinary epoch; [barrier_wait_frac] the fraction of total worker
   wall time spent parked at barriers). The 1-domain point reports the
   serial path: no partition, no epochs. *)
let speedup_entry ~base r =
  let cut_edges, cut_w, seed_w =
    match r.part with
    | Some (p : Partition.report) ->
        (p.Partition.cut_edges, p.Partition.cut_weight, p.Partition.seed_cut_weight)
    | None -> (0, 0, 0)
  in
  let epochs, global_rounds, avg_epoch_us, barrier_frac =
    match r.stats with
    | Some (s : Shard.stats) when s.Shard.epochs > 0 ->
        let sim_ns = 1e6 *. float_of_int (r.sim_ms + 20) in
        ( s.Shard.epochs,
          s.Shard.global_rounds,
          sim_ns /. (1e3 *. float_of_int s.Shard.epochs),
          if s.Shard.wall_ns > 0. then
            s.Shard.barrier_wait_ns
            /. (s.Shard.wall_ns *. float_of_int s.Shard.workers)
          else 0. )
    | _ -> (0, 0, 0., 0.)
  in
  Printf.sprintf
    "    {\n\
    \      \"domains\": %d,\n\
    \      \"wall_s\": %.3f,\n\
    \      \"serial_wall_s\": %.3f,\n\
    \      \"speedup\": %.3f,\n\
    \      \"events_per_sec\": %.0f,\n\
    \      \"cut_edges\": %d,\n\
    \      \"cut_weight\": %d,\n\
    \      \"seed_cut_weight\": %d,\n\
    \      \"epochs\": %d,\n\
    \      \"global_rounds\": %d,\n\
    \      \"avg_epoch_us\": %.1f,\n\
    \      \"barrier_wait_frac\": %.3f,\n\
    \      \"peak_rss_kb\": %d,\n\
    \      \"identical\": %b\n\
    \    }"
    r.domains r.wall_s base.wall_s (base.wall_s /. r.wall_s)
    r.events_per_sec cut_edges cut_w seed_w epochs global_rounds avg_epoch_us
    barrier_frac r.peak_rss_kb
    (String.equal r.digest base.digest)

(* Disabled-tracing overhead probe. The instrumentation contract is
   that with no recorder attached every trace site costs a single
   guarded branch ([Trace.enabled] on a detached emitter) — the payload
   is never even allocated. Measure that branch directly (net of the
   timing loop itself), count how many guarded sites the testbed
   actually executes per engine event from a recorded run of the same
   topology, and project onto the serial run with a 1.5x safety margin;
   the projection must stay under 2% of the run's wall time or the
   bench fails. *)
let overhead_budget = 0.02

type overhead = { ns_per_site : float; sites : int; frac : float }

let trace_overhead ~serial =
  let e = Sys.opaque_identity (Trace.make_emitter ~src:0) in
  let iters = 20_000_000 in
  let acc = ref 0 in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  (* Identical loop bodies except for the guard, so the difference
     isolates the guard's cost. *)
  let base =
    time (fun () ->
        for i = 0 to iters - 1 do
          acc := !acc lxor i
        done)
  in
  let guarded =
    time (fun () ->
        for i = 0 to iters - 1 do
          acc := !acc lxor i;
          if Trace.enabled e then
            Trace.emit e ~at:i
              (Trace.Chan_drop { ch = Trace.Nic; sw = 0; port = -1 })
        done)
  in
  ignore (Sys.opaque_identity !acc);
  let per_site = Float.max 0. (guarded -. base) /. float_of_int iters in
  (* Guarded sites per engine event, measured where recording counts
     them: a traced quick run of the same leaf-spine testbed. *)
  let density =
    let r = Tracing.run ~quick:true ~seed:77 ~shards:1 () in
    let emitted = float_of_int (Trace.events_recorded r.Tracing.trace) in
    let engine_events =
      match List.assoc_opt "net.engine_events" (Metrics.snapshot r.Tracing.metrics) with
      | Some v when v > 0. -> v
      | _ -> emitted
    in
    emitted /. engine_events
  in
  let sites =
    int_of_float (1.5 *. density *. float_of_int serial.events)
  in
  {
    ns_per_site = per_site *. 1e9;
    sites;
    frac = per_site *. float_of_int sites /. serial.wall_s;
  }

(* Quick chaos probe: the fault-injection sweep at three intensities,
   with the cut auditor attached. Tracks how robust the protocol is to
   loss/crashes across PRs; any false-consistent snapshot fails the
   bench (a safety bug, not a perf number). *)
let chaos_intensities = [ 0.; 0.5; 1. ]

let run_chaos ~quick =
  List.map
    (fun i ->
      let p = Chaos.run_point ~quick ~seed:101 ~intensity:i () in
      (p, rss_now ()))
    chaos_intensities

let chaos_entry ((p : Chaos.point), rss) =
  Printf.sprintf
    "    {\n\
    \      \"intensity\": %.2f,\n\
    \      \"completion_rate\": %.3f,\n\
    \      \"consistent_rate\": %.3f,\n\
    \      \"mean_retries\": %.3f,\n\
    \      \"staleness_us\": %.1f,\n\
    \      \"injected_drops\": %d,\n\
    \      \"false_consistent\": %d,\n\
    \      \"peak_rss_kb\": %d\n\
    \    }"
    p.Chaos.intensity p.Chaos.completion_rate p.Chaos.consistent_rate
    p.Chaos.mean_retries
    (if Float.is_nan p.Chaos.mean_staleness_us then -1.
     else p.Chaos.mean_staleness_us)
    p.Chaos.injected_drops p.Chaos.false_consistent rss

(* Quick timed-update probe: the closed-loop Time4 campaign (both
   transition scenarios under all three strategies plus the PTP-step
   interaction). Tracks apply spread and transient loss across PRs; a
   timed update the snapshot auditor does not certify atomic fails the
   bench (a safety bug, not a perf number). *)
let update_entry (p : Speedlight_experiments.Update.point) =
  let module Upd = Speedlight_experiments.Update in
  Printf.sprintf
    "    {\n\
    \      \"scenario\": %S,\n\
    \      \"mode\": %S,\n\
    \      \"clock_step\": %b,\n\
    \      \"outcome\": %S,\n\
    \      \"spread_us\": %.1f,\n\
    \      \"ptp_err_us\": %.3f,\n\
    \      \"transient_drops\": %d,\n\
    \      \"loop_rounds\": %d,\n\
    \      \"hole_rounds\": %d,\n\
    \      \"mixed_rounds\": %d,\n\
    \      \"rounds\": %d,\n\
    \      \"fired\": %d,\n\
    \      \"expired\": %d\n\
    \    }"
    p.Upd.pt_scenario p.Upd.pt_mode p.Upd.pt_clock_step p.Upd.pt_outcome
    (if Float.is_nan p.Upd.pt_spread_us then -1. else p.Upd.pt_spread_us)
    p.Upd.pt_ptp_err_us p.Upd.pt_transient_drops p.Upd.pt_loop_rounds
    p.Upd.pt_hole_rounds p.Upd.pt_mixed p.Upd.pt_rounds p.Upd.pt_fired
    p.Upd.pt_expired

(* One point of the datacenter-scale sweep (Scale.fig11_large): flat
   arena state + streaming capture at 1k-10k switches. *)
let large_point_entry (p : Scale.large_point) =
  Printf.sprintf
    "    {\n\
    \      \"label\": %S,\n\
    \      \"switches\": %d,\n\
    \      \"hosts\": %d,\n\
    \      \"units\": %d,\n\
    \      \"shards\": %d,\n\
    \      \"flows\": %d,\n\
    \      \"events\": %d,\n\
    \      \"snapshots_taken\": %d,\n\
    \      \"snapshots_complete\": %d,\n\
    \      \"archived_rounds\": %d,\n\
    \      \"wall_s\": %.3f,\n\
    \      \"events_per_sec\": %.0f,\n\
    \      \"snapshots_per_sec\": %.2f,\n\
    \      \"peak_rss_kb\": %d\n\
    \    }"
    p.Scale.lp_label p.Scale.lp_switches p.Scale.lp_hosts p.Scale.lp_units
    p.Scale.lp_shards p.Scale.lp_flows p.Scale.lp_events
    p.Scale.lp_snapshots_taken p.Scale.lp_snapshots_complete
    p.Scale.lp_archived_rounds p.Scale.lp_wall_s p.Scale.lp_events_per_sec
    p.Scale.lp_snapshots_per_sec p.Scale.lp_peak_rss_kb

let large_scale_json (r : Scale.large_result) =
  Printf.sprintf
    "  \"large_scale\": {\n\
    \    \"digest_identical\": %b,\n\
    \    \"archive_identical\": %b,\n\
    \    \"points\": [\n%s\n    ]\n\
    \  }"
    r.Scale.lr_digest_identical r.Scale.lr_archive_identical
    (String.concat ",\n"
       (List.map
          (fun p -> "    " ^ large_point_entry p)
          r.Scale.lr_points))

(* Quick apps probe: the in-switch application campaign (DESIGN.md §15)
   — PRECISION heavy hitters plus the NetChain replica chain, audited on
   consistent cuts against the staggered-polling baseline. Tracks the
   chain-consistency and heavy-hitter accuracy numbers across PRs; a
   failed gate (a certified cut showing a violation on a healthy chain,
   a missed replication fault, diverging shard digests, or the apps no
   longer fitting the chip) fails the bench. *)
let run_apps ~quick = (Apps.run ~quick (), rss_now ())

let apps_json ((r : Apps.result), rss) =
  Printf.sprintf
    "  \"apps\": {\n\
    \    \"healthy_rounds\": %d,\n\
    \    \"healthy_certified\": %d,\n\
    \    \"healthy_violated_rounds\": %d,\n\
    \    \"healthy_in_flight_cells\": %d,\n\
    \    \"faulty_certified\": %d,\n\
    \    \"faulty_violated_rounds\": %d,\n\
    \    \"faulty_skipped_applies\": %d,\n\
    \    \"poll_tolerance\": %d,\n\
    \    \"poll_healthy_strict_fp\": %d,\n\
    \    \"poll_faulty_tolerant_hits\": %d,\n\
    \    \"hh_precision\": %.3f,\n\
    \    \"hh_recall\": %.3f,\n\
    \    \"hh_replacements\": %d,\n\
    \    \"shards_agree\": %b,\n\
    \    \"fits_capacity\": %b,\n\
    \    \"ok\": %b,\n\
    \    \"peak_rss_kb\": %d\n\
    \  }"
    r.Apps.healthy.Apps.sd_rounds r.Apps.healthy.Apps.sd_certified
    r.Apps.healthy.Apps.sd_violated_rounds
    r.Apps.healthy.Apps.sd_in_flight_cells r.Apps.faulty.Apps.sd_certified
    r.Apps.faulty.Apps.sd_violated_rounds
    r.Apps.faulty.Apps.sd_skipped_applies r.Apps.poll_tolerance
    r.Apps.poll_healthy.Apps.pl_strict_violations
    r.Apps.poll_faulty.Apps.pl_tolerant_violations r.Apps.hh_precision
    r.Apps.hh_recall r.Apps.hh_replacements r.Apps.shards_agree
    r.Apps.fits_capacity r.Apps.ok rss

(* Quick fuzz probe: a deterministic seed-derived campaign batch with
   the full oracle battery (DESIGN.md §14). Tracks fuzzing throughput
   across PRs; any oracle failure on main fails the bench (a bug the
   fuzzer found, not a perf number). *)
let run_fuzz ~quick =
  let module F = Speedlight_fuzz.Fuzz in
  let count = if quick then 40 else 200 in
  (F.run_campaigns ~seed:42 ~count (), count, rss_now ())

let fuzz_json (s, count, rss) =
  let module F = Speedlight_fuzz.Fuzz in
  Printf.sprintf
    "  \"fuzz\": {\n\
    \    \"campaigns\": %d,\n\
    \    \"failures\": %d,\n\
    \    \"verdict_digest\": %S,\n\
    \    \"wall_s\": %.3f,\n\
    \    \"campaigns_per_min\": %.0f,\n\
    \    \"peak_rss_kb\": %d\n\
    \  }"
    count
    (List.length s.F.su_failures)
    s.F.su_digest s.F.su_wall_s s.F.su_campaigns_per_min rss

let to_json ~mode ~serial ~base ~sharded ~chaos ~overhead ~updates ~large ~apps
    ~fuzz =
  let metrics_json =
    let buf = Buffer.create 512 in
    Metrics.add_json buf serial.metrics;
    Buffer.contents buf
  in
  Printf.sprintf
    "{\n\
    \  \"mode\": %S,\n\
    \  \"sim_ms\": %d,\n\
    \  \"wall_s\": %.3f,\n\
    \  \"delivered_packets\": %d,\n\
    \  \"forwarded_packets\": %d,\n\
    \  \"events\": %d,\n\
    \  \"snapshots_taken\": %d,\n\
    \  \"snapshots_complete\": %d,\n\
    \  \"packets_per_sec\": %.0f,\n\
    \  \"events_per_sec\": %.0f,\n\
    \  \"snapshots_per_sec\": %.1f,\n\
    \  \"peak_rss_kb\": %d,\n\
    \  \"trace_overhead\": {\n\
    \    \"disabled_ns_per_site\": %.3f,\n\
    \    \"sites_estimate\": %d,\n\
    \    \"projected_frac\": %.5f,\n\
    \    \"budget_frac\": %.2f\n\
    \  },\n\
    \  \"metrics\": %s,\n\
    \  \"speedup_curve\": [\n%s\n  ],\n\
    \  \"chaos\": [\n%s\n  ],\n\
    \  \"timed_updates\": [\n%s\n  ],\n\
     %s,\n\
     %s,\n\
     %s\n\
     }\n"
    mode serial.sim_ms serial.wall_s serial.delivered serial.forwarded
    serial.events serial.snapshots_taken serial.snapshots_complete
    serial.packets_per_sec serial.events_per_sec serial.snapshots_per_sec
    serial.peak_rss_kb
    overhead.ns_per_site overhead.sites overhead.frac overhead_budget
    metrics_json
    (String.concat ",\n" (List.map (speedup_entry ~base) sharded))
    (String.concat ",\n" (List.map chaos_entry chaos))
    (String.concat ",\n" (List.map update_entry updates))
    (large_scale_json large) (apps_json apps) (fuzz_json fuzz)

let () =
  let quick = ref (Sys.getenv_opt "SPEEDLIGHT_QUICK" = Some "1") in
  let out = ref "BENCH_sim.json" in
  (* Arg prints the usage and exits 2 on an unknown flag or a missing
     value, before any work is done. *)
  Arg.parse
    (Arg.align
       [
         ("--quick", Arg.Set quick, " ~15 ms of simulated time (smoke test)");
         ("-o", Arg.Set_string out, "PATH write the JSON report to PATH");
       ])
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "usage: macro.exe [--quick] [-o PATH]";
  let quick = !quick in
  (* Open the report first so an unwritable path fails now, not after
     the run. *)
  let oc =
    try open_out !out
    with Sys_error msg ->
      prerr_endline ("macro: " ^ msg);
      exit 2
  in
  let serial = run ~quick ~fat_tree:false ~domains:1 in
  (* The sharded sweep's baseline is its own 1-domain run (same k=4
     fat-tree configuration), not the leaf-spine headline number. *)
  let sweep = List.map (fun d -> run ~quick ~fat_tree:true ~domains:d) [ 1; 2; 4; 8 ] in
  let base = List.hd sweep in
  let chaos = run_chaos ~quick in
  let updates = Update.run ~quick ~seed:47 () in
  let overhead = trace_overhead ~serial in
  (* Datacenter-scale sweep: quick mode runs the ~1k-switch Clos point
     only (the CI scale-smoke configuration); full mode adds the k=56
     and k=90 fat trees — 10,125 switches on the last point. *)
  let large = Scale.fig11_large ~quick ~seed:61 () in
  let apps = run_apps ~quick in
  let fuzz = run_fuzz ~quick in
  let json =
    to_json
      ~mode:(if quick then "quick" else "full")
      ~serial ~base ~sharded:sweep ~chaos ~overhead ~updates ~large ~apps ~fuzz
  in
  output_string oc json;
  close_out oc;
  Printf.printf "%s" json;
  Printf.printf
    "macro [%s]: %.2fs wall | %.0f pkts/s | %.0f events/s | %.1f snapshots/s (%d/%d complete)\n"
    (if quick then "quick" else "full")
    serial.wall_s serial.packets_per_sec serial.events_per_sec
    serial.snapshots_per_sec serial.snapshots_complete serial.snapshots_taken;
  List.iter
    (fun r ->
      let cut =
        match r.part with
        | Some p -> Printf.sprintf "cut %d/%dw" p.Partition.cut_edges p.Partition.cut_weight
        | None -> "serial"
      in
      let ep =
        match r.stats with
        | Some s when s.Shard.epochs > 0 ->
            Printf.sprintf "%d epochs" s.Shard.epochs
        | _ -> "-"
      in
      Printf.printf
        "  sharded (fat tree k=4) d=%d: %.2fs wall | speedup %.2fx | %s | %s | identical=%b\n"
        r.domains r.wall_s (base.wall_s /. r.wall_s) cut ep
        (String.equal r.digest base.digest))
    sweep;
  (* Divergence between sharded and serial is a correctness bug, not a
     perf regression: fail the run so CI catches it. *)
  if List.exists (fun r -> not (String.equal r.digest base.digest)) sweep
  then begin
    prerr_endline "macro: sharded run diverged from serial";
    exit 1
  end;
  List.iter
    (fun ((p : Chaos.point), _) ->
      Printf.printf
        "  chaos i=%.2f: complete %.0f%% | consistent %.0f%% | retries/snap %.2f | false-consistent %d\n"
        p.Chaos.intensity
        (100. *. p.Chaos.completion_rate)
        (100. *. p.Chaos.consistent_rate)
        p.Chaos.mean_retries p.Chaos.false_consistent)
    chaos;
  (* A snapshot certified wrong by the auditor is a protocol safety bug:
     fail loudly, same as a sharded divergence. *)
  if Chaos.has_false_consistent (List.map fst chaos) then begin
    prerr_endline "macro: chaos audit found a false-consistent snapshot";
    exit 1
  end;
  List.iter
    (fun (p : Update.point) ->
      Printf.printf
        "  update %s/%s%s: %s | spread %.1f us | loss %d pkts\n"
        p.Update.pt_scenario p.Update.pt_mode
        (if p.Update.pt_clock_step then " (ptp step)" else "")
        p.Update.pt_outcome p.Update.pt_spread_us p.Update.pt_transient_drops)
    updates;
  (* A timed update the snapshot auditor could not certify atomic is a
     safety bug in the arming path: fail loudly. *)
  if Update.has_timed_anomaly updates then begin
    prerr_endline "macro: a timed update was not snapshot-certified atomic";
    exit 1
  end;
  List.iter
    (fun (p : Scale.large_point) ->
      Printf.printf
        "  scale %s: %d switches | %d units | %d flows | %.2fs wall | %.0f events/s | %.2f snaps/s | peak RSS %.1f MB\n"
        p.Scale.lp_label p.Scale.lp_switches p.Scale.lp_units p.Scale.lp_flows
        p.Scale.lp_wall_s p.Scale.lp_events_per_sec p.Scale.lp_snapshots_per_sec
        (float_of_int p.Scale.lp_peak_rss_kb /. 1024.))
    large.Scale.lr_points;
  (* The big points are single measurements; the control Clos at 1 and 2
     shards is what makes them trustworthy. Divergence in either the run
     digest or the streamed archive bytes is a correctness bug. *)
  if not large.Scale.lr_digest_identical then begin
    prerr_endline "macro: large-scale control run diverged across shard counts";
    exit 1
  end;
  if not large.Scale.lr_archive_identical then begin
    prerr_endline
      "macro: large-scale streamed archives differ across shard counts";
    exit 1
  end;
  (let r, _ = apps in
   Printf.printf
     "  apps: chain healthy %d/%d certified (%d violated) | faulty flagged on \
      %d cuts, tol-%d polling %d | HH p=%.2f r=%.2f | fits=%b | ok=%b\n"
     r.Apps.healthy.Apps.sd_certified r.Apps.healthy.Apps.sd_rounds
     r.Apps.healthy.Apps.sd_violated_rounds
     r.Apps.faulty.Apps.sd_violated_rounds r.Apps.poll_tolerance
     r.Apps.poll_faulty.Apps.pl_tolerant_violations r.Apps.hh_precision
     r.Apps.hh_recall r.Apps.fits_capacity r.Apps.ok;
   (* A failed apps gate is a correctness regression in the cut auditor
      or the application pipelines, not a perf number: fail loudly. *)
   if not r.Apps.ok then begin
     prerr_endline "macro: apps campaign gate failed";
     exit 1
   end);
  (let module F = Speedlight_fuzz.Fuzz in
   let s, count, _ = fuzz in
   Printf.printf
     "  fuzz: %d campaigns | %d failure(s) | %.0f campaigns/min | digest %s\n"
     count
     (List.length s.F.su_failures)
     s.F.su_campaigns_per_min s.F.su_digest;
   (* An oracle failure on main is a real bug the fuzzer flushed out:
      fail loudly, same as a false-consistent snapshot. *)
   if s.F.su_failures <> [] then begin
     prerr_endline "macro: fuzz campaign hit an oracle failure";
     exit 1
   end);
  Printf.printf
    "  trace overhead (disabled): %.2f ns/site x %d sites -> %.3f%% of wall (budget %.0f%%)\n"
    overhead.ns_per_site overhead.sites (100. *. overhead.frac)
    (100. *. overhead_budget);
  if overhead.frac > overhead_budget then begin
    Printf.eprintf
      "macro: disabled-tracing overhead %.3f%% exceeds the %.0f%% budget\n"
      (100. *. overhead.frac)
      (100. *. overhead_budget);
    exit 1
  end
