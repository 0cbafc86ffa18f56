(* speedbench: one run of one benchmark workload.

     speedbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

   A run repeats one operation of the workload for S seconds of host
   time and reports medians over the repetitions. For the simulation
   workloads (testbed, fattree, initiation) an operation is one complete
   simulated run built from the seed: topology, deployment, traffic,
   periodic snapshots streamed to an on-disk archive. For [fuzz] it is
   a batch of fuzz campaigns. Every operation's outputs are checked (see
   [check_*]); the last line of standard output is one JSON object with
   [correct], [attempted], [failed] and [metrics].

   [--trace 0] reports the end-to-end metrics. [--trace 1] records
   host-time spans around every call into the library, runs the ablation
   passes that attribute time to layers, reports the per-layer metrics
   and writes the spans as a Chrome trace under [.speedbench-out/]. *)

open Speedlight_sim
open Speedlight_dataplane
open Speedlight_core
open Speedlight_topology
open Speedlight_net
module Store = Speedlight_store.Store
module Query = Speedlight_query.Query
module Verify = Speedlight_verify.Verify
module Metrics = Speedlight_trace.Metrics
module Fuzz = Speedlight_fuzz.Fuzz
module Common = Speedlight_experiments.Common
module Wapps = Speedlight_workload.Apps
module Traffic = Speedlight_workload.Traffic

let now_ns = Spans.now_ns
let span = Spans.with_span
let secs ns = float_of_int ns *. 1e-9

(* ------------------------------------------------------------------ *)
(* Statistics *)

(* Linear interpolation between closest ranks — the rule Python's
   [statistics.quantiles(method="inclusive")] uses. [nan] on no data. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let r = p *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile 0.5 xs
let ratio a b = if b = 0. then 0. else a /. b
let sum xs = List.fold_left ( +. ) 0. xs

(* ------------------------------------------------------------------ *)
(* Simulation workloads *)

type fabric = {
  topo : Topology.t;
  hosts : int list;
  uplinks : (int * int list) list;  (** lower-tier switch -> switch-facing ports *)
}

type sim = {
  fabric : unit -> fabric;
  cfg : seed:int -> Config.t;
  traffic : (Net.t -> Traffic.send -> fabric -> unit) option;
  exclude_at : Time.t option;  (** when to exclude idle channels (§6) *)
  snap_start : Time.t;
  snap_every : Time.t;
  snaps : int;
  until : Time.t;
  slice : Time.t;  (** simulated time per [Net.run_until] call *)
}

let switch_uplinks topo switches =
  List.map
    (fun s ->
      ( s,
        List.filter
          (fun port ->
            match Topology.peer_of topo ~switch:s ~port with
            | Some (Topology.Switch_port _) -> true
            | _ -> false)
          (List.init (Topology.ports topo s) Fun.id) ))
    switches

(* The paper's Fig. 8 testbed at line rate: 2 leaves x 2 spines, 6
   servers, 25/100 GbE, uniform Poisson all-to-all at 150k pps per
   ordered pair, packet counters with channel state, a snapshot every
   5 ms. Per-packet work dominates. *)
let testbed ~sim_ms =
  {
    fabric =
      (fun () ->
        let host_link, fabric_link = Common.testbed_links ~scaled:false in
        let ls = Topology.leaf_spine ~host_link ~fabric_link () in
        {
          topo = ls.Topology.topo;
          hosts = Array.to_list ls.Topology.host_of_server;
          uplinks = ls.Topology.uplink_ports;
        });
    cfg = (fun ~seed -> Config.with_seed seed Config.default);
    traffic =
      Some
        (fun net send fab ->
          Wapps.Uniform.run ~engine:(Net.engine net) ~rng:(Net.fresh_rng net)
            ~send ~fids:(Traffic.flow_ids ()) ~hosts:fab.hosts
            ~rate_pps:150_000. ~pkt_size:1500 ~until:(Time.ms sim_ms));
    exclude_at = Some (Time.ms 4);
    snap_start = Time.ms 5;
    snap_every = Time.ms 5;
    snaps = Stdlib.max 1 ((sim_ms - 5) / 5);
    until = Time.ms (sim_ms + 20);
    slice = Time.ms 1;
  }

let fat_tree_fabric ~k () =
  let ft = Topology.fat_tree ~k ~hosts_per_edge:1 () in
  {
    topo = ft.Topology.ft_topo;
    hosts = Array.to_list ft.Topology.ft_hosts;
    uplinks = switch_uplinks ft.Topology.ft_topo ft.Topology.ft_edge;
  }

(* The datacenter-scale configuration of the Fig. 11 sweep: wraparound
   without channel state, sid modulus 16, and an observer that keeps only
   the last 2 finished rounds (the archive holds the rest). *)
let large_cfg ~seed =
  let variant = { Snapshot_unit.variant_wraparound with Snapshot_unit.max_sid = 15 } in
  {
    (Config.default |> Config.with_variant variant |> Config.with_seed seed) with
    Config.observer_retain = Some 2;
  }

(* Snapshot intervals below clear the biggest switch's CP service time
   per snapshot (2k units x 110 us notification cost), as a real
   deployment paces initiations; see [Scale]. *)

(* A k-ary fat tree with one host per edge switch under uniform Poisson
   all-to-all traffic: data packets and large snapshot rounds share the
   run, and with one Poisson stream per ordered host pair the event queue
   holds tens of thousands of entries. Uniform traffic rather than the
   datacenter mix of [Apps.Scaled]: the mix's PageRank phase runs on one
   global superstep timer, so its volume varies by about 15% between
   seeds, more than a run-to-run bound can absorb. *)
let fattree ~k ~traffic_ms ~snaps =
  {
    fabric = fat_tree_fabric ~k;
    cfg = large_cfg;
    traffic =
      Some
        (fun net send fab ->
          Wapps.Uniform.run ~engine:(Net.engine net) ~rng:(Net.fresh_rng net)
            ~send ~fids:(Traffic.flow_ids ()) ~hosts:fab.hosts
            ~rate_pps:150. ~pkt_size:1500 ~until:(Time.ms traffic_ms));
    exclude_at = None;
    snap_start = Time.ms 5;
    snap_every = Time.ms 6;
    snaps;
    until = Time.ms (traffic_ms + 15);
    slice = Time.us 250;
  }

(* A bigger fat tree driven by snapshot initiations alone: no data
   packets, so all host time goes to per-snapshot work in the control
   planes, the observer, the completion tracker and the archive, and the
   event queue peaks at about one entry per unit. *)
let initiation ~k ~snaps =
  {
    fabric = fat_tree_fabric ~k;
    cfg = large_cfg;
    traffic = None;
    exclude_at = None;
    snap_start = Time.ms 5;
    snap_every = Time.ms 10;
    snaps;
    until = Time.ms (5 + ((snaps + 2) * 10));
    slice = Time.us 500;
  }

(* Which configuration one operation runs. [Full] is the measured
   workload; the others are the ablation passes of a traced run. *)
type pass =
  | Full
  | Bare  (** snapshot units disabled on every switch, no snapshots *)
  | Units_idle  (** units on, no snapshots, no archive *)
  | Audited  (** Full plus the independent cut auditor *)
  | Traced  (** Full plus the library's own event trace *)
  | Shard2  (** Full on 2 shards, one [run_until] call *)

type op = {
  topo_s : float;
  create_s : float;
  workload_s : float;
  setup_s : float;
  run_s : float;
  slice_ms : float list;
  store_s : float;
  rounds : int;
  records : int;
  send_calls : int;
  send_s : float;
  attempted : int;
  refused : int;
  completed : int;
  delivered : int;
  events : int;
  queue_peak : int;
  units : int;
  registry : (string * float) list;
  digest : string option;  (** [None] when not computed *)
  audit_s : float;
  audited : int;
  certified : int;
  false_consistent : int;
  tap_events : int;
  trace_events : int;
}

let unit_count topo =
  let n = ref 0 in
  Topology.iter_switch_ports topo (fun ~switch:_ ~port:_ _ -> incr n);
  2 * !n

(* One operation. [instrument] times every packet send and every archive
   write (two clock reads each); the archive goes to [dir]. The run
   digest is computed when [want_digest ()] says so after the run: at
   datacenter scale it costs a sizeable fraction of the run itself. *)
let run_sim_op ?(want_digest = fun () -> true) w ~seed ~pass ~dir ~instrument =
  let t0 = now_ns () in
  let fab = span "setup.topology" w.fabric in
  let t1 = now_ns () in
  let cfg = w.cfg ~seed in
  let n_sw = Topology.n_switches fab.topo in
  let cfg =
    if pass = Bare then
      { cfg with Config.snapshot_disabled_switches = List.init n_sw Fun.id }
    else cfg
  in
  let net =
    span "setup.net_create" (fun () ->
        Net.create ~cfg ~shards:(if pass = Shard2 then 2 else 1) fab.topo)
  in
  let t2 = now_ns () in
  let snapshots = pass <> Bare && pass <> Units_idle in
  let send_calls = ref 0 and send_ns = ref 0 in
  let sids = ref [] and refused = ref 0 and completed = ref 0 in
  let store_ns = ref 0 and records = ref 0 in
  let audit_ns = ref 0 and audited = ref 0 and certified = ref 0 in
  let false_consistent = ref 0 in
  let writer, auditor, tracer =
    span "setup.workload" (fun () ->
        (match w.traffic with
        | None -> ()
        | Some install ->
            let send =
              if instrument then (fun ~src ~dst ~size ~flow_id ->
                let t = now_ns () in
                Net.send net ~flow_id ~src ~dst ~size ();
                send_ns := !send_ns + (now_ns () - t);
                incr send_calls)
              else fun ~src ~dst ~size ~flow_id ->
                incr send_calls;
                Net.send net ~flow_id ~src ~dst ~size ()
            in
            install net send fab);
        Option.iter
          (fun at -> Net.schedule_global net ~at (fun () -> Net.auto_exclude_idle net))
          w.exclude_at;
        let auditor = if pass = Audited then Some (Verify.attach net) else None in
        let tracer = if pass = Traced then Some (Net.attach_trace net) else None in
        let writer =
          if not snapshots then None
          else begin
            let wr = Store.Writer.create ~dir () in
            let obs = Net.observer net in
            (* The bench's own completion callback in place of
               [Store.Writer.attach], so archive writes can be timed.
               Completions are counted here because the observer evicts
               finished rounds under [observer_retain]. *)
            Observer.on_complete obs (fun snap ->
                if snap.Observer.complete then incr completed;
                let t = now_ns () in
                span "store.write" (fun () -> Store.Writer.stream_snapshot wr obs snap);
                store_ns := !store_ns + (now_ns () - t);
                records := !records + Unit_id.Map.cardinal snap.Observer.reports;
                Option.iter
                  (fun a ->
                    let t = now_ns () in
                    (match
                       span "verify.audit" (fun () ->
                           Verify.audit_one a ~sid:snap.Observer.sid)
                     with
                    | Verify.Certified_consistent -> incr certified
                    | Verify.False_consistent _ -> incr false_consistent
                    | _ -> ());
                    incr audited;
                    audit_ns := !audit_ns + (now_ns () - t))
                  auditor);
            for i = 0 to w.snaps - 1 do
              ignore
                (Engine.schedule (Net.engine net)
                   ~at:(Time.add w.snap_start (i * w.snap_every))
                   (fun () ->
                     match Net.try_take_snapshot net () with
                     | Ok sid -> sids := sid :: !sids
                     | Error _ -> incr refused))
            done;
            Some wr
          end
        in
        (writer, auditor, tracer))
  in
  let t3 = now_ns () in
  let slices = ref [] in
  (if pass = Shard2 then Net.run_until net w.until
   else
     let rec go t =
       if t < w.until then begin
         let t' = Stdlib.min w.until (Time.add t w.slice) in
         let s0 = now_ns () in
         span "run.slice" (fun () -> Net.run_until net t');
         slices := (float_of_int (now_ns () - s0) *. 1e-6) :: !slices;
         go t'
       end
     in
     go Time.zero);
  Option.iter
    (fun wr ->
      let t = now_ns () in
      span "store.write" (fun () -> Store.Writer.close wr);
      store_ns := !store_ns + (now_ns () - t))
    writer;
  let t4 = now_ns () in
  let sids = List.rev !sids in
  let digest =
    if not (want_digest ()) then None
    else
      Some
        (span "check.digest" (fun () ->
             Digest.to_hex
               (Digest.string
                  (Printf.sprintf "%s completed=%d rounds=%d"
                     (Common.run_digest net ~sids)
                     !completed
                     (match writer with Some wr -> Store.Writer.rounds_written wr | None -> 0)))))
  in
  let registry =
    let m = Metrics.create () in
    Net.register_metrics net m;
    Metrics.snapshot m
  in
  {
    topo_s = secs (t1 - t0);
    create_s = secs (t2 - t1);
    workload_s = secs (t3 - t2);
    setup_s = secs (t3 - t0);
    run_s = secs (t4 - t3);
    slice_ms = !slices;
    store_s = secs !store_ns;
    rounds = (match writer with Some wr -> Store.Writer.rounds_written wr | None -> 0);
    records = !records;
    send_calls = !send_calls;
    send_s = secs !send_ns;
    attempted = (if snapshots then w.snaps else 0);
    refused = !refused;
    completed = !completed;
    delivered = Net.delivered net;
    events = Net.events net;
    queue_peak =
      (match List.assoc_opt "engine.queue_peak" registry with
      | Some v -> int_of_float v
      | None -> 0);
    units = unit_count fab.topo;
    registry;
    digest;
    audit_s = secs !audit_ns;
    audited = !audited;
    certified = !certified;
    false_consistent = !false_consistent;
    tap_events = (match auditor with Some a -> Verify.events_recorded a | None -> 0);
    trace_events =
      (match tracer with
      | Some tr ->
          Speedlight_trace.Trace.events_recorded tr + Speedlight_trace.Trace.dropped tr
      | None -> 0);
  }

(* ------------------------------------------------------------------ *)
(* Output checks *)

(* Failures found by the checks; any entry makes the run incorrect. *)
let problems : string list ref = ref []
let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

let reg op name =
  match List.assoc_opt name op.registry with Some v -> v | None -> 0.

(* Every snapshot of a run without faults must complete, and the archive
   must hold exactly the completed rounds. *)
let check_op ~first op =
  if op.refused > 0 then problem "%d snapshot(s) refused by the pacing window" op.refused;
  if op.completed <> op.attempted then
    problem "%d of %d snapshots completed" op.completed op.attempted;
  if op.rounds <> op.completed then
    problem "archive holds %d rounds for %d completions" op.rounds op.completed;
  match (op.digest, first.digest) with
  | Some d, Some d0 when d <> d0 ->
      problem "digest %s differs from the run's first operation (%s)" d d0
  | _ -> ()

(* Read the archive back: every round complete, one round per
   completion, sids increasing. With channel state, every wire conserves
   packets at the cut: what the sender counted equals what the receiver
   counted plus what the channel state recorded in flight. *)
let check_archive w ~seed ~dir (op : op) =
  match Store.Reader.open_archive dir with
  | Error e -> problem "archive: %s" (Store.error_to_string e)
  | Ok r ->
      let rounds = Store.Reader.rounds r in
      Store.Reader.close r;
      if List.length rounds <> op.completed then
        problem "archive read back %d rounds, expected %d" (List.length rounds) op.completed;
      ignore
        (List.fold_left
           (fun prev (rd : Store.round) ->
             if rd.Store.sid <= prev then problem "archive sids not increasing at %d" rd.Store.sid;
             if not rd.Store.complete then problem "archived round %d incomplete" rd.Store.sid;
             rd.Store.sid)
           (-1) rounds);
      let cfg = w.cfg ~seed in
      if cfg.Config.unit_cfg.Snapshot_unit.channel_state then begin
        let topo = (w.fabric ()).topo in
        List.iter
          (fun (rd : Store.round) ->
            if rd.Store.consistent then begin
              let tbl = Hashtbl.create (Array.length rd.Store.records) in
              Array.iter (fun (x : Store.record) -> Hashtbl.replace tbl x.Store.r_uid x) rd.Store.records;
              Topology.iter_switch_ports topo (fun ~switch ~port peer ->
                  match peer with
                  | Topology.Switch_port (s', p') -> (
                      match
                        ( Hashtbl.find_opt tbl (Unit_id.egress ~switch ~port),
                          Hashtbl.find_opt tbl (Unit_id.ingress ~switch:s' ~port:p') )
                      with
                      | Some { Store.r_value = Some sent; _ },
                        Some { Store.r_value = Some recv; r_channel; _ } ->
                          if sent <> recv +. r_channel then
                            problem "round %d: wire s%d/p%d sent %.0f, received %.0f + %.0f in flight"
                              rd.Store.sid switch port sent recv r_channel
                      | _ -> problem "round %d: wire s%d/p%d has no value" rd.Store.sid switch port)
                  | Topology.Host_port _ -> ())
            end)
          rounds
      end

(* ------------------------------------------------------------------ *)
(* Files *)

let out_root = ".speedbench-out"
let tmp_counter = ref 0

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let fresh_dir tag =
  incr tmp_counter;
  Filename.concat out_root
    (Printf.sprintf "tmp/%s-%d-%d" tag (Unix.getpid ()) !tmp_counter)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let peak_rss_mb () =
  match Common.peak_rss_kb () with Some kb -> float_of_int kb /. 1024. | None -> 0.

(* ------------------------------------------------------------------ *)
(* Metrics *)

(* Every metric the benchmark reports, with its unit. BENCHMARK.json
   lists the same names; the self-test checks that they agree. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("snapshots_per_s", "1/s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("sim.events", "count");
    ("sim.events_per_s", "1/s");
    ("sim.queue_peak", "count");
    ("sim.hold_ns", "ns");
    ("sim.shard2_speedup", "x");
    ("sim.shard2_identical", "bool");
    ("net.packets_per_s", "1/s");
    ("net.forward_ns_per_pkt", "ns");
    ("net.send_calls", "count");
    ("net.send_ns", "ns");
    ("net.slice_ms_p50", "ms");
    ("net.slice_ms_p99", "ms");
    ("net.slices", "samples");
    ("net.delivered", "count");
    ("net.queue_drops", "count");
    ("net.notif_drops", "count");
    ("cp.notifications", "count");
    ("cp.queue_peak", "count");
    ("cp.crashes", "count");
    ("setup.topology_s", "s");
    ("setup.net_create_s", "s");
    ("setup.workload_s", "s");
    ("core.units", "count");
    ("core.unit_ns_per_pkt", "ns");
    ("core.protocol_ms_per_snapshot", "ms");
    ("core.ns_per_unit_round", "ns");
    ("observer.completed", "count");
    ("observer.retries", "count");
    ("observer.refused", "count");
    ("store.write_ms_per_round", "ms");
    ("store.ns_per_record", "ns");
    ("store.bytes_per_round", "B");
    ("store.delta_frac", "frac");
    ("store.open_ms", "ms");
    ("store.read_ns_per_record", "ns");
    ("query.uplink_imbalance_ms", "ms");
    ("query.queue_concurrency_ms", "ms");
    ("verify.tap_ns_per_event", "ns");
    ("verify.audit_ms", "ms");
    ("verify.certified_frac", "frac");
    ("trace.record_ns_per_event", "ns");
    ("bench.trace_overhead_frac", "frac");
    ("fuzz.campaigns", "samples");
    ("fuzz.campaigns_per_min", "1/min");
    ("fuzz.campaign_p50_ms", "ms");
    ("fuzz.campaign_p95_ms", "ms");
    ("fuzz.campaign_p99_ms", "ms");
    ("fuzz.campaign_p50_ms.shards1", "ms");
    ("fuzz.campaign_p50_ms.shards2", "ms");
    ("fuzz.time_frac.shards2", "frac");
    ("fuzz.time_frac.updates", "frac");
    ("fuzz.time_frac.chaos", "frac");
    ("fuzz.time_frac.leaf_spine", "frac");
    ("fuzz.time_frac.fat_tree", "frac");
    ("fuzz.time_frac.clos2", "frac");
  ]
  @ List.map
      (fun s -> ("self_frac." ^ s, "frac"))
      [
        "op";
        "setup.topology";
        "setup.net_create";
        "setup.workload";
        "run.slice";
        "store.write";
        "check.digest";
        "fuzz.campaign";
      ]

(* Values measured by this run, by name. A per-layer metric the workload
   does not exercise (a fuzz figure on a simulation workload, a packet
   figure with no packets) reads 0. *)
let values : (string, float) Hashtbl.t = Hashtbl.create 64
let set name v = Hashtbl.replace values name (if Float.is_finite v then v else 0.)
let seti name v = set name (float_of_int v)
let value name = Option.value ~default:0. (Hashtbl.find_opt values name)

(* Self-time share of each span name over the measured loop. *)
let set_self_fracs spans =
  let self = Spans.self_seconds spans in
  let total = Hashtbl.fold (fun _ v acc -> acc +. v) self 0. in
  Hashtbl.iter (fun name v -> set ("self_frac." ^ name) (ratio v total)) self

(* ------------------------------------------------------------------ *)
(* Simulation runs *)

(* Hold model on a fresh engine: [pending] self-rescheduling events, one
   million dispatches in all. Host ns per dispatched event at the
   workload's own queue depth. *)
let hold_ns ~pending =
  let e = Engine.create () in
  let rng = Rng.create 7 in
  let left = ref 1_000_000 in
  let rec ev () =
    decr left;
    if !left > 0 then Engine.schedule_after_unit e ~delay:(1 + Rng.int rng 2_000) ev
  in
  for _ = 1 to Stdlib.max 1 pending do
    Engine.schedule_unit e ~at:(Rng.int rng 2_000) ev
  done;
  let t0 = now_ns () in
  Engine.run e;
  float_of_int (now_ns () - t0) /. float_of_int (Engine.processed e)

type loop = {
  plain : op list;  (** operations run without instrumentation *)
  instrumented : op list;
  first : op;
  last_dir : string;  (** archive of the last operation *)
}

(* Repeat [Full] operations until [seconds] have passed (and at least
   [min_ops] ran). In a traced run every second operation is
   instrumented: spans, per-send and per-write timing; the rest are
   plain, so the run measures its own tracing overhead. *)
let sim_loop w ~seed ~seconds ~min_ops ~traced =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let plain = ref [] and instrumented = ref [] in
  let first = ref None and last_dir = ref None in
  let n = ref 0 and last = ref false in
  while not !last do
    Gc.compact ();
    let instrument = traced && !n mod 2 = 1 in
    let dir = fresh_dir "op" in
    Spans.enabled := instrument;
    (* Digests of the first and the last operation are compared; an
       operation that ends past the deadline is the last. *)
    let want_digest () =
      last := !n + 1 >= min_ops && now_ns () >= deadline;
      !n = 0 || !last
    in
    let op = span "op" (fun () -> run_sim_op ~want_digest w ~seed ~pass:Full ~dir ~instrument) in
    Spans.enabled := false;
    let first_op = match !first with Some f -> f | None -> op in
    first := Some first_op;
    check_op ~first:first_op op;
    Option.iter rm_rf !last_dir;
    last_dir := Some dir;
    if instrument then instrumented := op :: !instrumented else plain := op :: !plain;
    incr n
  done;
  {
    plain = List.rev !plain;
    instrumented = List.rev !instrumented;
    first = Option.get !first;
    last_dir = Option.get !last_dir;
  }

let med f ops = median (List.map f ops)

let sim_end_to_end l =
  let run_s = med (fun o -> o.run_s) l.plain in
  set "setup_s" (med (fun o -> o.setup_s) l.plain);
  set "wall_s" run_s;
  set "snapshots_per_s" (float_of_int l.first.completed /. run_s)

let timed f =
  let t = now_ns () in
  let v = f () in
  (v, secs (now_ns () - t))

(* Archive read-back and the canned queries over it, each repeated up to
   three times while a repetition takes under 0.2 s. Opening an archive
   decodes and validates every block, so read cost is open plus
   [rounds]. *)
let store_and_query_layers (fab : fabric) ~dir =
  let repeat name f =
    let rec go acc n =
      let v, s = timed (fun () -> span name f) in
      let acc = s :: acc in
      if n >= 3 || s > 0.2 then (v, median acc) else go acc (n + 1)
    in
    go [] 1
  in
  let r, open_s = repeat "store.open" (fun () -> Store.Reader.open_archive_exn dir) in
  let rounds, rounds_s = repeat "store.read" (fun () -> Store.Reader.rounds r) in
  let st = Store.Reader.stats r in
  Store.Reader.close r;
  let records =
    List.fold_left (fun acc (rd : Store.round) -> acc + Array.length rd.Store.records) 0 rounds
  in
  let q = Query.of_rounds rounds in
  let (), imb_s =
    repeat "query.uplink_imbalance" (fun () ->
        try ignore (Query.Canned.uplink_imbalance ~uplinks:fab.uplinks q)
        with Invalid_argument _ -> ())
  in
  let (), conc_s =
    repeat "query.queue_concurrency" (fun () -> ignore (Query.Canned.queue_concurrency q))
  in
  let n_rounds = float_of_int (st.Store.full_rounds + st.Store.delta_rounds) in
  set "store.bytes_per_round" (ratio (float_of_int st.Store.bytes) n_rounds);
  set "store.delta_frac" (ratio (float_of_int st.Store.delta_rounds) n_rounds);
  set "store.open_ms" (open_s *. 1e3);
  set "store.read_ns_per_record" (ratio ((open_s +. rounds_s) *. 1e9) (float_of_int records));
  set "query.uplink_imbalance_ms" (imb_s *. 1e3);
  set "query.queue_concurrency_ms" (conc_s *. 1e3)

(* Ablation passes; the differences between them attribute host time to
   the packet path, the snapshot units, the protocol, the auditor's taps
   and the event trace. Each pass is one operation; when an operation
   takes under half a second the five passes run three times, interleaved,
   and each difference is taken between medians. Attaching the auditor or
   the trace, or running on 2 shards, must not change the run. *)
let ablation_layers w ~seed ~shard2 (l : loop) =
  let pass p =
    Gc.compact ();
    let dir = fresh_dir "ablation" in
    let name =
      match p with
      | Full -> "full"
      | Bare -> "bare"
      | Units_idle -> "units_idle"
      | Audited -> "audited"
      | Traced -> "traced"
      | Shard2 -> "shard2"
    in
    let op = span ("ablation." ^ name) (fun () -> run_sim_op w ~seed ~pass:p ~dir ~instrument:false) in
    rm_rf dir;
    if (p = Full || p = Audited || p = Traced || p = Shard2) && op.digest <> l.first.digest then
      problem "%s pass changed the run digest" name;
    op
  in
  let rounds =
    List.init
      (if l.first.run_s < 0.5 then 3 else 1)
      (fun _ -> List.map (fun p -> (p, pass p)) [ Bare; Units_idle; Full; Audited; Traced ])
  in
  let m p f = med f (List.map (fun r -> List.assoc p r) rounds) in
  let run p = m p (fun o -> o.run_s) in
  let full = List.assoc Full (List.hd rounds) and audited = List.assoc Audited (List.hd rounds) in
  set "net.forward_ns_per_pkt"
    (ratio (run Bare *. 1e9) (float_of_int (List.assoc Bare (List.hd rounds)).delivered));
  set "core.unit_ns_per_pkt" (ratio ((run Units_idle -. run Bare) *. 1e9) (float_of_int full.delivered));
  set "core.protocol_ms_per_snapshot"
    (ratio ((run Full -. run Units_idle) *. 1e3) (float_of_int full.completed));
  set "verify.tap_ns_per_event"
    (ratio
       ((m Audited (fun o -> o.run_s -. o.audit_s) -. run Full) *. 1e9)
       (float_of_int audited.tap_events));
  set "verify.audit_ms" (m Audited (fun o -> ratio (o.audit_s *. 1e3) (float_of_int o.audited)));
  set "verify.certified_frac"
    (ratio (float_of_int audited.certified) (float_of_int audited.audited));
  if audited.false_consistent > 0 then
    problem "auditor found %d false-consistent round(s)" audited.false_consistent;
  set "trace.record_ns_per_event"
    (ratio
       ((run Traced -. run Full) *. 1e9)
       (float_of_int (List.assoc Traced (List.hd rounds)).trace_events));
  if shard2 then begin
    (* Observer callbacks run on a worker domain here: no spans. *)
    Spans.enabled := false;
    let s2 = pass Shard2 in
    Spans.enabled := true;
    set "sim.shard2_speedup" (ratio (run Full) s2.run_s);
    set "sim.shard2_identical" (if s2.digest = l.first.digest then 1. else 0.)
  end

(* Per-layer figures of a traced simulation run. Timings come from the
   plain operations, except per-send cost, which only instrumented
   operations measure. *)
let sim_per_layer w ~seed ~shard2 (l : loop) =
  let o = l.first in
  let run_s = med (fun o -> o.run_s) l.plain in
  seti "sim.events" o.events;
  set "sim.events_per_s" (float_of_int o.events /. run_s);
  seti "sim.queue_peak" o.queue_peak;
  set "sim.hold_ns" (hold_ns ~pending:o.queue_peak);
  set "net.packets_per_s" (float_of_int o.delivered /. run_s);
  seti "net.send_calls" o.send_calls;
  if l.instrumented <> [] then begin
    set "net.send_ns"
      (med (fun o -> ratio (o.send_s *. 1e9) (float_of_int o.send_calls)) l.instrumented);
    set "bench.trace_overhead_frac" ((med (fun o -> o.run_s) l.instrumented /. run_s) -. 1.)
  end;
  let slices = List.concat_map (fun o -> o.slice_ms) l.plain in
  set "net.slice_ms_p50" (percentile 0.5 slices);
  set "net.slice_ms_p99" (percentile 0.99 slices);
  seti "net.slices" (List.length slices);
  seti "net.delivered" o.delivered;
  List.iter
    (fun name -> set name (reg o name))
    [ "net.queue_drops"; "net.notif_drops"; "cp.notifications"; "cp.queue_peak"; "cp.crashes";
      "observer.retries" ];
  set "setup.topology_s" (med (fun o -> o.topo_s) l.plain);
  set "setup.net_create_s" (med (fun o -> o.create_s) l.plain);
  set "setup.workload_s" (med (fun o -> o.workload_s) l.plain);
  seti "core.units" o.units;
  set "core.ns_per_unit_round"
    (med
       (fun o -> ratio ((o.run_s -. o.store_s) *. 1e9) (float_of_int (o.units * o.completed)))
       l.plain);
  seti "observer.completed" o.completed;
  seti "observer.refused" o.refused;
  set "store.write_ms_per_round"
    (med (fun o -> ratio (o.store_s *. 1e3) (float_of_int o.rounds)) l.plain);
  set "store.ns_per_record"
    (med (fun o -> ratio (o.store_s *. 1e9) (float_of_int o.records)) l.plain);
  Spans.enabled := true;
  store_and_query_layers (w.fabric ()) ~dir:l.last_dir;
  ablation_layers w ~seed ~shard2 l;
  Spans.enabled := false

(* ------------------------------------------------------------------ *)
(* Fuzz workload *)

(* Campaign [i] of the run. Four scenario shapes hit known bugs
   (repros/) and are steered away from, so that no operation of the
   workload fails: a CP flap can yield a false-consistent cut, so can the
   in-switch app suite, a lone staged rollout can show certified rounds
   out of rollout order, and a second update step can show up in a cut
   before the first has fully applied. CP flaps and apps are dropped,
   only the first update step is kept and a staged step runs timed. The
   app-suite bug shrinks to a single chain write with no chaos, whatever
   the write count or shard count, so no narrower filter avoids it.
   [Fuzz.of_seed] draws 4 domains for a quarter of the campaigns; those
   run on 2, since 4 domains on a 2-core host measure the scheduler. *)
let bench_scenario ~seed i =
  let sc = Fuzz.of_seed (Fuzz.campaign_seed ~seed i) in
  {
    sc with
    Fuzz.sc_shards = Stdlib.min 2 sc.Fuzz.sc_shards;
    sc_apps = 0;
    sc_chaos =
      List.filter
        (fun e -> match e.Fuzz.ce_kind with Fuzz.Ck_cp_flap _ -> false | _ -> true)
        sc.Fuzz.sc_chaos;
    sc_updates =
      (match sc.Fuzz.sc_updates with
      | [] -> []
      | u :: _ ->
          [ (if u.Fuzz.up_strategy = `Staged then { u with Fuzz.up_strategy = `Timed } else u) ]);
  }

(* The fabric a scenario runs on, with the fuzzer's link speeds. *)
let scenario_topo spec =
  let host_link, fabric_link = Common.testbed_links ~scaled:true in
  match spec with
  | Fuzz.Leaf_spine { leaves; spines; hosts_per_leaf } ->
      (Topology.leaf_spine ~leaves ~spines ~hosts_per_leaf ~host_link ~fabric_link ())
        .Topology.topo
  | Fuzz.Fat_tree { k; hosts_per_edge } ->
      (Topology.fat_tree ~k ~hosts_per_edge ~host_link ~fabric_link ()).Topology.ft_topo
  | Fuzz.Clos2 { leaves; spines; hosts_per_leaf } ->
      (Topology.clos2 ~leaves ~spines ~hosts_per_leaf ~host_link ~fabric_link ())
        .Topology.c2_topo

(* Set-up of one fuzz operation, timed apart from its campaigns (which
   build their networks inside [Fuzz.run_scenario]): build the networks
   of campaigns [first] to [first + batch - 1]. *)
let build_networks ~seed ~batch first =
  for i = first to first + batch - 1 do
    let sc = bench_scenario ~seed i in
    ignore
      (Net.create ~cfg:(Config.with_seed sc.Fuzz.sc_seed Config.default)
         (scenario_topo sc.Fuzz.sc_topo))
  done

(* The campaigns of a run, by index, in flat arrays rather than a list
   of records: a record kept per campaign pins a heap pool among that
   campaign's garbage, so the heap, and campaign times with it, would
   grow with the length of the run. *)
type campaigns = {
  mutable count : int;
  mutable ms : float array;
  mutable complete : int array;  (** completed snapshots; -1: the campaign failed *)
  digests : string array;  (** run digests of the first 50 campaigns *)
  mutable setup_s : float list;  (** [build_networks] time of each operation *)
}

let instrumented ~traced ~batch i = traced && i / batch mod 2 = 1

(* One operation of the fuzz workload is [batch] consecutive campaigns:
   single campaigns take 1 to 100 ms and campaigns on 2 shards three to
   four times as long as serial ones, so only a sum over many of them is
   a steady figure. Each operation's set-up is timed before it runs, so
   set-up samples spread over the run as for the simulation workloads.
   In a traced run every second operation is instrumented. *)
let fuzz_loop ~seed ~seconds ~min_ops ~traced ~batch =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let cs =
    {
      count = 0;
      ms = Array.make 4096 0.;
      complete = Array.make 4096 0;
      digests = Array.make 50 "fail";
      setup_s = [];
    }
  in
  while cs.count mod batch <> 0 || cs.count < min_ops * batch || now_ns () < deadline do
    let i = cs.count in
    if i mod batch = 0 then
      cs.setup_s <- snd (timed (fun () -> build_networks ~seed ~batch i)) :: cs.setup_s;
    let sc = bench_scenario ~seed i in
    Spans.enabled := instrumented ~traced ~batch i;
    let r, s = timed (fun () -> span "fuzz.campaign" (fun () -> Fuzz.run_scenario sc)) in
    Spans.enabled := false;
    if i = Array.length cs.ms then begin
      cs.ms <- Array.append cs.ms cs.ms;
      cs.complete <- Array.append cs.complete cs.complete
    end;
    cs.ms.(i) <- s *. 1e3;
    cs.complete.(i) <-
      (match r with
      | Ok st ->
          if i < 50 then cs.digests.(i) <- st.Fuzz.rs_digest;
          st.Fuzz.rs_complete
      | Error f ->
          Printf.printf "fuzz: campaign %d (seed %d) failed [%s]: %s\n" i sc.Fuzz.sc_seed
            (Fuzz.oracle_name f.Fuzz.f_oracle) f.Fuzz.f_detail;
          problem "fuzz campaign %d failed [%s]" i (Fuzz.oracle_name f.Fuzz.f_oracle);
          -1);
    cs.count <- i + 1
  done;
  cs

(* Verdicts of the first 50 campaigns: equal seeds give equal digests. *)
let fuzz_digest cs =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.init (Stdlib.min 50 cs.count) (fun i -> Printf.sprintf "%d:%s" i cs.digests.(i)))))

let fuzz_metrics cs ~seed ~traced ~batch =
  let plain = List.filter (fun i -> not (instrumented ~traced ~batch i)) (List.init cs.count Fun.id) in
  let ms = List.map (fun i -> cs.ms.(i)) plain in
  if not traced then begin
    (* Plain operations as (seconds, completed snapshots). *)
    let ops =
      List.init (cs.count / batch) (fun b ->
          let idx = List.init batch (fun j -> (b * batch) + j) in
          ( sum (List.map (fun i -> cs.ms.(i) /. 1e3) idx),
            List.fold_left (fun acc i -> acc + Stdlib.max 0 cs.complete.(i)) 0 idx ))
    in
    set "setup_s" (median cs.setup_s);
    set "wall_s" (median (List.map fst ops));
    set "snapshots_per_s" (median (List.map (fun (s, n) -> float_of_int n /. s) ops))
  end
  else begin
    let scs = Array.init cs.count (bench_scenario ~seed) in
    let where pred = List.filter_map (fun i -> if pred scs.(i) then Some cs.ms.(i) else None) plain in
    let frac pred = ratio (sum (where pred)) (sum ms) in
    let mean xs = sum xs /. float_of_int (List.length xs) in
    seti "fuzz.campaigns" cs.count;
    set "fuzz.campaigns_per_min" (float_of_int (List.length plain) /. (sum ms /. 1e3) *. 60.);
    set "fuzz.campaign_p50_ms" (percentile 0.5 ms);
    set "fuzz.campaign_p95_ms" (percentile 0.95 ms);
    set "fuzz.campaign_p99_ms" (percentile 0.99 ms);
    set "fuzz.campaign_p50_ms.shards1" (percentile 0.5 (where (fun sc -> sc.Fuzz.sc_shards = 1)));
    set "fuzz.campaign_p50_ms.shards2" (percentile 0.5 (where (fun sc -> sc.Fuzz.sc_shards = 2)));
    set "fuzz.time_frac.shards2" (frac (fun sc -> sc.Fuzz.sc_shards = 2));
    set "fuzz.time_frac.updates" (frac (fun sc -> sc.Fuzz.sc_updates <> []));
    set "fuzz.time_frac.chaos" (frac (fun sc -> sc.Fuzz.sc_chaos <> []));
    set "fuzz.time_frac.leaf_spine"
      (frac (fun sc -> match sc.Fuzz.sc_topo with Fuzz.Leaf_spine _ -> true | _ -> false));
    set "fuzz.time_frac.fat_tree"
      (frac (fun sc -> match sc.Fuzz.sc_topo with Fuzz.Fat_tree _ -> true | _ -> false));
    set "fuzz.time_frac.clos2"
      (frac (fun sc -> match sc.Fuzz.sc_topo with Fuzz.Clos2 _ -> true | _ -> false));
    let instr =
      List.filter_map
        (fun i -> if instrumented ~traced ~batch i then Some cs.ms.(i) else None)
        (List.init cs.count Fun.id)
    in
    if instr <> [] then set "bench.trace_overhead_frac" ((mean instr /. mean ms) -. 1.)
  end

(* ------------------------------------------------------------------ *)
(* Workloads *)

type workload = Sim of { w : sim; shard2 : bool } | Campaigns of { batch : int }

(* Sizes are chosen so one operation takes about a second or less on a
   2-core host, and a run repeats it many times. [--smoke] shrinks every
   workload to a fraction of a second for the self-test. *)
let workload ~smoke = function
  | "testbed" -> Some (Sim { w = testbed ~sim_ms:(if smoke then 10 else 100); shard2 = true })
  | "fattree" ->
      Some
        (Sim
           {
             w =
               (if smoke then fattree ~k:4 ~traffic_ms:10 ~snaps:2
                else fattree ~k:16 ~traffic_ms:30 ~snaps:5);
             shard2 = true;
           })
  | "initiation" ->
      Some
        (Sim
           {
             w = (if smoke then initiation ~k:4 ~snaps:2 else initiation ~k:36 ~snaps:2);
             shard2 = false;
           })
  | "fuzz" -> Some (Campaigns { batch = (if smoke then 4 else 50) })
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Self-test of the harness itself *)

let selftest () =
  let ok = ref true in
  let check name c =
    if not c then begin
      Printf.printf "FAIL %s\n" name;
      ok := false
    end
  in
  (* Python: statistics.quantiles([1, 2, 3, 4], n=4, method="inclusive")
     == [1.75, 2.5, 3.25] *)
  check "percentile q1" (percentile 0.25 [ 4.; 1.; 3.; 2. ] = 1.75);
  check "percentile median" (median [ 4.; 1.; 3.; 2. ] = 2.5);
  check "percentile q3" (percentile 0.75 [ 4.; 1.; 3.; 2. ] = 3.25);
  check "percentile singleton" (percentile 0.99 [ 5. ] = 5.);
  check "percentile empty" (Float.is_nan (percentile 0.5 []));
  let clamped = ref 0 and shards2 = ref 0 and apps = ref 0 in
  for i = 0 to 1999 do
    let raw = Fuzz.of_seed (Fuzz.campaign_seed ~seed:42 i) in
    let sc = bench_scenario ~seed:42 i in
    if raw.Fuzz.sc_shards = 4 then incr clamped;
    if sc.Fuzz.sc_shards = 2 then incr shards2;
    if raw.Fuzz.sc_apps > 0 then incr apps;
    check
      (Printf.sprintf "campaign %d on at most 2 shards, no apps" i)
      (sc.Fuzz.sc_shards = Stdlib.min 2 raw.Fuzz.sc_shards && sc.Fuzz.sc_apps = 0);
    check
      (Printf.sprintf "campaign %d has no cp flap" i)
      (List.for_all
         (fun e -> match e.Fuzz.ce_kind with Fuzz.Ck_cp_flap _ -> false | _ -> true)
         sc.Fuzz.sc_chaos);
    check
      (Printf.sprintf "campaign %d has at most one update step, not staged" i)
      (match sc.Fuzz.sc_updates with
      | [] -> true
      | [ u ] -> u.Fuzz.up_strategy <> `Staged
      | _ -> false)
  done;
  check "the shard clamp and the apps filter are exercised, 2-shard campaigns run"
    (!clamped > 0 && !shards2 > 0 && !apps > 0);
  let names = List.map fst (end_to_end @ per_layer) in
  check "metric names unique" (List.length (List.sort_uniq compare names) = List.length names);
  if !ok then print_endline "selftest ok" else exit 1

(* ------------------------------------------------------------------ *)
(* Main *)

let print_result ~traced ~attempted ~failed ~digest =
  let metrics = if traced then per_layer else end_to_end in
  List.iter
    (fun (name, unit) ->
      Printf.printf "%-34s %18.6f %s\n" name (value name) unit)
    metrics;
  Printf.printf "digest %s\n" digest;
  List.iter (fun p -> Printf.printf "check failed: %s\n" p) (List.rev !problems);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!problems = []) attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit) ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name (value name) unit)
          metrics))

let () =
  let workload_name = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and smoke = ref false and self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload_name, "NAME testbed|fattree|initiation|fuzz");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--smoke", Arg.Set smoke, " tiny sizes, one operation");
      ("--selftest", Arg.Set self, " check the harness itself");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "speedbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !self then begin
    selftest ();
    exit 0
  end;
  let wl =
    match workload ~smoke:!smoke !workload_name with
    | Some wl -> wl
    | None ->
        prerr_endline ("speedbench: unknown workload " ^ !workload_name);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "speedbench: --trace takes 0 or 1";
    exit 2
  end;
  (* Archives, the fuzzer's included, go under the checkout. *)
  let tmp = Filename.concat out_root "tmp" in
  mkdir_p tmp;
  Filename.set_temp_dir_name (Filename.concat (Sys.getcwd ()) tmp);
  let traced = !trace = 1 in
  let seed = !seed and seconds = !seconds in
  let min_ops = if !smoke then 1 else 3 in
  let loop_spans = ref [] in
  let attempted, failed, digest =
    match wl with
    | Sim { w; shard2 } ->
        let l = sim_loop w ~seed ~seconds ~min_ops ~traced in
        loop_spans := Spans.all ();
        check_archive w ~seed ~dir:l.last_dir l.first;
        if traced then sim_per_layer w ~seed ~shard2 l else sim_end_to_end l;
        rm_rf l.last_dir;
        let ops = l.plain @ l.instrumented in
        ( List.fold_left (fun acc o -> acc + o.attempted) 0 ops,
          List.fold_left (fun acc o -> acc + (o.attempted - o.completed)) 0 ops,
          Option.get l.first.digest )
    | Campaigns { batch } ->
        let cs = fuzz_loop ~seed ~seconds ~min_ops ~traced ~batch in
        loop_spans := Spans.all ();
        (* Same seed, same campaign, same run. *)
        (match Fuzz.run_scenario (bench_scenario ~seed 0) with
        | Ok b when cs.complete.(0) >= 0 && cs.digests.(0) = b.Fuzz.rs_digest -> ()
        | _ -> problem "campaign 0 did not repeat");
        fuzz_metrics cs ~seed ~traced ~batch;
        ( cs.count,
          List.length (List.filter (fun i -> cs.complete.(i) < 0) (List.init cs.count Fun.id)),
          fuzz_digest cs )
  in
  if traced then begin
    set_self_fracs !loop_spans;
    let path = Filename.concat out_root (Printf.sprintf "trace-%s-%d.json" !workload_name seed) in
    Spans.write_chrome_trace ~path
      ~metrics:
        (List.map (fun (n, u) -> (n, value n, u)) per_layer)
      (Spans.all ());
    Printf.printf "trace written to %s\n" path
  end
  else set "peak_rss_mb" (peak_rss_mb ());
  print_result ~traced ~attempted ~failed ~digest
