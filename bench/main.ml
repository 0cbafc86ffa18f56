(* Benchmark harness.

   Part 1 — Bechamel micro-benchmarks of the operations each table/figure
   leans on (per-packet snapshot processing, notification handling,
   wraparound arithmetic, statistics kernels, simulator primitives).

   Part 2 — the full reproduction harness: regenerates every table and
   figure of the paper's evaluation (quick-sized by default; set
   SPEEDLIGHT_FULL=1 for full-scale runs) and prints the same rows/series
   the paper reports. Paper-vs-measured numbers are recorded in
   EXPERIMENTS.md. *)

open Bechamel
open Toolkit
open Speedlight_sim
open Speedlight_stats
open Speedlight_dataplane
open Speedlight_core
open Speedlight_experiments

(* ------------------------------------------------------------------ *)
(* Micro-benchmark fixtures *)

let mk_unit ~cfg ~n_neighbors =
  Snapshot_unit.create
    ~id:(Unit_id.ingress ~switch:0 ~port:0)
    ~cfg ~n_neighbors ~counter:(Counter.packet_count ())
    ~notify:(fun _ -> ())
    ()

let mk_packet sid =
  let p =
    Packet.create ~uid:0 ~flow_id:1 ~src_host:0 ~dst_host:1 ~size:1500 ~created:0 ()
  in
  Packet.set_snap p ~sid ~channel:1 ~ghost_sid:sid;
  p

(* fig9/10: steady-state per-packet cost of the snapshot pipeline. *)
let bench_process_packet_no_cs =
  let u = mk_unit ~cfg:Snapshot_unit.variant_wraparound ~n_neighbors:2 in
  let p = mk_packet 0 in
  Test.make ~name:"fig9/unit.process_packet (no chnl state)"
    (Staged.stage (fun () ->
         (match Packet.snap p with
         | Some h ->
             h.Snapshot_header.sid <- Snapshot_unit.current_sid u;
             h.Snapshot_header.channel <- 1
         | None -> ());
         Snapshot_unit.process_packet u ~now:0 p))

let bench_process_packet_cs =
  let u = mk_unit ~cfg:Snapshot_unit.variant_channel_state ~n_neighbors:6 in
  let p = mk_packet 0 in
  Test.make ~name:"fig9/unit.process_packet (chnl state)"
    (Staged.stage (fun () ->
         (match Packet.snap p with
         | Some h ->
             h.Snapshot_header.sid <- Snapshot_unit.current_sid u;
             h.Snapshot_header.channel <- 1
         | None -> ());
         Snapshot_unit.process_packet u ~now:0 p))

let bench_initiation =
  let u = mk_unit ~cfg:Snapshot_unit.variant_channel_state ~n_neighbors:6 in
  let ghost = ref 0 in
  Test.make ~name:"fig10/unit.process_initiation"
    (Staged.stage (fun () ->
         incr ghost;
         Snapshot_unit.process_initiation u ~now:!ghost
           ~sid:(Wrap.wrap ~max_sid:255 !ghost)
           ~ghost_sid:!ghost))

let bench_on_notify =
  (* The control plane's per-notification work — the Fig. 10 bottleneck
     (the simulated 110 us is CPU scheduling; this is the pure compute). *)
  let u = mk_unit ~cfg:Snapshot_unit.variant_wraparound ~n_neighbors:2 in
  let tracker =
    Cp_tracker.create ~channel_state:false
      ~units:[ { Cp_tracker.unit_ = u; excluded_neighbors = [] } ]
      ~report:(fun _ -> ())
      ()
  in
  let ghost = ref 0 in
  Test.make ~name:"fig10/cp_tracker.on_notify"
    (Staged.stage (fun () ->
         incr ghost;
         Snapshot_unit.process_initiation u ~now:!ghost
           ~sid:(Wrap.wrap ~max_sid:255 !ghost)
           ~ghost_sid:!ghost;
         Cp_tracker.on_notify tracker ~now:!ghost
           {
             Notification.unit_id = Snapshot_unit.id u;
             unit_ix = Snapshot_unit.index u;
             former_sid = Wrap.wrap ~max_sid:255 (!ghost - 1);
             new_sid = Wrap.wrap ~max_sid:255 !ghost;
             neighbor = None;
             former_last_seen = None;
             new_last_seen = None;
             dp_time = !ghost;
             ghost_sid = !ghost;
           }))

let bench_wrap =
  let i = ref 0 in
  Test.make ~name:"fig9/wrap.unwrap+compare"
    (Staged.stage (fun () ->
         incr i;
         let w = Wrap.wrap ~max_sid:255 !i in
         ignore (Wrap.compare_ids ~max_sid:255 w 17);
         ignore (Wrap.unwrap ~max_sid:255 ~reference:!i w)))

let bench_ewma_two_phase =
  let e = Ewma.Two_phase.create () in
  let now = ref 0 in
  Test.make ~name:"fig12/ewma_interarrival.update"
    (Staged.stage (fun () ->
         now := !now + 500;
         Ewma.Two_phase.on_packet e ~now:!now))

let bench_spearman =
  let rng = Rng.create 7 in
  let x = Array.init 100 (fun _ -> Rng.unit_float rng) in
  let y = Array.init 100 (fun _ -> Rng.unit_float rng) in
  Test.make ~name:"fig13/spearman.correlate (n=100)"
    (Staged.stage (fun () -> ignore (Spearman.correlate x y)))

let bench_engine =
  Test.make ~name:"sim/engine schedule+run (100 events)"
    (Staged.stage (fun () ->
         let e = Engine.create () in
         for i = 1 to 100 do
           ignore (Engine.schedule e ~at:i (fun () -> ()))
         done;
         Engine.run e))

let bench_resource_model =
  Test.make ~name:"table1/resource_model.usage"
    (Staged.stage (fun () ->
         ignore
           (Speedlight_resources.Resource_model.usage
              Speedlight_resources.Resource_model.Channel_state ~ports:64)))

let bench_fig11_sample =
  let rng = Rng.create 3 in
  let profile = Speedlight_clock.Ptp.default_profile in
  Test.make ~name:"fig11/ptp.sample_initiation_error"
    (Staged.stage (fun () ->
         ignore (Speedlight_clock.Ptp.sample_initiation_error profile ~rng)))

let run_microbenchmarks () =
  let tests =
    Test.make_grouped ~name:"speedlight"
      [
        bench_process_packet_no_cs;
        bench_process_packet_cs;
        bench_initiation;
        bench_on_notify;
        bench_wrap;
        bench_ewma_two_phase;
        bench_spearman;
        bench_engine;
        bench_resource_model;
        bench_fig11_sample;
      ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Bechamel.Time.second 0.25) ~kde:None ()
  in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  Format.printf "%s@." (String.make 72 '=');
  Format.printf "Bechamel micro-benchmarks (ns/op, OLS estimate)@.";
  Format.printf "%s@." (String.make 72 '=');
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> Printf.sprintf "%10.1f" e
        | Some [] | None -> "?"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Printf.sprintf "%.3f" r
        | None -> "-"
      in
      Format.printf "%-55s %12s ns/op  (r2=%s)@." name est r2)
    rows;
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Reproduction harness: one section per table and figure *)

let run_reproductions ~quick =
  let fmt = Format.std_formatter in
  let timed name f =
    let t0 = Sys.time () in
    f ();
    Format.fprintf fmt "[%s: %.1fs cpu]@.@." name (Sys.time () -. t0)
  in
  Table1.print fmt (Table1.run ());
  Format.fprintf fmt "@.";
  timed "fig9" (fun () -> Fig9.print fmt (Fig9.run ~quick ()));
  timed "fig10" (fun () -> Fig10.print fmt (Fig10.run ~quick ()));
  timed "fig11" (fun () -> Fig11.print fmt (Fig11.run ~quick ()));
  timed "fig12" (fun () -> Fig12.print fmt (Fig12.run ~quick ()));
  timed "fig13" (fun () -> Fig13.print fmt (Fig13.run ~quick ()));
  timed "ablations" (fun () ->
      Ablations.print_initiator fmt (Ablations.run_initiator ~quick ());
      Ablations.print_notifications fmt (Ablations.run_notifications ~quick ());
      Ablations.print_marker_overhead fmt (Ablations.run_marker_overhead ()));
  timed "scale" (fun () -> Scale.print fmt (Scale.run ~quick ()))

let () =
  (* Paper-scale runs by default (~1 min); SPEEDLIGHT_QUICK=1 shrinks every
     experiment for fast iteration. *)
  let quick = Sys.getenv_opt "SPEEDLIGHT_QUICK" = Some "1" in
  run_microbenchmarks ();
  Format.printf "Reproduction harness (%s mode%s)@.@."
    (if quick then "quick" else "full/paper-scale")
    (if quick then "" else "; set SPEEDLIGHT_QUICK=1 for a fast pass");
  run_reproductions ~quick
