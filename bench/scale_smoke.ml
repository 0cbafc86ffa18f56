(* CI scale smoke: the ~1k-switch point of the datacenter-scale sweep,
   budget-gated.

   Runs Scale.fig11_large in quick mode — a 1,280-switch k=32 fat tree
   under the fan-out-scaled workload mix, streaming every completed
   round to disk, plus the 1-vs-2-shard control run — and fails (exit
   1) if:

   - the control run's digest or streamed archive bytes diverge across
     shard counts (correctness);
   - wall time exceeds the budget (perf regression at scale);
   - peak RSS exceeds the budget (the flat-state / streaming-capture
     memory story regressed).

   Budgets are generous multiples of observed values so only step
   changes trip them; override with SPEEDLIGHT_SCALE_WALL_BUDGET_S and
   SPEEDLIGHT_SCALE_RSS_BUDGET_KB for slower or smaller machines. The
   JSON written to -o PATH (default BENCH_sim.json) carries the same
   "large_scale" section the full macro bench embeds. *)

open Speedlight_experiments

(* Quick-mode budgets are sized for the CI point (k=32 quick: ~5-6 s /
   0.40-0.54 GB observed): the RSS budget is about 3x that, so a
   per-unit memory regression of that size trips it. --full adds the
   3,920- and 10,125-switch fat trees, whose footprint is dominated by
   the network itself (ports, wires, channel closures), so it carries
   its own budgets. *)
let default_wall_budget_s = 240.
let default_rss_budget_kb = 1_500_000 (* 1.5 GB *)
let default_full_wall_budget_s = 600.
let default_full_rss_budget_kb = 12_000_000 (* 12 GB *)

let env_float name default =
  match Sys.getenv_opt name with
  | Some s -> ( match float_of_string_opt s with Some v -> v | None -> default)
  | None -> default

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some v -> v | None -> default)
  | None -> default

let point_json (p : Scale.large_point) =
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

let () =
  let out = ref "BENCH_sim.json" in
  let quick = ref true in
  (* Arg prints the usage and exits 2 on an unknown flag or a missing
     value, before any work is done. *)
  Arg.parse
    (Arg.align
       [
         ("--full", Arg.Clear quick, " add the 3,920- and 10,125-switch fat trees");
         ("-o", Arg.Set_string out, "PATH write the JSON report to PATH");
       ])
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "usage: scale_smoke.exe [--full] [-o PATH]";
  (* Open the report first so an unwritable path fails now, not after
     the run. *)
  let oc =
    try open_out !out
    with Sys_error msg ->
      prerr_endline ("scale-smoke: " ^ msg);
      exit 2
  in
  let wall_budget_s =
    env_float "SPEEDLIGHT_SCALE_WALL_BUDGET_S"
      (if !quick then default_wall_budget_s else default_full_wall_budget_s)
  in
  let rss_budget_kb =
    env_int "SPEEDLIGHT_SCALE_RSS_BUDGET_KB"
      (if !quick then default_rss_budget_kb else default_full_rss_budget_kb)
  in
  let r = Scale.fig11_large ~quick:!quick ~seed:61 () in
  let json =
    Printf.sprintf
      "{\n\
      \  \"mode\": \"scale-smoke\",\n\
      \  \"wall_budget_s\": %.1f,\n\
      \  \"rss_budget_kb\": %d,\n\
      \  \"large_scale\": {\n\
      \    \"digest_identical\": %b,\n\
      \    \"archive_identical\": %b,\n\
      \    \"points\": [\n%s\n    ]\n\
      \  }\n\
       }\n"
      wall_budget_s rss_budget_kb r.Scale.lr_digest_identical
      r.Scale.lr_archive_identical
      (String.concat ",\n" (List.map point_json r.Scale.lr_points))
  in
  output_string oc json;
  close_out oc;
  print_string json;
  List.iter
    (fun (p : Scale.large_point) ->
      Printf.printf
        "scale-smoke %s: %d switches | %d flows | %.2fs wall | %.0f events/s | peak RSS %.1f MB\n"
        p.Scale.lp_label p.Scale.lp_switches p.Scale.lp_flows p.Scale.lp_wall_s
        p.Scale.lp_events_per_sec
        (float_of_int p.Scale.lp_peak_rss_kb /. 1024.))
    r.Scale.lr_points;
  let failed = ref false in
  if not r.Scale.lr_digest_identical then begin
    prerr_endline "scale-smoke: control run diverged across shard counts";
    failed := true
  end;
  if not r.Scale.lr_archive_identical then begin
    prerr_endline "scale-smoke: streamed archives differ across shard counts";
    failed := true
  end;
  List.iter
    (fun (p : Scale.large_point) ->
      if p.Scale.lp_wall_s > wall_budget_s then begin
        Printf.eprintf "scale-smoke: %s took %.1fs, budget %.1fs\n"
          p.Scale.lp_label p.Scale.lp_wall_s wall_budget_s;
        failed := true
      end;
      (* peak_rss_kb = -1 means no /proc (not Linux): skip, don't fail. *)
      if p.Scale.lp_peak_rss_kb > rss_budget_kb then begin
        Printf.eprintf "scale-smoke: %s peak RSS %d kB, budget %d kB\n"
          p.Scale.lp_label p.Scale.lp_peak_rss_kb rss_budget_kb;
        failed := true
      end)
    r.Scale.lr_points;
  if !failed then exit 1;
  Printf.printf "scale-smoke: ok (wall budget %.0fs, RSS budget %d kB)\n"
    wall_budget_s rss_budget_kb
