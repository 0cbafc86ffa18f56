(* Tests for the simulation substrate: time, RNG, distributions, the event
   heap and the discrete-event engine. *)

open Speedlight_sim

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Time *)

let test_time_units () =
  Alcotest.(check int) "us" 1_000 (Time.us 1);
  Alcotest.(check int) "ms" 1_000_000 (Time.ms 1);
  Alcotest.(check int) "sec" 1_000_000_000 (Time.sec 1);
  Alcotest.(check int) "add" (Time.us 3) (Time.add (Time.us 1) (Time.us 2));
  Alcotest.(check int) "sub" (Time.us 1) (Time.sub (Time.us 3) (Time.us 2))

let test_time_float_conversions () =
  check_float "to_us" 1.5 (Time.to_us 1_500);
  check_float "to_ms" 0.5 (Time.to_ms 500_000);
  check_float "to_sec" 2.0 (Time.to_sec 2_000_000_000);
  Alcotest.(check int) "of_us_float rounds" 1_500 (Time.of_us_float 1.5);
  Alcotest.(check int) "of_ns_float rounds nearest" 3 (Time.of_ns_float 2.6)

let test_time_pp () =
  Alcotest.(check string) "ns" "999ns" (Time.to_string 999);
  Alcotest.(check string) "us" "1.50us" (Time.to_string 1_500);
  Alcotest.(check string) "ms" "2.000ms" (Time.to_string (Time.ms 2));
  Alcotest.(check string) "s" "1.000s" (Time.to_string (Time.sec 1))

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds diverge" true
    (Rng.bits64 a <> Rng.bits64 b)

let test_rng_copy_independent () =
  let a = Rng.create 7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  let xa = Rng.bits64 a in
  let xb = Rng.bits64 b in
  Alcotest.(check int64) "copy continues the same stream" xa xb

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xs = List.init 50 (fun _ -> Rng.bits64 a) in
  let ys = List.init 50 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let x = Rng.int rng bound in
      x >= 0 && x < bound)

let test_rng_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int_in inclusive bounds" ~count:500
    QCheck.(triple small_int (int_range (-1000) 1000) (int_range 0 1000))
    (fun (seed, lo, span) ->
      let rng = Rng.create seed in
      let hi = lo + span in
      let x = Rng.int_in rng lo hi in
      x >= lo && x <= hi)

let test_rng_unit_float_range =
  QCheck.Test.make ~name:"Rng.unit_float in [0,1)" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let x = Rng.unit_float rng in
      x >= 0. && x < 1.)

let test_rng_uniformity () =
  (* Rough chi-square-free check: mean of many uniform draws near 0.5. *)
  let rng = Rng.create 99 in
  let n = 100_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Rng.unit_float rng
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_rng_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list_of_size Gen.(1 -- 20) int))
    (fun (seed, l) ->
      let rng = Rng.create seed in
      let a = Array.of_list l in
      Rng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 5 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never true" false (Rng.bernoulli rng 0.);
    Alcotest.(check bool) "p=1 always true" true (Rng.bernoulli rng 1.)
  done

(* ------------------------------------------------------------------ *)
(* Dist *)

let sample_mean d seed n =
  let rng = Rng.create seed in
  Dist.mean_of d rng n

let test_dist_constant () =
  check_float "constant" 42. (sample_mean (Dist.constant 42.) 1 100)

let test_dist_exponential_mean () =
  let m = sample_mean (Dist.exponential ~mean:100.) 2 200_000 in
  Alcotest.(check bool) "exp mean ~100" true (Float.abs (m -. 100.) < 2.)

let test_dist_uniform_mean () =
  let m = sample_mean (Dist.uniform ~lo:10. ~hi:20.) 3 100_000 in
  Alcotest.(check bool) "uniform mean ~15" true (Float.abs (m -. 15.) < 0.1)

let test_dist_normal_mean_sigma () =
  let rng = Rng.create 4 in
  let d = Dist.normal ~mu:5. ~sigma:2. in
  let n = 100_000 in
  let xs = Array.init n (fun _ -> Dist.sample d rng) in
  let mean = Array.fold_left ( +. ) 0. xs /. float_of_int n in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs
    /. float_of_int n
  in
  Alcotest.(check bool) "normal mean" true (Float.abs (mean -. 5.) < 0.05);
  Alcotest.(check bool) "normal sigma" true (Float.abs (sqrt var -. 2.) < 0.05)

let test_dist_normal_pos_nonneg =
  QCheck.Test.make ~name:"normal_pos never negative" ~count:1000 QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      Dist.sample (Dist.normal_pos ~mu:(-1.) ~sigma:3.) rng >= 0.)

let test_dist_lognormal_of_mean_cv () =
  let d = Dist.lognormal_of_mean_cv ~mean:1000. ~cv:0.5 in
  let m = sample_mean d 6 200_000 in
  Alcotest.(check bool) "lognormal real-space mean" true
    (Float.abs (m -. 1000.) < 15.)

let test_dist_pareto_minimum =
  QCheck.Test.make ~name:"pareto >= scale" ~count:1000 QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      Dist.sample (Dist.pareto ~scale:10. ~shape:1.5) rng >= 10.)

let test_dist_empirical_support () =
  let values = [| 1.; 2.; 3. |] in
  let rng = Rng.create 7 in
  let d = Dist.empirical values in
  for _ = 1 to 200 do
    let x = Dist.sample d rng in
    Alcotest.(check bool) "in support" true (Array.exists (fun v -> v = x) values)
  done

let test_dist_empirical_empty () =
  Alcotest.check_raises "empty empirical" (Invalid_argument "Dist.empirical: empty array")
    (fun () -> ignore (Dist.empirical [||]))

let test_dist_combinators () =
  let rng = Rng.create 8 in
  check_float "shifted" 52. (Dist.sample (Dist.shifted 10. (Dist.constant 42.)) rng);
  check_float "scaled" 84. (Dist.sample (Dist.scaled 2. (Dist.constant 42.)) rng);
  check_float "clamp_min" 50. (Dist.sample (Dist.clamp_min 50. (Dist.constant 42.)) rng)

let test_dist_mixture_weights () =
  let d = Dist.mixture [ (0.9, Dist.constant 1.); (0.1, Dist.constant 2.) ] in
  let rng = Rng.create 9 in
  let n = 50_000 in
  let ones = ref 0 in
  for _ = 1 to n do
    if Dist.sample d rng = 1. then incr ones
  done;
  let frac = float_of_int !ones /. float_of_int n in
  Alcotest.(check bool) "mixture weight respected" true (Float.abs (frac -. 0.9) < 0.01)

let test_dist_mixture_zero_weight_tail () =
  (* A zero-weight component is never selected, even as the structural
     fall-through of the sampling walk (regression: the walk fell
     through to the last listed component, so a trailing zero-weight
     entry could be sampled when rounding pushed the draw past the
     cumulative sum). *)
  let d =
    Dist.mixture
      [ (0.3, Dist.constant 1.); (0.7, Dist.constant 2.); (0., Dist.constant 99.) ]
  in
  let rng = Rng.create 17 in
  for _ = 1 to 100_000 do
    let x = Dist.sample d rng in
    if x = 99. then Alcotest.fail "zero-weight component was sampled"
  done;
  (* Same with the zero weight in the middle. *)
  let d =
    Dist.mixture
      [ (0.5, Dist.constant 1.); (0., Dist.constant 99.); (0.5, Dist.constant 2.) ]
  in
  for _ = 1 to 100_000 do
    if Dist.sample d rng = 99. then Alcotest.fail "zero-weight component was sampled"
  done

let test_dist_mixture_validation () =
  let invalid msg parts =
    match Dist.mixture parts with
    | _ -> Alcotest.failf "mixture accepted %s" msg
    | exception Invalid_argument _ -> ()
  in
  invalid "an empty list" [];
  invalid "a negative weight" [ (0.5, Dist.constant 1.); (-0.1, Dist.constant 2.) ];
  invalid "an all-zero total" [ (0., Dist.constant 1.); (0., Dist.constant 2.) ];
  invalid "a NaN total" [ (Float.nan, Dist.constant 1.) ]

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_basic () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Heap.push h ~key:5 ~seq:0 "five";
  Heap.push h ~key:1 ~seq:1 "one";
  Heap.push h ~key:3 ~seq:2 "three";
  Alcotest.(check int) "length" 3 (Heap.length h);
  Alcotest.(check (option int)) "peek" (Some 1) (Heap.peek_key h);
  let pop_value () =
    match Heap.pop h with Some (_, _, v) -> v | None -> "EMPTY"
  in
  Alcotest.(check string) "min first" "one" (pop_value ());
  Alcotest.(check string) "then three" "three" (pop_value ());
  Alcotest.(check string) "then five" "five" (pop_value ());
  Alcotest.(check bool) "drained" true (Heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~key:7 ~seq:i i
  done;
  for i = 0 to 9 do
    match Heap.pop h with
    | Some (_, _, v) -> Alcotest.(check int) "FIFO among equal keys" i v
    | None -> Alcotest.fail "heap drained early"
  done

let test_heap_sorted_property =
  QCheck.Test.make ~name:"heap pops keys in nondecreasing order" ~count:200
    QCheck.(list_of_size Gen.(0 -- 200) (int_range 0 1000))
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h ~key:k ~seq:i k) keys;
      let rec drain acc =
        match Heap.pop h with
        | Some (k, _, _) -> drain (k :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      popped = List.sort compare keys)

let test_heap_clear () =
  let h = Heap.create () in
  Heap.push h ~key:1 ~seq:0 ();
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h);
  Alcotest.(check (option int)) "no peek" None (Heap.peek_key h)

(* Model check: a random interleaving of pushes and pops, compared
   element-for-element against a list kept sorted by (key, seq). This
   exercises the FIFO tie-break among equal keys mid-stream (not just on
   final drain), growth from a tiny initial capacity, and reuse of the
   backing arrays across [clear]. *)
let test_heap_model_property =
  let cmp (k1, s1, _) (k2, s2, _) = compare (k1, s1) (k2, s2) in
  QCheck.Test.make ~name:"heap matches (key, seq)-sorted model under push/pop mix"
    ~count:300
    QCheck.(list_of_size Gen.(0 -- 300) (pair bool (int_range 0 50)))
    (fun ops ->
      let h = Heap.create ~capacity:2 () in
      let check_rounds round =
        let model = ref [] and seq = ref 0 and ok = ref true in
        List.iter
          (fun (is_push, k) ->
            if is_push then begin
              (* Perturb keys across rounds so a reused backing array with
                 stale contents would be caught. *)
              let k = k + round in
              Heap.push h ~key:k ~seq:!seq !seq;
              model := List.merge cmp !model [ (k, !seq, !seq) ];
              incr seq
            end
            else
              match (Heap.pop h, !model) with
              | None, [] -> ()
              | Some (k', s', v'), (k, s, v) :: rest
                when k' = k && s' = s && v' = v ->
                  model := rest
              | _ -> ok := false)
          ops;
        List.iter
          (fun (k, s, v) ->
            match Heap.pop h with
            | Some (k', s', v') when k' = k && s' = s && v' = v -> ()
            | _ -> ok := false)
          !model;
        let empty = Heap.is_empty h in
        Heap.clear h;
        !ok && empty
      in
      check_rounds 0 && check_rounds 1)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~at:30 (fun () -> log := 3 :: !log));
  ignore (Engine.schedule e ~at:10 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~at:20 (fun () -> log := 2 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 30 (Engine.now e)

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~at:100 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "scheduling order at equal times" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_reentrant_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~at:10 (fun () ->
         log := "a" :: !log;
         ignore (Engine.schedule_after e ~delay:5 (fun () -> log := "b" :: !log))));
  Engine.run e;
  Alcotest.(check (list string)) "handler-scheduled event runs" [ "a"; "b" ]
    (List.rev !log);
  Alcotest.(check int) "final clock" 15 (Engine.now e)

let test_engine_past_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~at:100 (fun () -> ()));
  Engine.run e;
  Alcotest.(check bool) "scheduling in the past raises" true
    (try
       ignore (Engine.schedule e ~at:50 (fun () -> ()));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative delay raises" true
    (try
       ignore (Engine.schedule_after e ~delay:(-1) (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let test_engine_run_until () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~at:10 (fun () -> log := 10 :: !log));
  ignore (Engine.schedule e ~at:20 (fun () -> log := 20 :: !log));
  ignore (Engine.schedule e ~at:30 (fun () -> log := 30 :: !log));
  Engine.run_until e 20;
  Alcotest.(check (list int)) "events up to deadline" [ 10; 20 ] (List.rev !log);
  Alcotest.(check int) "clock advanced to deadline" 20 (Engine.now e);
  Alcotest.(check int) "later event still pending" 1 (Engine.pending e);
  Engine.run_until e 25;
  Alcotest.(check int) "clock moves even without events" 25 (Engine.now e)

let test_engine_step () =
  let e = Engine.create () in
  Alcotest.(check bool) "step on empty" false (Engine.step e);
  ignore (Engine.schedule e ~at:5 (fun () -> ()));
  Alcotest.(check bool) "step consumes" true (Engine.step e);
  Alcotest.(check bool) "then empty" false (Engine.step e)

(* Source-tagged events: at one instant the order is (source id,
   per-source sequence), regardless of the order the scheduling calls
   ran — the property the sharded backend relies on to make cross-shard
   handoff order-independent. Anonymous events sort after every tagged
   one. *)
let test_engine_src_priority () =
  let e = Engine.create () in
  let log = ref [] in
  let tag v = log := v :: !log in
  Engine.schedule_src_unit e ~src:2 ~at:10 (fun () -> tag "s2a");
  Engine.schedule_unit e ~at:10 (fun () -> tag "anon1");
  Engine.schedule_src_unit e ~src:0 ~at:10 (fun () -> tag "s0a");
  Engine.schedule_src_unit e ~src:2 ~at:10 (fun () -> tag "s2b");
  Engine.schedule_unit e ~at:10 (fun () -> tag "anon2");
  Engine.schedule_src_unit e ~src:1 ~at:10 (fun () -> tag "s1a");
  Engine.schedule_src_unit e ~src:0 ~at:10 (fun () -> tag "s0b");
  Engine.run e;
  Alcotest.(check (list string))
    "(src, per-src seq) order, anonymous last"
    [ "s0a"; "s0b"; "s1a"; "s2a"; "s2b"; "anon1"; "anon2" ]
    (List.rev !log)

(* The same source-tagged schedule, issued in two different call orders,
   executes identically — scheduling order is not observable. *)
let test_engine_src_call_order_independent () =
  let run order =
    let e = Engine.create () in
    let log = ref [] in
    List.iter
      (fun (src, name) ->
        Engine.schedule_src_unit e ~src ~at:50 (fun () -> log := name :: !log))
      order;
    Engine.run e;
    List.rev !log
  in
  let a = run [ (3, "x"); (1, "y"); (2, "z") ] in
  let b = run [ (2, "z"); (3, "x"); (1, "y") ] in
  Alcotest.(check (list string)) "same execution order" a b

let test_engine_src_earlier_time_wins () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_src_unit e ~src:0 ~at:20 (fun () -> log := "late-src0" :: !log);
  Engine.schedule_unit e ~at:10 (fun () -> log := "early-anon" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "time dominates source priority"
    [ "early-anon"; "late-src0" ] (List.rev !log)

let test_engine_run_until_excl () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~at:10 (fun () -> log := 10 :: !log));
  ignore (Engine.schedule e ~at:20 (fun () -> log := 20 :: !log));
  ignore (Engine.schedule e ~at:30 (fun () -> log := 30 :: !log));
  Engine.run_until_excl e 20;
  Alcotest.(check (list int)) "strictly before the bound" [ 10 ] (List.rev !log);
  Alcotest.(check int) "clock at last executed event, not the bound" 10
    (Engine.now e);
  Alcotest.(check (option int)) "bound event still pending" (Some 20)
    (Engine.next_key e);
  (* An arrival exactly at the previous bound is legal (not in the past),
     and being source-tagged it runs before the anonymous event already
     queued at the same instant. *)
  Engine.schedule_src_unit e ~src:5 ~at:20 (fun () -> log := 21 :: !log);
  Engine.run_until_excl e 31;
  Alcotest.(check (list int)) "rest in order" [ 10; 21; 20; 30 ] (List.rev !log);
  Engine.advance_clock e 40;
  Alcotest.(check int) "advance_clock pads forward" 40 (Engine.now e);
  Engine.advance_clock e 35;
  Alcotest.(check int) "advance_clock never goes backwards" 40 (Engine.now e)

(* A population past 65,536 pending events, with the key shapes a
   bucketed queue gets wrong: a dense sub-100 us band, same-instant ties
   on a few us-spaced instants, and far ms outliers. Handlers schedule
   follow-ups re-entrantly. Dispatch must follow (time, FIFO) order, and
   the queue high water must be the peak pending count and stay there
   once [run] has emptied the queue. *)
let test_engine_queue_high_water () =
  let e = Engine.create () in
  let rng = Rng.create 42 in
  let delay () =
    match Rng.int rng 10 with
    | 0 -> Time.ms 1 + Rng.int rng (Time.ms 9)
    | 1 | 2 -> Time.us (Rng.int rng 8)
    | _ -> Rng.int rng (Time.us 100)
  in
  let scheduled = ref 0 and peak = ref 0 and dispatched = ref 0 in
  let last = ref (-1, -1) in
  let rec schedule at =
    let seq = !scheduled in
    incr scheduled;
    Engine.schedule e ~at (fun () ->
        if Engine.now e <> at then
          Alcotest.failf "event %d ran at %d, scheduled for %d" seq
            (Engine.now e) at;
        if compare (at, seq) !last <= 0 then
          Alcotest.failf "event (%d, %d) dispatched after (%d, %d)" at seq
            (fst !last) (snd !last);
        last := (at, seq);
        incr dispatched;
        if Rng.int rng 4 = 0 then schedule (Engine.now e + delay ()));
    peak := Stdlib.max !peak (Engine.pending e)
  in
  let n = 70_000 in
  for _ = 1 to n do
    schedule (delay ())
  done;
  Alcotest.(check int) "high water = pending after the fill" n
    (Engine.queue_high_water e);
  Engine.run e;
  Alcotest.(check int) "every event dispatched" !scheduled !dispatched;
  Alcotest.(check int) "queue empty" 0 (Engine.pending e);
  Alcotest.(check bool) "follow-ups were scheduled" true (!scheduled > n);
  Alcotest.(check int) "high water = peak pending, kept after run" !peak
    (Engine.queue_high_water e);
  Alcotest.(check int) "peak is the fill" n !peak


(* ------------------------------------------------------------------ *)
(* Partition *)

(* A path graph 0-1-2-...-7: BFS-contiguous halves with the single cut
   edge in the middle. *)
let path_edges n w = List.init (n - 1) (fun i -> (i, i + 1, w i))

let test_partition_path () =
  let edges = path_edges 8 (fun _ -> 100) in
  let assign = Partition.compute ~n_nodes:8 ~edges ~parts:2 in
  Alcotest.(check (array int)) "contiguous halves" [| 0; 0; 0; 0; 1; 1; 1; 1 |] assign;
  Alcotest.(check int) "one cut edge" 1 (Partition.n_cross ~assign ~edges);
  Alcotest.(check (option int)) "lookahead = cut latency" (Some 100)
    (Partition.cross_lookahead ~assign ~edges)

let test_partition_balance () =
  (* 10 nodes over 4 parts: sizes 3/3/2/2, every part non-empty. *)
  let edges = path_edges 10 (fun _ -> 1) in
  let assign = Partition.compute ~n_nodes:10 ~edges ~parts:4 in
  let sizes = Array.make 4 0 in
  Array.iter (fun p -> sizes.(p) <- sizes.(p) + 1) assign;
  Alcotest.(check (array int)) "balanced sizes" [| 3; 3; 2; 2 |] sizes

let test_partition_clamp () =
  let edges = path_edges 3 (fun _ -> 1) in
  let assign = Partition.compute ~n_nodes:3 ~edges ~parts:8 in
  Alcotest.(check int) "parts clamped to nodes" 2
    (Array.fold_left Stdlib.max 0 assign);
  Alcotest.(check (option int)) "single part has no cut" None
    (Partition.cross_lookahead
       ~assign:(Partition.compute ~n_nodes:3 ~edges ~parts:1)
       ~edges)

let test_partition_min_cut_weight () =
  let edges = [ (0, 1, 50); (1, 2, 7); (2, 3, 50) ] in
  let assign = [| 0; 0; 1; 1 |] in
  Alcotest.(check (option int)) "min weight over the cut" (Some 7)
    (Partition.cross_lookahead ~assign ~edges)

let test_partition_deterministic () =
  let edges =
    [ (0, 1, 3); (1, 2, 4); (2, 3, 5); (3, 0, 6); (1, 3, 7); (4, 5, 8); (5, 0, 9) ]
  in
  let a = Partition.compute ~n_nodes:6 ~edges ~parts:3 in
  let b = Partition.compute ~n_nodes:6 ~edges ~parts:3 in
  Alcotest.(check (array int)) "pure function of the graph" a b

(* Topology-shaped edge lists for the refinement properties: a 2x4
   leaf-spine, a k=4 fat tree's switch graph, and a pseudo-random
   graph from a hand-rolled LCG (no [Random]: tests must be
   deterministic). Weights vary so refinement has something to
   optimize. *)
let leaf_spine_edges =
  (* spines 0-1, leaves 2-5, full bipartite leaf-spine mesh. *)
  List.concat_map (fun s -> List.init 4 (fun l -> (s, 2 + l, 10 + s + l))) [ 0; 1 ]

let fat_tree_edges =
  (* k=4: 4 cores (0-3), 8 aggs (4-11), 8 edges (12-19). Pod p has aggs
     {4+2p, 5+2p} and edge switches {12+2p, 13+2p}; agg i connects to
     cores sharing its index parity group. *)
  let pods = [ 0; 1; 2; 3 ] in
  let core_links =
    List.concat_map
      (fun p ->
        List.concat_map
          (fun a ->
            List.init 2 (fun c -> (4 + (2 * p) + a, (2 * a) + c, 7 + a + c)))
          [ 0; 1 ])
      pods
  in
  let pod_links =
    List.concat_map
      (fun p ->
        List.concat_map
          (fun a -> List.init 2 (fun e -> (4 + (2 * p) + a, 12 + (2 * p) + e, 3 + e)))
          [ 0; 1 ])
      pods
  in
  core_links @ pod_links

let random_edges ~n ~m ~seed =
  let state = ref seed in
  let next bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  List.init m (fun _ ->
      let u = next n in
      let v = (u + 1 + next (n - 1)) mod n in
      (u, v, 1 + next 20))

let check_refined ~name ~n_nodes ~edges ~parts =
  let seed = Partition.compute ~n_nodes ~edges ~parts in
  let refined = Partition.compute_refined ~n_nodes ~edges ~parts in
  let eff = 1 + Array.fold_left Stdlib.max 0 refined in
  let sizes = Array.make eff 0 in
  Array.iter (fun p -> sizes.(p) <- sizes.(p) + 1) refined;
  Array.iteri
    (fun p s ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: part %d non-empty" name p)
        true (s > 0))
    sizes;
  Alcotest.(check bool)
    (Printf.sprintf "%s: refined cut weight <= BFS seed" name)
    true
    (Partition.cut_weight ~assign:refined ~edges
    <= Partition.cut_weight ~assign:seed ~edges);
  Alcotest.(check (array int))
    (Printf.sprintf "%s: deterministic" name)
    refined
    (Partition.compute_refined ~n_nodes ~edges ~parts)

let test_partition_refined_properties () =
  List.iter
    (fun parts ->
      check_refined ~name:"leaf-spine" ~n_nodes:6 ~edges:leaf_spine_edges ~parts;
      check_refined ~name:"fat-tree" ~n_nodes:20 ~edges:fat_tree_edges ~parts;
      List.iter
        (fun s ->
          check_refined
            ~name:(Printf.sprintf "random/%d" s)
            ~n_nodes:24
            ~edges:(random_edges ~n:24 ~m:60 ~seed:s)
            ~parts)
        [ 1; 2; 3 ])
    [ 2; 3; 4; 8 ]

let test_partition_quality_report () =
  let edges = fat_tree_edges in
  let assign = Partition.compute_refined ~n_nodes:20 ~edges ~parts:4 in
  let r = Partition.quality ~n_nodes:20 ~edges ~parts:4 ~assign in
  Alcotest.(check int) "parts" 4 r.Partition.parts;
  Alcotest.(check int) "sizes cover all nodes" 20
    (Array.fold_left ( + ) 0 r.Partition.sizes);
  Alcotest.(check int) "cut edges match n_cross" (Partition.n_cross ~assign ~edges)
    r.Partition.cut_edges;
  Alcotest.(check int) "cut weight matches" (Partition.cut_weight ~assign ~edges)
    r.Partition.cut_weight;
  Alcotest.(check bool) "refined no worse than seed" true
    (r.Partition.cut_weight <= r.Partition.seed_cut_weight)

(* ------------------------------------------------------------------ *)
(* Mailbox *)

let test_mailbox_fifo () =
  let mb = Mailbox.create () in
  Alcotest.(check bool) "fresh is empty" true (Mailbox.is_empty mb);
  for i = 1 to 5 do
    Mailbox.push mb i
  done;
  Alcotest.(check int) "length" 5 (Mailbox.length mb);
  let out = ref [] in
  Mailbox.drain mb (fun v -> out := v :: !out);
  Alcotest.(check (list int)) "FIFO order" [ 1; 2; 3; 4; 5 ] (List.rev !out);
  Alcotest.(check bool) "drained" true (Mailbox.is_empty mb);
  (* Reusable after a drain. *)
  Mailbox.push mb 42;
  let out = ref [] in
  Mailbox.drain mb (fun v -> out := v :: !out);
  Alcotest.(check (list int)) "reusable" [ 42 ] !out

let test_mailbox_multichunk () =
  (* Well past one 256-slot chunk, twice, to exercise the chunk chain
     and the freelist reuse path. *)
  let mb = Mailbox.create () in
  let n = 1000 in
  for round = 1 to 2 do
    for i = 1 to n do
      Mailbox.push mb ((round * n) + i)
    done;
    Alcotest.(check int) "length spans chunks" n (Mailbox.length mb);
    let out = ref [] in
    Mailbox.drain mb (fun v -> out := v :: !out);
    Alcotest.(check (list int))
      (Printf.sprintf "round %d FIFO across chunks" round)
      (List.init n (fun i -> (round * n) + i + 1))
      (List.rev !out);
    Alcotest.(check bool) "empty after drain" true (Mailbox.is_empty mb)
  done

(* ------------------------------------------------------------------ *)
(* Shard *)

(* Two engines exchanging ping-pong messages through mailboxes under
   Shard.run_until: every cross-shard message lands one lookahead later,
   and a global action runs between epochs with both shards quiesced. *)
let test_shard_ping_pong () =
  let engines = [| Engine.create (); Engine.create () |] in
  let boxes = [| Mailbox.create (); Mailbox.create () |] in
  let log = ref [] in
  let lookahead = 10 in
  (* [send ~from_shard v] delivers [v] to the other shard's log one
     lookahead later, via its mailbox. *)
  let rec deliver shard (at, v) =
    Engine.schedule_src_unit engines.(shard) ~src:1 ~at (fun () ->
        log := (shard, at, v) :: !log;
        if v < 6 then send ~from_shard:shard (v + 1))
  and send ~from_shard v =
    let dst = 1 - from_shard in
    let at = Engine.now engines.(from_shard) + lookahead in
    Mailbox.push boxes.(dst) (at, v)
  in
  deliver 0 (0, 0);
  let globals = ref [ 25 ] in
  let global_ran = ref [] in
  ignore
    (Shard.run_until ~engines
       ~lookahead:(Shard.Lookahead.uniform ~n:2 lookahead)
       ~deadline:100
       ~drain:(fun i -> Mailbox.drain boxes.(i) (fun m -> deliver i m))
    ~next_global:(fun () -> match !globals with [] -> None | t :: _ -> Some t)
    ~run_global:(fun () ->
      match !globals with
      | t :: rest ->
          globals := rest;
          (* Both shards are parked and their clocks advanced to [t]. *)
          global_ran := (t, Engine.now engines.(0), Engine.now engines.(1)) :: !global_ran
      | [] -> assert false)
       ());
  Alcotest.(check (list (triple int int int)))
    "hops alternate shards, one lookahead apart"
    [ (0, 0, 0); (1, 10, 1); (0, 20, 2); (1, 30, 3); (0, 40, 4); (1, 50, 5); (0, 60, 6) ]
    (List.rev !log);
  Alcotest.(check (list (triple int int int)))
    "global ran once with both clocks at its instant" [ (25, 25, 25) ] !global_ran;
  Alcotest.(check int) "clock 0 padded to deadline" 100 (Engine.now engines.(0));
  Alcotest.(check int) "clock 1 padded to deadline" 100 (Engine.now engines.(1))

let test_shard_error_propagates () =
  let engines = [| Engine.create (); Engine.create () |] in
  Engine.schedule_unit engines.(1) ~at:5 (fun () -> failwith "boom");
  Alcotest.check_raises "worker exception reaches the caller"
    (Failure "boom")
    (fun () ->
      ignore
        (Shard.run_until ~engines
           ~lookahead:(Shard.Lookahead.uniform ~n:2 1)
           ~deadline:10
           ~drain:(fun _ -> ())
           ~next_global:(fun () -> None)
           ~run_global:(fun () -> ())
           ()))

let test_shard_lookahead_required () =
  Alcotest.(check bool) "zero lookahead rejected" true
    (try
       ignore (Shard.Lookahead.uniform ~n:1 0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Pool: exception propagation *)

exception Task_boom of int

let test_pool_results_in_task_order () =
  let tasks = Array.init 16 (fun i () -> i * i) in
  Alcotest.(check (array int))
    "results indexed by task" (Array.map (fun f -> f ()) tasks)
    (Pool.run ~domains:4 tasks)

let test_pool_propagates_task_exception () =
  (* The real exception (payload included) must surface in the caller,
     not an anonymous "task produced no result". *)
  let ran = Array.make 8 false in
  let tasks =
    Array.init 8 (fun i () ->
        ran.(i) <- true;
        if i = 5 then raise (Task_boom i);
        i)
  in
  (match Pool.run ~domains:4 tasks with
  | exception Task_boom i -> Alcotest.(check int) "failing task's payload" 5 i
  | exception e ->
      Alcotest.failf "expected Task_boom, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "failing task must raise");
  (* Remaining tasks still ran — one failure does not starve the rest. *)
  Alcotest.(check (array bool)) "every task executed" (Array.make 8 true) ran

let test_pool_first_failure_in_task_order () =
  (* Two failing tasks: which exception wins must not depend on domain
     scheduling — always the lowest task index. *)
  for domains = 2 to 4 do
    let tasks =
      Array.init 12 (fun i () -> if i = 3 || i = 9 then raise (Task_boom i) else i)
    in
    match Pool.run ~domains tasks with
    | exception Task_boom i ->
        Alcotest.(check int)
          (Printf.sprintf "first failure at %d domains" domains)
          3 i
    | exception e ->
        Alcotest.failf "expected Task_boom, got %s" (Printexc.to_string e)
    | _ -> Alcotest.fail "failing tasks must raise"
  done

let test_pool_sequential_exception () =
  (* domains:1 takes the no-spawn path; same observable contract. *)
  let tasks = Array.init 4 (fun i () -> if i = 2 then raise (Task_boom i) else i) in
  match Pool.run ~domains:1 tasks with
  | exception Task_boom i -> Alcotest.(check int) "payload" 2 i
  | exception e -> Alcotest.failf "expected Task_boom, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "failing task must raise"

let q = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sim"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "float conversions" `Quick test_time_float_conversions;
          Alcotest.test_case "pretty printing" `Quick test_time_pp;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          q test_rng_int_bounds;
          q test_rng_int_in_bounds;
          q test_rng_unit_float_range;
          q test_rng_shuffle_permutation;
        ] );
      ( "dist",
        [
          Alcotest.test_case "constant" `Quick test_dist_constant;
          Alcotest.test_case "exponential mean" `Quick test_dist_exponential_mean;
          Alcotest.test_case "uniform mean" `Quick test_dist_uniform_mean;
          Alcotest.test_case "normal moments" `Quick test_dist_normal_mean_sigma;
          Alcotest.test_case "lognormal mean/cv" `Quick test_dist_lognormal_of_mean_cv;
          Alcotest.test_case "empirical support" `Quick test_dist_empirical_support;
          Alcotest.test_case "empirical empty" `Quick test_dist_empirical_empty;
          Alcotest.test_case "combinators" `Quick test_dist_combinators;
          Alcotest.test_case "mixture weights" `Quick test_dist_mixture_weights;
          Alcotest.test_case "mixture zero-weight tail" `Quick
            test_dist_mixture_zero_weight_tail;
          Alcotest.test_case "mixture validation" `Quick
            test_dist_mixture_validation;
          q test_dist_normal_pos_nonneg;
          q test_dist_pareto_minimum;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic" `Quick test_heap_basic;
          Alcotest.test_case "FIFO ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          q test_heap_sorted_property;
          q test_heap_model_property;
        ] );
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "same-time FIFO" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "re-entrant" `Quick test_engine_reentrant_scheduling;
          Alcotest.test_case "past rejected" `Quick test_engine_past_rejected;
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "step" `Quick test_engine_step;
          Alcotest.test_case "src priority" `Quick test_engine_src_priority;
          Alcotest.test_case "src call-order independence" `Quick
            test_engine_src_call_order_independent;
          Alcotest.test_case "src vs time" `Quick test_engine_src_earlier_time_wins;
          Alcotest.test_case "run_until_excl" `Quick test_engine_run_until_excl;
          Alcotest.test_case "queue high water" `Quick test_engine_queue_high_water;
        ] );
      ( "partition",
        [
          Alcotest.test_case "path halves" `Quick test_partition_path;
          Alcotest.test_case "balance" `Quick test_partition_balance;
          Alcotest.test_case "clamp" `Quick test_partition_clamp;
          Alcotest.test_case "min cut weight" `Quick test_partition_min_cut_weight;
          Alcotest.test_case "deterministic" `Quick test_partition_deterministic;
          Alcotest.test_case "refined properties" `Quick
            test_partition_refined_properties;
          Alcotest.test_case "quality report" `Quick test_partition_quality_report;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "multi-chunk fifo" `Quick test_mailbox_multichunk;
        ] );
      ( "shard",
        [
          Alcotest.test_case "ping-pong epochs" `Quick test_shard_ping_pong;
          Alcotest.test_case "error propagation" `Quick test_shard_error_propagates;
          Alcotest.test_case "lookahead required" `Quick test_shard_lookahead_required;
        ] );
      ( "pool",
        [
          Alcotest.test_case "results in task order" `Quick
            test_pool_results_in_task_order;
          Alcotest.test_case "propagates task exception" `Quick
            test_pool_propagates_task_exception;
          Alcotest.test_case "first failure in task order" `Quick
            test_pool_first_failure_in_task_order;
          Alcotest.test_case "sequential exception path" `Quick
            test_pool_sequential_exception;
        ] );
    ]
