(* Discrete-event engine.

   The event queue is a 4-ary {!Heap} of bare [unit -> unit] closures:
   scheduling pushes the caller's closure directly — no event record,
   nothing to recycle — and dispatch pops the minimum and calls it.
   Events are never cancelled; a caller whose timer can go stale checks
   its own state when the closure fires (the control plane's epoch, the
   observer's per-round done flag).

   Tie-breaking: two events at the same instant are ordered by a
   sub-priority. Events scheduled through the [_src] variants carry a
   caller-chosen *stable source id* and a per-source counter, so their
   order is a pure function of (time, source, per-source sequence) — not
   of the global order in which scheduling calls happened to execute.
   This is what makes a sharded run (where cross-shard events are
   re-scheduled at epoch boundaries) produce bit-identical results to a
   serial run: the heap priority of every source-tagged event is the same
   in both. Anonymous events ([schedule]/[schedule_after]) keep the legacy
   engine-global sequence and sort after every source-tagged event at the
   same instant. *)

type t = {
  mutable clock : Time.t;
  mutable seq : int;
  mutable processed : int;
  mutable src_cnt : int array;  (* per stable source: events scheduled *)
  queue : (unit -> unit) Heap.t;
  (* Observation hook run once per dispatched event (tracing/metrics);
     [None] in steady state — the dispatch loops pay one branch. *)
  mutable on_dispatch : (unit -> unit) option;
}

(* Sub-priority layout (63-bit int): source-tagged events use
   [src lsl src_shift | count]; anonymous events use [anon_base | seq].
   [anon_base] exceeds every source-tagged sub-priority, so anonymous
   events sort last at a given instant, among themselves in scheduling
   order. *)
let src_shift = 40
let max_src = 1 lsl 20
let anon_base = 1 lsl 61

let create ?capacity () =
  {
    clock = Time.zero;
    seq = 0;
    processed = 0;
    src_cnt = [||];
    queue = Heap.create ?capacity ();
    on_dispatch = None;
  }

let now t = t.clock
let processed t = t.processed
let set_dispatch_hook t h = t.on_dispatch <- h

let[@inline] dispatched t =
  t.processed <- t.processed + 1;
  match t.on_dispatch with None -> () | Some h -> h ()

let enqueue t ~at g =
  Heap.push t.queue ~key:at ~seq:(anon_base lor t.seq) g;
  t.seq <- t.seq + 1

let sub_of_src t src =
  if src < 0 || src >= max_src then
    invalid_arg (Printf.sprintf "Engine: source id %d out of range" src);
  if src >= Array.length t.src_cnt then begin
    let ncap = ref (Stdlib.max 64 (Array.length t.src_cnt * 2)) in
    while src >= !ncap do
      ncap := !ncap * 2
    done;
    let nc = Array.make !ncap 0 in
    Array.blit t.src_cnt 0 nc 0 (Array.length t.src_cnt);
    t.src_cnt <- nc
  end;
  let c = Array.unsafe_get t.src_cnt src in
  Array.unsafe_set t.src_cnt src (c + 1);
  (src lsl src_shift) lor c

let enqueue_src t ~src ~at g = Heap.push t.queue ~key:at ~seq:(sub_of_src t src) g

let schedule t ~at f =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule: time %d is in the past (now %d)" at t.clock);
  enqueue t ~at f

let schedule_after t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule_after: negative delay";
  enqueue t ~at:(t.clock + delay) f

let schedule_unit = schedule
let schedule_after_unit = schedule_after

(* Source-tagged variants: deterministic tie order across executions. *)

let schedule_src_unit t ~src ~at f =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_src: time %d is in the past (now %d)" at
         t.clock);
  enqueue_src t ~src ~at f

let schedule_src_after_unit t ~src ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule_src_after: negative delay";
  enqueue_src t ~src ~at:(t.clock + delay) f

let pending t = Heap.length t.queue
let queue_high_water t = Heap.high_water t.queue

let step t =
  if Heap.is_empty t.queue then false
  else begin
    t.clock <- Heap.top_key t.queue;
    let g = Heap.pop_top t.queue in
    dispatched t;
    g ();
    true
  end

let run t = while step t do () done

let run_until t deadline =
  (* Open-coded [step] so the top key is read once per event. *)
  let q = t.queue in
  let continue = ref true in
  while !continue do
    if Heap.is_empty q then continue := false
    else begin
      let k = Heap.top_key q in
      if k > deadline then continue := false
      else begin
        t.clock <- k;
        let g = Heap.pop_top q in
        dispatched t;
        g ()
      end
    end
  done;
  if deadline > t.clock then t.clock <- deadline

(* Epoch primitives for the conservative sharded runner. *)

let run_until_excl t bound =
  (* Like [run_until] but strictly before [bound], and without padding the
     clock: events at exactly [bound] may still be produced by other
     shards, so neither they nor the clock may move past the window. *)
  let q = t.queue in
  let continue = ref true in
  while !continue do
    if Heap.is_empty q then continue := false
    else begin
      let k = Heap.top_key q in
      if k >= bound then continue := false
      else begin
        t.clock <- k;
        let g = Heap.pop_top q in
        dispatched t;
        g ()
      end
    end
  done

let next_key t = Heap.peek_key t.queue
let advance_clock t deadline = if deadline > t.clock then t.clock <- deadline
