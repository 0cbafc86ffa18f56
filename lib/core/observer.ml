open Speedlight_sim
open Speedlight_dataplane
module Trace = Speedlight_trace.Trace

type device = {
  device_id : int;
  units : (int * Unit_id.t) list;
  initiate : sid:int -> fire_at:Time.t -> unit;
  resend : sid:int -> unit;
}

type snapshot = {
  sid : int;
  reports : Report.t Unit_id.Map.t;
  complete : bool;
  consistent : bool;
  timed_out : int list;
}

(* A registered device with the dense indices of its units. *)
type member = { dev : device; idx : int array }

type pending = {
  p_sid : int;
  mutable p_slots : Report.t option array;
      (* by dense unit index, sized to the units registered at take time;
         [||] once finished *)
  mutable p_missing : int;
  mutable p_retries : int;
  mutable p_excluded : int list;
  mutable p_done : bool;
  p_expected : member list;
}

type t = {
  engine : Engine.t;
  lead_time : Time.t;
  retry_timeout : Time.t;
  max_retries : int;
  max_outstanding : int;
  retain : int option;  (* finished snapshots kept; None = all *)
  mutable members : member list;
  mutable unit_ids : Unit_id.t array;  (* by dense index, [n_units] of them registered *)
  mutable n_units : int;
  mutable template : int Unit_id.Map.t;  (* unit -> dense index, ordered: shapes [reports] *)
  mutable next_sid : int;
  pending : (int, pending) Hashtbl.t;
  finished : (int, snapshot) Hashtbl.t;
  finished_order : int Queue.t;  (* completion order, for eviction *)
  fire_times : (int, Time.t) Hashtbl.t;
  mutable callbacks : (snapshot -> unit) list;
  mutable retries : int;
  mutable tr : Trace.emitter;
}

type error = Pacing_full | No_devices

let error_to_string = function
  | Pacing_full -> "too many outstanding snapshots (pacing)"
  | No_devices -> "no registered devices"

let create ~engine ?(lead_time = Time.ms 1) ?(retry_timeout = Time.ms 50)
    ?(max_retries = 5) ?(max_outstanding = 8) ?retain () =
  (match retain with
  | Some n when n < 1 -> invalid_arg "Observer.create: retain must be >= 1"
  | _ -> ());
  {
    engine;
    lead_time;
    retry_timeout;
    max_retries;
    max_outstanding;
    retain;
    members = [];
    unit_ids = [||];
    n_units = 0;
    template = Unit_id.Map.empty;
    next_sid = 1;
    pending = Hashtbl.create 32;
    finished = Hashtbl.create 256;
    finished_order = Queue.create ();
    fire_times = Hashtbl.create 256;
    callbacks = [];
    retries = 0;
    tr = Trace.make_emitter ~src:(-1);
  }

let set_tracer t e = t.tr <- e

(* Indices are dense in registration order, so a unit registered after
   a take indexes past that round's slots. *)
let add_unit t (i, u) =
  if i <> t.n_units || Unit_id.Map.mem u t.template then
    invalid_arg
      (Printf.sprintf "Observer.register_device: %s at index %d, expected a new unit at %d"
         (Unit_id.to_string u) i t.n_units);
  if i = Array.length t.unit_ids then begin
    let grown = Array.make (Stdlib.max 64 (2 * i)) u in
    Array.blit t.unit_ids 0 grown 0 i;
    t.unit_ids <- grown
  end;
  t.unit_ids.(i) <- u;
  t.n_units <- i + 1;
  t.template <- Unit_id.Map.add u i t.template;
  i

let register_device t d =
  let idx = Array.of_list (List.map (add_unit t) d.units) in
  t.members <- { dev = d; idx } :: t.members

let on_complete t f = t.callbacks <- f :: t.callbacks

(* O(units): [filter_map] keeps the template's shape without comparing
   keys. Units registered after the round was taken index past its
   slots and are left out. *)
let to_snapshot t p =
  let n = Array.length p.p_slots in
  let reports =
    Unit_id.Map.filter_map
      (fun _ i -> if i < n then p.p_slots.(i) else None)
      t.template
  in
  let consistent =
    p.p_excluded = []
    && Array.for_all
         (function Some (r : Report.t) -> r.consistent | None -> true)
         p.p_slots
  in
  {
    sid = p.p_sid;
    reports;
    complete = p.p_missing = 0 && p.p_excluded = [];
    consistent;
    timed_out = p.p_excluded;
  }

let evict t =
  match t.retain with
  | None -> ()
  | Some cap ->
      while Queue.length t.finished_order > cap do
        let old = Queue.pop t.finished_order in
        Hashtbl.remove t.finished old;
        Hashtbl.remove t.fire_times old
      done

let finish t p =
  if not p.p_done then begin
    p.p_done <- true;
    Hashtbl.remove t.pending p.p_sid;
    let snap = to_snapshot t p in
    (* The retry closure keeps [p] alive for a further timeout: release
       the slots now rather than hold them next to [snap.reports]. *)
    p.p_slots <- [||];
    Hashtbl.replace t.finished p.p_sid snap;
    Queue.push p.p_sid t.finished_order;
    (* Evict before the callbacks run: a streaming archiver is the
       retention mechanism once memory is capped, and the cap must hold
       even if a callback allocates. *)
    evict t;
    if Trace.enabled t.tr then
      Trace.emit t.tr ~at:(Engine.now t.engine)
        (Trace.Snap_done
           {
             sid = snap.sid;
             complete = snap.complete;
             consistent = snap.consistent;
           });
    List.iter (fun f -> f snap) (List.rev t.callbacks)
  end

let rec arm_retry t p =
  ignore
    (Engine.schedule_after t.engine ~delay:t.retry_timeout (fun () ->
         if not p.p_done then begin
           if p.p_missing > 0 then begin
             (* Devices that still owe reports. *)
             let owing =
               List.filter
                 (fun m -> Array.exists (fun i -> Option.is_none p.p_slots.(i)) m.idx)
                 p.p_expected
             in
             if p.p_retries < t.max_retries then begin
               p.p_retries <- p.p_retries + 1;
               t.retries <- t.retries + 1;
               List.iter (fun m -> m.dev.resend ~sid:p.p_sid) owing;
               arm_retry t p
             end
             else begin
               (* Give up on unresponsive devices: exclude them (§6, "If a
                  device fails, it may timeout and be excluded"). *)
               p.p_excluded <- List.map (fun m -> m.dev.device_id) owing;
               finish t p
             end
           end
         end))

let try_take_snapshot t ?at () =
  if Hashtbl.length t.pending >= t.max_outstanding then Error Pacing_full
  else if t.members = [] then Error No_devices
  else begin
  let sid = t.next_sid in
  t.next_sid <- sid + 1;
  let fire_at =
    match at with Some a -> a | None -> Time.add (Engine.now t.engine) t.lead_time
  in
  Hashtbl.replace t.fire_times sid fire_at;
  if Trace.enabled t.tr then
    Trace.emit t.tr ~at:(Engine.now t.engine)
      (Trace.Snap_request { sid; fire_at });
  let n = t.n_units in
  let p =
    {
      p_sid = sid;
      p_slots = Array.make n None;
      p_missing = n;
      p_retries = 0;
      p_excluded = [];
      p_done = false;
      p_expected = t.members;
    }
  in
  Hashtbl.replace t.pending sid p;
  List.iter (fun m -> m.dev.initiate ~sid ~fire_at) t.members;
  (* First retry check fires one timeout after the scheduled execution. *)
  ignore
    (Engine.schedule t.engine ~at:fire_at (fun () -> arm_retry t p));
  Ok sid
  end

let on_report t (r : Report.t) =
  match Hashtbl.find_opt t.pending r.sid with
  | None ->
      (* Spurious: unknown sid (pre-registration jump-ahead, or a repeat
         for an already-finished snapshot). Ignored by design. *)
      ()
  | Some p ->
      (* The index files the report; the id it carries must name the unit
         registered there. A unit registered after the take indexes past
         the round's slots. *)
      let i = r.unit_ix in
      if i >= 0 && i < Array.length p.p_slots
         && Option.is_none p.p_slots.(i)
         && Unit_id.equal t.unit_ids.(i) r.unit_id
      then begin
        p.p_slots.(i) <- Some r;
        p.p_missing <- p.p_missing - 1;
        if p.p_missing = 0 then finish t p
      end

let result t ~sid =
  match Hashtbl.find_opt t.finished sid with
  | Some s -> Some s
  | None -> Option.map (to_snapshot t) (Hashtbl.find_opt t.pending sid)

let completed t ~sid = Hashtbl.mem t.finished sid
let outstanding t = Hashtbl.length t.pending
let last_sid t = t.next_sid - 1
let retries_sent t = t.retries
let fire_time t ~sid = Hashtbl.find_opt t.fire_times sid

let staleness t ~sid =
  match (fire_time t ~sid, Hashtbl.find_opt t.finished sid) with
  | Some fired, Some snap ->
      Unit_id.Map.fold
        (fun _ (r : Report.t) acc ->
          let lag = Time.sub r.completed_at fired in
          Some (match acc with None -> lag | Some a -> Stdlib.max a lag))
        snap.reports None
  | _ -> None
