open Speedlight_dataplane
module Trace = Speedlight_trace.Trace

type config = {
  channel_state : bool;
  wraparound : bool;
  max_sid : int;
  slot_count : int;
}

let default_config =
  { channel_state = true; wraparound = true; max_sid = 255; slot_count = 256 }

let variant_packet_count =
  { channel_state = false; wraparound = false; max_sid = 255; slot_count = 1024 }

let variant_wraparound =
  { channel_state = false; wraparound = true; max_sid = 255; slot_count = 256 }

let variant_channel_state =
  { channel_state = true; wraparound = true; max_sid = 255; slot_count = 256 }

type tap_event =
  | Tap_data of { channel : int; pkt_ghost : int; size : int }
  | Tap_external of { size : int }
  | Tap_init of { ghost : int }
  | Tap_app of {
      channel : int;
      pkt_ghost : int;
      contribution : float;
      delta : float;
    }
  | Tap_app_external of { delta : float }

(* Snapshot slots live flat in the arena, not as a record ring: slot [i]
   is one int cell (the unwrapped sid the slot holds, -1 when the slot
   was never written) plus two adjacent float cells (value, channel).
   Validity collapses to a single compare — the ghost cell equals the
   queried sid — because real sids are >= 1 and the init/reset fill is
   -1, which matches nothing. *)
type t = {
  uid : Unit_id.t;
  mutable ix : int;  (* dense index in the network; 0 until assigned *)
  cfg : config;
  n_neighbors : int;
  counter : Counter.t;
  notify : Notification.t -> unit;
  arena : Arena.t;
  nslots : int;
  ghost_base : int;  (* int plane: nslots cells *)
  val_base : int;  (* float plane: 2 * nslots cells, (value, channel) pairs *)
  slot_scratch : float array;  (* capture buffer for read_slot's blit *)
  mutable sid : int;  (* wrapped *)
  mutable ghost_sid : int;  (* unbounded *)
  last_seen_arr : int array;  (* wrapped; index 0 = CPU; empty w/o chnl state *)
  ghost_last_seen : int array;
  (* Data packets seen per upstream channel. Allocated on the first data
     packet: a quiet unit (the common case at datacenter scale, where
     egress units carry one entry per ingress port) costs nothing. *)
  mutable neighbor_traffic_arr : int array;
  mutable fifo_violations : int;
  mutable notifications : int;
  mutable tap : (tap_event -> unit) option;
  mutable ignore_packet_ids : bool;  (* fault knob: suppress marker logic *)
  (* Tracing (all instrumentation-only; never read by the protocol). *)
  tref : Trace.unit_ref;
  mutable tr : Trace.emitter;
  (* Marker-propagation depth at which [ghost_sid] was adopted: 0 for a
     control-plane initiation, carried depth + 1 for a marker. *)
  mutable depth : int;
  (* Highest ghost id this unit already stamped onto an outgoing packet —
     lets the tracer record the *first* marker out per snapshot only. *)
  mutable last_out_ghost : int;
}

let create ?arena ~id ~cfg ~n_neighbors ~counter ~notify () =
  if n_neighbors < 1 then invalid_arg "Snapshot_unit.create: need >= 1 neighbor";
  if cfg.wraparound && cfg.max_sid < 3 then
    invalid_arg "Snapshot_unit.create: max_sid must be >= 3";
  let nslots = if cfg.wraparound then cfg.max_sid + 1 else cfg.slot_count in
  let arena =
    match arena with
    | Some a -> a
    | None -> Arena.create ~int_capacity:nslots ~float_capacity:(2 * nslots) ()
  in
  let ghost_base = Arena.alloc_ints arena nslots in
  Arena.fill_ints arena ~base:ghost_base ~len:nslots (-1);
  let val_base = Arena.alloc_floats arena (2 * nslots) in
  let ls_size = if cfg.channel_state then n_neighbors else 0 in
  {
    uid = id;
    ix = 0;
    cfg;
    n_neighbors;
    counter;
    notify;
    arena;
    nslots;
    ghost_base;
    val_base;
    slot_scratch = Array.make 2 0.;
    sid = 0;
    ghost_sid = 0;
    last_seen_arr = Array.make (Stdlib.max ls_size 1) 0;
    ghost_last_seen = Array.make (Stdlib.max ls_size 1) 0;
    neighbor_traffic_arr = [||];
    fifo_violations = 0;
    notifications = 0;
    tap = None;
    ignore_packet_ids = false;
    tref =
      {
        Trace.u_switch = id.Unit_id.switch;
        u_port = id.Unit_id.port;
        u_ingress = (id.Unit_id.dir = Unit_id.Ingress);
      };
    tr = Trace.make_emitter ~src:(-1);
    depth = 0;
    last_out_ghost = 0;
  }

let id t = t.uid
let index t = t.ix
let set_index t i = t.ix <- i
let cfg t = t.cfg
let counter t = t.counter
let n_neighbors t = t.n_neighbors
let set_tap t f = t.tap <- f
let set_ignore_packet_ids t b = t.ignore_packet_ids <- b
let set_tracer t e = t.tr <- e
let tracer t = t.tr

let[@inline] tap_emit t ev =
  match t.tap with None -> () | Some f -> f ev
let current_sid t = t.sid
let current_ghost_sid t = t.ghost_sid
let current_depth t = t.depth
let last_seen t = if t.cfg.channel_state then Array.copy t.last_seen_arr else [||]
let fifo_violations t = t.fifo_violations
let notifications_sent t = t.notifications

let slot_index t ghost = ghost mod t.nslots

let wrap_of t ghost =
  if t.cfg.wraparound then Wrap.wrap ~max_sid:t.cfg.max_sid ghost else ghost

(* Compare a wrapped id [w] against a wrapped reference [r], using only
   hardware-available information. *)
let order_ids t w r =
  if t.cfg.wraparound then Wrap.compare_ids ~max_sid:t.cfg.max_sid w r
  else if w > r then Wrap.Newer
  else if w < r then Wrap.Older
  else Wrap.Equal

let unwrap_vs t ~reference w =
  if t.cfg.wraparound then Wrap.unwrap ~max_sid:t.cfg.max_sid ~reference w else w

let emit t ~now ~former_sid ~neighbor ~former_ls ~new_ls =
  t.notifications <- t.notifications + 1;
  t.notify
    {
      Notification.unit_id = t.uid;
      unit_ix = t.ix;
      former_sid;
      new_sid = t.sid;
      neighbor;
      former_last_seen = former_ls;
      new_last_seen = new_ls;
      dp_time = now;
      ghost_sid = t.ghost_sid;
    }

(* Save local state for a newly begun snapshot: the single register write
   the hardware performs on an ID advance. Skipped intermediate IDs get no
   slot of their own — the control plane masks them (Fig. 7). *)
let advance t ~now ~new_ghost ~depth ~via_init =
  let i = slot_index t new_ghost in
  Arena.set_int t.arena (t.ghost_base + i) new_ghost;
  Arena.set_float t.arena (t.val_base + (2 * i)) (Counter.read t.counter ~now);
  Arena.set_float t.arena (t.val_base + (2 * i) + 1) 0.;
  let from_ghost = t.ghost_sid in
  t.ghost_sid <- new_ghost;
  t.sid <- wrap_of t new_ghost;
  t.depth <- depth;
  if Trace.enabled t.tr then begin
    Trace.emit t.tr ~at:now
      (Trace.Id_advance
         { u = t.tref; from_ghost; to_ghost = new_ghost; depth; via_init });
    if
      t.cfg.wraparound
      && new_ghost / (t.cfg.max_sid + 1) > from_ghost / (t.cfg.max_sid + 1)
    then
      Trace.emit t.tr ~at:now
        (Trace.Wrap_around { u = t.tref; ghost = new_ghost })
  end

(* In-flight packet: its contribution belongs to every snapshot it
   straddles, but one register update is all we get — it goes to the
   current snapshot's slot. Straddled older snapshots were already marked
   inconsistent by the control plane when the ID advanced past them. *)
let add_in_flight t ~contribution =
  if t.ghost_sid > 0 then begin
    let i = slot_index t t.ghost_sid in
    if Arena.get_int t.arena (t.ghost_base + i) = t.ghost_sid then begin
      let c = t.val_base + (2 * i) + 1 in
      Arena.set_float t.arena c (Arena.get_float t.arena c +. contribution)
    end
  end

(* Record the snapshot ID carried by a packet from [neighbor] into the
   Last Seen array. FIFO channels only move it forward; a regression is
   counted as a violation and ignored. Returns (former, new) on change. *)
let update_last_seen t ~neighbor ~pkt_wrapped =
  if not t.cfg.channel_state then None
  else begin
    if neighbor < 0 || neighbor >= t.n_neighbors then
      invalid_arg "Snapshot_unit: bad neighbor index";
    let former = t.last_seen_arr.(neighbor) in
    match order_ids t pkt_wrapped former with
    | Wrap.Newer ->
        t.ghost_last_seen.(neighbor) <-
          unwrap_vs t ~reference:t.ghost_last_seen.(neighbor) pkt_wrapped;
        t.last_seen_arr.(neighbor) <- pkt_wrapped;
        Some (former, pkt_wrapped)
    | Wrap.Equal -> None
    | Wrap.Older ->
        t.fifo_violations <- t.fifo_violations + 1;
        None
  end

(* Shared tail of the snapshot logic: update Last Seen and notify the CPU
   of any progress. *)
let finish_logic t ~now ~neighbor ~pkt_wrapped ~former_sid ~sid_changed =
  let ls_change = update_last_seen t ~neighbor ~pkt_wrapped in
  if sid_changed || ls_change <> None then begin
    let former_ls, new_ls =
      match ls_change with
      | Some (f, n) -> (Some f, Some n)
      | None -> (None, None)
    in
    let neighbor = if ls_change = None then None else Some neighbor in
    emit t ~now ~former_sid ~neighbor ~former_ls ~new_ls
  end

(* Core snapshot logic for a data packet (Figs. 4/5): compare the carried
   ID to the local ID, advance / record in-flight contribution
   accordingly, update Last Seen, notify the CPU of any progress. The
   counter's channel contribution is only computed on the in-flight
   branch — it is dead weight on the dominant Equal path. *)
let snapshot_logic_data t ~now ~neighbor ~pkt_wrapped ~pkt_depth pkt =
  let former_sid = t.sid in
  let sid_changed =
    match order_ids t pkt_wrapped t.sid with
    | Wrap.Newer ->
        let new_ghost = unwrap_vs t ~reference:t.ghost_sid pkt_wrapped in
        if Trace.enabled t.tr then
          Trace.emit t.tr ~at:now
            (Trace.Marker_in
               {
                 u = t.tref;
                 wrapped = pkt_wrapped;
                 ghost = new_ghost;
                 channel = neighbor;
               });
        advance t ~now ~new_ghost ~depth:(pkt_depth + 1) ~via_init:false;
        true
    | Wrap.Older ->
        if t.cfg.channel_state then
          add_in_flight t
            ~contribution:(Counter.channel_contribution t.counter pkt);
        false
    | Wrap.Equal -> false
  in
  finish_logic t ~now ~neighbor ~pkt_wrapped ~former_sid ~sid_changed

(* Same for an initiation, which is never treated as in-flight traffic
   (§6). *)
let snapshot_logic_init t ~now ~neighbor ~pkt_wrapped =
  let former_sid = t.sid in
  let sid_changed =
    match order_ids t pkt_wrapped t.sid with
    | Wrap.Newer ->
        let new_ghost = unwrap_vs t ~reference:t.ghost_sid pkt_wrapped in
        advance t ~now ~new_ghost ~depth:0 ~via_init:true;
        true
    | Wrap.Older | Wrap.Equal -> false
  in
  finish_logic t ~now ~neighbor ~pkt_wrapped ~former_sid ~sid_changed

(* The unit's current ID leaves on this packet; record the first time
   each (strictly newer) ghost id goes out — that is the marker leaving. *)
let[@inline] note_marker_out t ~now =
  if t.ghost_sid > t.last_out_ghost then begin
    t.last_out_ghost <- t.ghost_sid;
    if Trace.enabled t.tr then
      Trace.emit t.tr ~at:now
        (Trace.Marker_out { u = t.tref; ghost = t.ghost_sid })
  end

let[@inline] count_neighbor_traffic t ch =
  if ch >= 0 && ch < t.n_neighbors then begin
    if Array.length t.neighbor_traffic_arr = 0 then
      t.neighbor_traffic_arr <- Array.make t.n_neighbors 0;
    t.neighbor_traffic_arr.(ch) <- t.neighbor_traffic_arr.(ch) + 1
  end

let process_packet t ~now (pkt : Packet.t) =
  if not pkt.Packet.has_snap then begin
    (* Packet from a snapshot-oblivious neighbor (e.g. a host): counter
       update only; attach a header at the current ID so downstream units
       see consistent markers. It carries no upstream snapshot
       information (its channel's completion is excluded by the control
       plane, §6 "Ensuring liveness"). *)
    tap_emit t (Tap_external { size = pkt.Packet.size });
    Counter.update t.counter ~now pkt;
    Packet.set_snap ~depth:t.depth pkt ~sid:t.sid ~channel:0
      ~ghost_sid:t.ghost_sid;
    note_marker_out t ~now
  end
  else begin
    let hdr = pkt.Packet.snap_hdr in
    (match hdr.ptype with
    | Snapshot_header.Initiation ->
        invalid_arg "Snapshot_unit.process_packet: initiations use process_initiation"
    | Snapshot_header.Data -> ());
    count_neighbor_traffic t hdr.channel;
    (* The tap fires before any logic (and before header rewrite) so
       auditors see the ID the packet actually carried on the wire —
       ground truth that stays correct even when the logic below is
       deliberately broken by a fault knob. *)
    tap_emit t
      (Tap_data
         { channel = hdr.channel; pkt_ghost = hdr.ghost_sid; size = pkt.Packet.size });
    (* Snapshot logic runs against the state as of *before* this packet
       (Fig. 3 line 13 updates state after the snapshot steps): a packet
       that itself advances the ID is post-snapshot everywhere. *)
    if not t.ignore_packet_ids then
      snapshot_logic_data t ~now ~neighbor:hdr.channel ~pkt_wrapped:hdr.sid
        ~pkt_depth:hdr.depth pkt;
    Counter.update t.counter ~now pkt;
    (* Rewrite: the packet now belongs to this unit's current epoch. *)
    hdr.sid <- t.sid;
    hdr.ghost_sid <- t.ghost_sid;
    hdr.depth <- t.depth;
    note_marker_out t ~now
  end

(* App-unit entry point (DESIGN.md §15): same snapshot logic as a data
   packet, but the stamp arrives out of band (the app-level overlay
   fields of the packet, rewritten only by the owning application) and
   the channel contribution / state delta are computed by the app, not
   by the unit's counter. No counter update and no header rewrite
   happen here — the app mutates its own registers after this returns,
   so a packet that advances the ID is post-snapshot, exactly like the
   Fig. 3 ordering for port units. *)
let process_tagged t ~now ~channel ~pkt_wrapped ~pkt_ghost ~pkt_depth
    ~contribution ~delta =
  count_neighbor_traffic t channel;
  tap_emit t (Tap_app { channel; pkt_ghost; contribution; delta });
  if not t.ignore_packet_ids then begin
    let former_sid = t.sid in
    let sid_changed =
      match order_ids t pkt_wrapped t.sid with
      | Wrap.Newer ->
          let new_ghost = unwrap_vs t ~reference:t.ghost_sid pkt_wrapped in
          if Trace.enabled t.tr then
            Trace.emit t.tr ~at:now
              (Trace.Marker_in
                 { u = t.tref; wrapped = pkt_wrapped; ghost = new_ghost; channel });
          advance t ~now ~new_ghost ~depth:(pkt_depth + 1) ~via_init:false;
          true
      | Wrap.Older ->
          if t.cfg.channel_state then add_in_flight t ~contribution;
          false
      | Wrap.Equal -> false
    in
    finish_logic t ~now ~neighbor:channel ~pkt_wrapped ~former_sid ~sid_changed
  end

(* App-unit counterpart of the headerless branch of [process_packet]: a
   state change caused by a snapshot-oblivious party (e.g. a chain
   client's write arriving at the head). Carries no snapshot
   information; the auditor still needs the delta. *)
let process_untagged t ~delta = tap_emit t (Tap_app_external { delta })

let process_initiation t ~now ~sid ~ghost_sid =
  tap_emit t (Tap_init { ghost = ghost_sid });
  snapshot_logic_init t ~now ~neighbor:0 ~pkt_wrapped:sid

type slot_read = { value : float option; channel : float }

(* Control-plane capture: one compare on the ghost cell, then a
   bounds-checked blit of the slot's (value, channel) pair out of the
   float plane — never a field walk over a heap record. *)
let read_slot t ~ghost_sid =
  let i = slot_index t ghost_sid in
  if Arena.get_int t.arena (t.ghost_base + i) = ghost_sid then begin
    Arena.blit_floats_to t.arena ~base:(t.val_base + (2 * i)) ~len:2 t.slot_scratch;
    { value = Some t.slot_scratch.(0); channel = t.slot_scratch.(1) }
  end
  else { value = None; channel = 0. }

let neighbor_traffic t =
  if Array.length t.neighbor_traffic_arr = 0 then Array.make t.n_neighbors 0
  else Array.copy t.neighbor_traffic_arr

let reset t =
  t.sid <- 0;
  t.ghost_sid <- 0;
  t.depth <- 0;
  t.last_out_ghost <- 0;
  Array.fill t.last_seen_arr 0 (Array.length t.last_seen_arr) 0;
  Array.fill t.ghost_last_seen 0 (Array.length t.ghost_last_seen) 0;
  if Array.length t.neighbor_traffic_arr > 0 then
    Array.fill t.neighbor_traffic_arr 0 (Array.length t.neighbor_traffic_arr) 0;
  Arena.fill_ints t.arena ~base:t.ghost_base ~len:t.nslots (-1);
  Arena.fill_floats t.arena ~base:t.val_base ~len:(2 * t.nslots) 0.;
  Counter.reset t.counter
