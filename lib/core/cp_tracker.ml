open Speedlight_sim
open Speedlight_dataplane

type dp_access = {
  read_slot : ghost_sid:int -> Snapshot_unit.slot_read;
  read_sid : unit -> int;
  read_last_seen : unit -> int array;
}

type unit_spec = {
  uid : Unit_id.t;
  access : dp_access;
  n_neighbors : int;
  excluded_neighbors : int list;
}

type ustate = {
  spec : unit_spec;
  mutable ctrl_sid : int;  (* unwrapped *)
  ctrl_last_seen : int array;  (* unwrapped *)
  included : bool array;
  mutable last_read : int;
  inconsistent : (int, unit) Hashtbl.t;
}

type t = {
  channel_state : bool;
  max_sid : int;
  wraparound : bool;
  units : ustate Unit_id.Map.t;  (* ordered: [poll] reports in this order *)
  index : ustate Unit_id.Tbl.t;  (* the same states, for O(1) lookup *)
  report : Report.t -> unit;
  windows : (int, Time.t * Time.t) Hashtbl.t;
  mutable processed : int;
  mutable duplicates : int;
}

let create ~channel_state ?(max_sid = 255) ?(wraparound = true) ~units ~report () =
  let mk spec =
    (* Last Seen shadows and the inclusion mask only drive the
       channel-state completion rule; without channel state a unit
       completes on its own ID alone, so skip the two O(n_neighbors)
       arrays — at datacenter scale they dominate control-plane memory
       (an egress unit has one neighbor per (in-port, CoS) pair). *)
    let included, ctrl_last_seen =
      if not channel_state then ([||], [||])
      else begin
        let included = Array.make spec.n_neighbors true in
        included.(0) <- false;
        List.iter
          (fun n ->
            if n >= 0 && n < spec.n_neighbors then included.(n) <- false)
          spec.excluded_neighbors;
        (included, Array.make spec.n_neighbors 0)
      end
    in
    {
      spec;
      ctrl_sid = 0;
      ctrl_last_seen;
      included;
      last_read = 0;
      inconsistent = Hashtbl.create 16;
    }
  in
  let map =
    List.fold_left
      (fun acc spec -> Unit_id.Map.add spec.uid (mk spec) acc)
      Unit_id.Map.empty units
  in
  let index = Unit_id.Tbl.create (Unit_id.Map.cardinal map) in
  Unit_id.Map.iter (Unit_id.Tbl.replace index) map;
  {
    channel_state;
    max_sid;
    wraparound;
    units = map;
    index;
    report;
    windows = Hashtbl.create 64;
    processed = 0;
    duplicates = 0;
  }

let ustate t uid =
  match Unit_id.Tbl.find_opt t.index uid with
  | Some u -> u
  | None -> invalid_arg ("Cp_tracker: unknown unit " ^ Unit_id.to_string uid)

let unwrap t ~reference w =
  if t.wraparound then Wrap.unwrap ~max_sid:t.max_sid ~reference w else w

(* min over included Last Seen entries; a unit with no included data
   channels completes as soon as its own ID advances. *)
let min_included u =
  let acc = ref max_int in
  for n = 0 to u.spec.n_neighbors - 1 do
    if u.included.(n) then acc := Stdlib.min !acc u.ctrl_last_seen.(n)
  done;
  if !acc = max_int then u.ctrl_sid else !acc

let mark_inconsistent u i = Hashtbl.replace u.inconsistent i ()

let finalize t u ~now i =
  let consistent = not (Hashtbl.mem u.inconsistent i) in
  let value, channel =
    if consistent then begin
      match u.spec.access.read_slot ~ghost_sid:i with
      | { Snapshot_unit.value = Some v; channel } -> (Some v, channel)
      | { Snapshot_unit.value = None; _ } ->
          (* Register no longer holds this snapshot (ring reuse after an
             extreme control-plane lag): unrecoverable. *)
          (None, 0.)
    end
    else (None, 0.)
  in
  let consistent = consistent && value <> None in
  t.report
    {
      Report.unit_id = u.spec.uid;
      sid = i;
      value;
      channel;
      consistent;
      inferred = false;
      completed_at = now;
    }

(* Channel-state mode: read every snapshot newly covered by the included
   Last Seen minimum (Fig. 7, lines 8-15). *)
let try_read_cs t u ~now =
  let to_read = Stdlib.min (min_included u) u.ctrl_sid in
  if to_read > u.last_read then begin
    for i = u.last_read + 1 to to_read do
      if i >= 1 then finalize t u ~now i
    done;
    u.last_read <- to_read
  end

(* No-channel-state mode: a snapshot is done as soon as the ID advances.
   Skipped IDs have no register of their own; their value is inferred from
   the nearest later snapshot (Fig. 7, lines 16-22). *)
let read_no_cs t u ~now =
  let hi = u.ctrl_sid in
  if hi > u.last_read then begin
    let lo = u.last_read + 1 in
    let n = hi - lo + 1 in
    let results = Array.make n (None, false) in
    let valid = ref None in
    for i = hi downto lo do
      match u.spec.access.read_slot ~ghost_sid:i with
      | { Snapshot_unit.value = Some v; _ } ->
          valid := Some v;
          results.(i - lo) <- (Some v, false)
      | { Snapshot_unit.value = None; _ } -> results.(i - lo) <- (!valid, true)
    done;
    for i = lo to hi do
      if i >= 1 then begin
        let value, inferred = results.(i - lo) in
        t.report
          {
            Report.unit_id = u.spec.uid;
            sid = i;
            value;
            channel = 0.;
            consistent = value <> None;
            inferred;
            completed_at = now;
          }
      end
    done;
    u.last_read <- hi
  end

let handle_sid_update t u ~now ~new_sid =
  if new_sid > u.ctrl_sid then begin
    if t.channel_state then begin
      (* Snapshots the data plane skipped past can no longer accumulate
         channel state correctly: conservatively inconsistent. *)
      let done_ = Stdlib.min (min_included u) u.ctrl_sid in
      for i = Stdlib.max (done_ + 1) (u.last_read + 1) to new_sid - 1 do
        mark_inconsistent u i
      done;
      u.ctrl_sid <- new_sid;
      try_read_cs t u ~now
    end
    else begin
      u.ctrl_sid <- new_sid;
      read_no_cs t u ~now
    end;
    true
  end
  else false

let handle_ls_update t u ~now ~neighbor ~new_ls =
  if t.channel_state && neighbor >= 0 && neighbor < u.spec.n_neighbors
     && new_ls > u.ctrl_last_seen.(neighbor)
  then begin
    u.ctrl_last_seen.(neighbor) <- new_ls;
    try_read_cs t u ~now;
    true
  end
  else false

let on_notify t ~now (n : Notification.t) =
  t.processed <- t.processed + 1;
  let u = ustate t n.unit_id in
  let new_sid = unwrap t ~reference:u.ctrl_sid n.new_sid in
  (* Record the synchronization window before any state updates. *)
  (match Hashtbl.find_opt t.windows new_sid with
  | None -> Hashtbl.replace t.windows new_sid (n.dp_time, n.dp_time)
  | Some (lo, hi) ->
      Hashtbl.replace t.windows new_sid
        (Stdlib.min lo n.dp_time, Stdlib.max hi n.dp_time));
  let sid_progress = handle_sid_update t u ~now ~new_sid in
  let ls_progress =
    match (n.neighbor, n.new_last_seen) with
    | Some nbr, Some w when t.channel_state ->
        let new_ls = unwrap t ~reference:u.ctrl_last_seen.(nbr) w in
        handle_ls_update t u ~now ~neighbor:nbr ~new_ls
    | _, _ -> false
  in
  if not (sid_progress || ls_progress) then t.duplicates <- t.duplicates + 1

let poll t ~now =
  Unit_id.Map.iter
    (fun _ u ->
      let w = u.spec.access.read_sid () in
      let new_sid = unwrap t ~reference:u.ctrl_sid w in
      ignore (handle_sid_update t u ~now ~new_sid);
      if t.channel_state then begin
        let ls = u.spec.access.read_last_seen () in
        Array.iteri
          (fun nbr w ->
            let new_ls = unwrap t ~reference:u.ctrl_last_seen.(nbr) w in
            ignore (handle_ls_update t u ~now ~neighbor:nbr ~new_ls))
          ls
      end)
    t.units

let exclude_neighbor t ~now uid neighbor =
  let u = ustate t uid in
  if neighbor >= 0 && neighbor < Array.length u.included && u.included.(neighbor)
  then begin
    u.included.(neighbor) <- false;
    (* The minimum may have just jumped forward: finalize what it covers. *)
    if t.channel_state then try_read_cs t u ~now
  end

let is_excluded t uid neighbor =
  let u = ustate t uid in
  neighbor >= 0 && neighbor < u.spec.n_neighbors
  && (neighbor >= Array.length u.included || not u.included.(neighbor))

let ctrl_sid t uid = (ustate t uid).ctrl_sid
let finished_through t uid = (ustate t uid).last_read
let is_inconsistent t uid ~sid = Hashtbl.mem (ustate t uid).inconsistent sid
let sync_window t ~sid = Hashtbl.find_opt t.windows sid
let notifications_processed t = t.processed
let duplicates_dropped t = t.duplicates
