open Speedlight_sim
open Speedlight_dataplane

type unit_spec = { unit_ : Snapshot_unit.t; excluded_neighbors : int list }

type ustate = {
  su : Snapshot_unit.t;  (* registers are read straight from the unit *)
  uid : Unit_id.t;
  n_neighbors : int;
  mutable ctrl_sid : int;  (* unwrapped *)
  ctrl_last_seen : int array;  (* unwrapped *)
  included : bool array;
  mutable last_read : int;
  (* Snapshots the data plane skipped past: only the channel-state path
     ever marks one, so the table is allocated on the first skip. *)
  mutable inconsistent : (int, unit) Hashtbl.t option;
}

type t = {
  channel_state : bool;
  max_sid : int;
  wraparound : bool;
  base : int;  (* dense index of [units.(0)] *)
  units : ustate array;  (* by dense index - [base] *)
  by_id : ustate array;  (* the same states by Unit_id: [poll] reports in this order *)
  report : Report.t -> unit;
  windows : (int, Time.t * Time.t) Hashtbl.t;
  mutable processed : int;
  mutable duplicates : int;
}

let create ~channel_state ?(max_sid = 255) ?(wraparound = true) ~units ~report () =
  let mk spec =
    let su = spec.unit_ in
    let n_neighbors = Snapshot_unit.n_neighbors su in
    (* Last Seen shadows and the inclusion mask only drive the
       channel-state completion rule; without channel state a unit
       completes on its own ID alone, so skip the two O(n_neighbors)
       arrays — at datacenter scale they dominate control-plane memory
       (an egress unit has one neighbor per (in-port, CoS) pair). *)
    let included, ctrl_last_seen =
      if not channel_state then ([||], [||])
      else begin
        let included = Array.make n_neighbors true in
        included.(0) <- false;
        List.iter
          (fun n -> if n >= 0 && n < n_neighbors then included.(n) <- false)
          spec.excluded_neighbors;
        (included, Array.make n_neighbors 0)
      end
    in
    {
      su;
      uid = Snapshot_unit.id su;
      n_neighbors;
      ctrl_sid = 0;
      ctrl_last_seen;
      included;
      last_read = 0;
      inconsistent = None;
    }
  in
  let ix u = Snapshot_unit.index u.su in
  let units = Array.of_list (List.map mk units) in
  Array.sort (fun a b -> Int.compare (ix a) (ix b)) units;
  let base = if Array.length units = 0 then 0 else ix units.(0) in
  Array.iteri
    (fun k u ->
      if ix u <> base + k then
        invalid_arg "Cp_tracker.create: unit indices must be distinct and contiguous")
    units;
  let by_id = Array.copy units in
  Array.sort (fun a b -> Unit_id.compare a.uid b.uid) by_id;
  {
    channel_state;
    max_sid;
    wraparound;
    base;
    units;
    by_id;
    report;
    windows = Hashtbl.create 64;
    processed = 0;
    duplicates = 0;
  }

let unknown uid = invalid_arg ("Cp_tracker: unknown unit " ^ Unit_id.to_string uid)

(* A notification's unit: its index finds the state, its id must agree. *)
let at_index t ix uid =
  let k = ix - t.base in
  if k < 0 || k >= Array.length t.units then unknown uid
  else
    let u = t.units.(k) in
    if Unit_id.equal u.uid uid then u else unknown uid

(* Queries by id alone: a binary search of [by_id]. *)
let ustate t uid =
  let rec go lo hi =
    if lo >= hi then unknown uid
    else
      let mid = (lo + hi) / 2 in
      let u = t.by_id.(mid) in
      let c = Unit_id.compare uid u.uid in
      if c = 0 then u else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length t.by_id)

let unwrap t ~reference w =
  if t.wraparound then Wrap.unwrap ~max_sid:t.max_sid ~reference w else w

(* min over included Last Seen entries; a unit with no included data
   channels completes as soon as its own ID advances. *)
let min_included u =
  let acc = ref max_int in
  for n = 0 to u.n_neighbors - 1 do
    if u.included.(n) then acc := Stdlib.min !acc u.ctrl_last_seen.(n)
  done;
  if !acc = max_int then u.ctrl_sid else !acc

let mark_inconsistent u i =
  match u.inconsistent with
  | Some tbl -> Hashtbl.replace tbl i ()
  | None ->
      let tbl = Hashtbl.create 16 in
      Hashtbl.replace tbl i ();
      u.inconsistent <- Some tbl

let marked_inconsistent u i =
  match u.inconsistent with Some tbl -> Hashtbl.mem tbl i | None -> false

let finalize t u ~now i =
  let consistent = not (marked_inconsistent u i) in
  let value, channel =
    if consistent then begin
      match Snapshot_unit.read_slot u.su ~ghost_sid:i with
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
      Report.unit_id = u.uid;
      unit_ix = Snapshot_unit.index u.su;
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
      match Snapshot_unit.read_slot u.su ~ghost_sid:i with
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
            Report.unit_id = u.uid;
            unit_ix = Snapshot_unit.index u.su;
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
  if t.channel_state && neighbor >= 0 && neighbor < u.n_neighbors
     && new_ls > u.ctrl_last_seen.(neighbor)
  then begin
    u.ctrl_last_seen.(neighbor) <- new_ls;
    try_read_cs t u ~now;
    true
  end
  else false

let on_notify t ~now (n : Notification.t) =
  t.processed <- t.processed + 1;
  let u = at_index t n.unit_ix n.unit_id in
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
  Array.iter
    (fun u ->
      let w = Snapshot_unit.current_sid u.su in
      let new_sid = unwrap t ~reference:u.ctrl_sid w in
      ignore (handle_sid_update t u ~now ~new_sid);
      if t.channel_state then begin
        let ls = Snapshot_unit.last_seen u.su in
        Array.iteri
          (fun nbr w ->
            let new_ls = unwrap t ~reference:u.ctrl_last_seen.(nbr) w in
            ignore (handle_ls_update t u ~now ~neighbor:nbr ~new_ls))
          ls
      end)
    t.by_id

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
  neighbor >= 0 && neighbor < u.n_neighbors
  && (neighbor >= Array.length u.included || not u.included.(neighbor))

let ctrl_sid t uid = (ustate t uid).ctrl_sid
let finished_through t uid = (ustate t uid).last_read
let is_inconsistent t uid ~sid = marked_inconsistent (ustate t uid) sid
let sync_window t ~sid = Hashtbl.find_opt t.windows sid
let notifications_processed t = t.processed
let duplicates_dropped t = t.duplicates
