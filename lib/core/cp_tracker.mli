(** Control-plane snapshot tracking — Figure 7 of the paper.

    One tracker runs per switch. It consumes data-plane notifications and
    (a) detects when each processing unit has finished each snapshot,
    (b) marks snapshots that the data plane skipped past as inconsistent
    (channel-state mode), or infers their values (no-channel-state mode),
    (c) reads finalized snapshot values out of the data-plane registers and
    emits {!Report.t}s, and (d) records per-snapshot notification
    timestamps (the synchronization metric of §8.1).

    The tracker works in {e unwrapped} ID space internally: wrapped fields
    arriving in notifications are unwrapped against the tracker's own view,
    which is the rollover-aware bookkeeping §5.3 calls for. *)

open Speedlight_sim
open Speedlight_dataplane

type unit_spec = {
  unit_ : Snapshot_unit.t;
      (** the tracked unit: its id, dense index ({!Snapshot_unit.index})
          and neighbor count, and the registers the tracker reads over
          the PCIe path, both for value collection and for proactive
          polling *)
  excluded_neighbors : int list;
      (** Last Seen entries removed from completion consideration (§6
          "Ensuring liveness", e.g. host-facing channels); index 0 (the
          control plane) is always excluded *)
}

type t

val create :
  channel_state:bool ->
  ?max_sid:int ->
  ?wraparound:bool ->
  units:unit_spec list ->
  report:(Report.t -> unit) ->
  unit ->
  t
(** [max_sid]/[wraparound] must match the data-plane configuration
    (defaults: 255, true). The units' dense indices must be distinct and
    contiguous (a switch's units hold one range of the network's index
    space): the tracker keeps unit state in an array by index. Raises
    [Invalid_argument] otherwise. *)

val on_notify : t -> now:Time.t -> Notification.t -> unit
(** Main event handler (Fig. 7, [OnNotifyCS] / [OnNotifyNoCS]). Duplicate
    notifications are ignored; [now] is the control plane's receive time
    used to stamp emitted reports. The notification's [unit_ix] selects
    the unit's state; raises [Invalid_argument] when no unit the tracker
    was created with holds that index and carries that [unit_id]. *)

val poll : t -> now:Time.t -> unit
(** Proactively read every unit's snapshot-ID and Last Seen registers and
    process any progress found, recovering from dropped notifications
    (§6). Units are visited in [Unit_id] order, whatever the order of
    their specs. *)

val exclude_neighbor : t -> now:Time.t -> Unit_id.t -> int -> unit
(** Remove a Last Seen entry from completion consideration at runtime (§6:
    "operators can configure the removal of non-utilized upstream
    neighbors from ctrlLastSeen consideration"). Snapshots newly covered by
    the shrunken minimum are finalized immediately. *)

val is_excluded : t -> Unit_id.t -> int -> bool

val ctrl_sid : t -> Unit_id.t -> int
(** Control-plane view of a unit's (unwrapped) current snapshot ID. *)

val finished_through : t -> Unit_id.t -> int
(** Greatest snapshot ID the unit has finalized ([lastRead]). *)

val is_inconsistent : t -> Unit_id.t -> sid:int -> bool

val sync_window : t -> sid:int -> (Time.t * Time.t) option
(** Earliest and latest data-plane notification timestamps seen for the
    given (unwrapped) snapshot ID — the per-switch synchronization window
    of §8.1. *)

val notifications_processed : t -> int
val duplicates_dropped : t -> int
