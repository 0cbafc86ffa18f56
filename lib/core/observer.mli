(** The snapshot observer (§3, §6).

    A host-side process that schedules network-wide snapshots with every
    device control plane, assembles the per-unit reports they ship back,
    detects global completion, re-initiates after timeouts (liveness), and
    times out devices that fail. It also paces snapshot IDs so the
    wraparound soundness window ({!Wrap.max_skew}) is never exceeded. *)

open Speedlight_sim
open Speedlight_dataplane

type device = {
  device_id : int;
  units : (int * Unit_id.t) list;
      (** processing units expected to report, each with its dense index
          (the [unit_ix] of its reports). Indices follow registration
          order: the next unit registered takes the number of units
          registered before it. *)
  initiate : sid:int -> fire_at:Time.t -> unit;
      (** ask the device control plane to initiate snapshot [sid] at
          (devices interpret this against their own clocks) time
          [fire_at] *)
  resend : sid:int -> unit;
      (** re-broadcast initiation for an incomplete snapshot (§6: safe,
          duplicates are ignored) *)
}

type snapshot = {
  sid : int;
  reports : Report.t Unit_id.Map.t;
  complete : bool;  (** every expected unit reported *)
  consistent : bool;  (** ... and every report was consistent *)
  timed_out : int list;  (** devices excluded after repeated timeouts *)
}

type t

val create :
  engine:Engine.t ->
  ?lead_time:Time.t ->
  ?retry_timeout:Time.t ->
  ?max_retries:int ->
  ?max_outstanding:int ->
  ?retain:int ->
  unit ->
  t
(** [lead_time] is how far in the future snapshots are scheduled (default
    1 ms); [retry_timeout] how long to wait before re-initiating (default
    50 ms); [max_outstanding] caps concurrently outstanding snapshot IDs
    (default 8) for wraparound safety. [retain] keeps only the last N
    finished snapshots (>= 1) in memory, evicting older ones as new
    snapshots complete — for long runs whose rounds are streamed to an
    archive by the completion callback; default is to keep all. Evicted
    sids lose {!result}/{!completed}/{!fire_time}/{!staleness}. *)

val register_device : t -> device -> unit
(** Devices must be registered before the snapshots that include them
    (§6 "Node attachment"). Raises [Invalid_argument] if a unit is
    already registered or its index is not the next one. *)

val on_report : t -> Report.t -> unit
(** Deliver a per-unit report from a device control plane. The report is
    filed by its [unit_ix] and counts only if the unit registered at that
    index, before the snapshot was taken, carries its [unit_id]; others
    are ignored. Reports for snapshot IDs predating the device's
    registration (a freshly attached node jumping ahead) are ignored as
    spurious. *)

type error =
  | Pacing_full
      (** the pacing window ([max_outstanding]) is full — wait for
          completions first (wraparound safety, §5.3) *)
  | No_devices  (** no device registered yet *)

val error_to_string : error -> string

val try_take_snapshot : t -> ?at:Time.t -> unit -> (int, error) result
(** Schedule the next snapshot: broadcasts initiation requests to all
    registered devices and returns the assigned snapshot ID. [at] defaults
    to [now + lead_time]. All error handling is the caller's: there is
    deliberately no raising wrapper. *)

val result : t -> sid:int -> snapshot option
(** The assembled snapshot, if all expected units reported (or the
    snapshot finished with exclusions). Also available while incomplete —
    check the [complete] flag. *)

val completed : t -> sid:int -> bool
val outstanding : t -> int
val last_sid : t -> int

val on_complete : t -> (snapshot -> unit) -> unit
(** Register a callback invoked exactly once per snapshot when it
    completes (including completion-by-exclusion after timeouts). *)

val retries_sent : t -> int

val fire_time : t -> sid:int -> Time.t option
(** The true time snapshot [sid] was scheduled to execute at. *)

val staleness : t -> sid:int -> Time.t option
(** Age of a completed snapshot when its last report arrived: latest
    report [completed_at] minus the scheduled fire time. [None] while
    incomplete. The freshness metric of the chaos sweeps — it grows with
    retries and recovery delays. *)

val set_tracer : t -> Speedlight_trace.Trace.emitter -> unit
(** Install the observer's trace emitter (snapshot requests and
    completions). Detached by default. *)
