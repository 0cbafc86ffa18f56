(** The Speedlight data-plane processing unit (Figures 4 and 5).

    This is the hardware-constrained realization of {!Ideal_unit}: bounded
    snapshot-ID space with optional wraparound, a fixed ring of snapshot
    slots, and — critically — no ability to loop over intermediate IDs at
    line rate. When the packet ID and local ID differ by more than 1, the
    unit performs the single register update the hardware can afford and
    relies on the control plane ({!Cp_tracker}) to mark skipped snapshots
    inconsistent (with channel state) or to infer their values (without).

    Neighbor indexing convention: index 0 is always the control plane
    (whose Last Seen entry participates only in rollover bookkeeping, never
    in completion); data channels use indices >= 1, assigned by the switch
    that owns the unit. *)

open Speedlight_sim
open Speedlight_dataplane

type config = {
  channel_state : bool;  (** collect in-flight contributions + Last Seen *)
  wraparound : bool;  (** bounded ID space with rollover (§5.3) *)
  max_sid : int;  (** largest wrapped ID; modulus is [max_sid + 1] *)
  slot_count : int;  (** snapshot-value ring size when not wrapping *)
}

val default_config : config
(** channel state on, wraparound on, [max_sid = 255], 256 slots. *)

val variant_packet_count : config
(** Table 1 "Packet Count" column: no wraparound, no channel state. *)

val variant_wraparound : config
(** Table 1 "+ Wrap Around": wraparound, no channel state. *)

val variant_channel_state : config
(** Table 1 "+ Chnl. State": wraparound and channel state. *)

type t

val create :
  ?arena:Arena.t ->
  id:Unit_id.t ->
  cfg:config ->
  n_neighbors:int ->
  counter:Counter.t ->
  notify:(Notification.t -> unit) ->
  unit ->
  t
(** [n_neighbors] includes the control plane at index 0, so a unit with one
    physical upstream passes 2. The unit's snapshot slots are flat slices
    of [arena] (a fresh private arena when omitted); pass the owning
    shard's arena so all units of a domain share contiguous planes. *)

val id : t -> Unit_id.t

val index : t -> int
(** The unit's dense index in its network, stamped on every notification
    it emits ([Notification.unit_ix]) and carried on to the observer in
    its reports. 0 until {!set_index}. *)

val set_index : t -> int -> unit
(** Assign the dense index. The network assigns it once, while it
    registers units, before any control plane or observer sees the unit. *)

val cfg : t -> config
val counter : t -> Counter.t

val n_neighbors : t -> int
(** Number of upstream channels including the control plane at index 0. *)

val current_sid : t -> int
(** Wrapped current snapshot ID (what the register holds). *)

val current_ghost_sid : t -> int
(** Unbounded counterpart (instrumentation / control-plane view). *)

val current_depth : t -> int
(** Marker-propagation depth at which the current ID was adopted (0 for a
    control-plane initiation) — what an app unit stamps into the packet's
    [app_depth] overlay field. *)

val last_seen : t -> int array
(** Wrapped Last Seen array copy (index 0 = control plane). Empty when
    channel state is disabled. *)

val process_packet : t -> now:Time.t -> Packet.t -> unit
(** Run the full pipeline on a data packet: update the target counter,
    execute the snapshot logic against the packet's header (attaching one
    at the unit's current ID if the packet arrived from a non-enabled
    neighbor), rewrite the header to the current ID, and emit notifications
    as needed. Headerless packets update only the counter and get a header
    attached; they carry no upstream snapshot information. *)

val process_initiation : t -> now:Time.t -> sid:int -> ghost_sid:int -> unit
(** Handle a control-plane initiation (or an initiation forwarded from the
    ingress unit of the same port): snapshot logic only — the counter
    update stage is skipped and the packet is never treated as in-flight
    (§6, "Synchronized snapshot initiation"). *)

val process_tagged :
  t ->
  now:Time.t ->
  channel:int ->
  pkt_wrapped:int ->
  pkt_ghost:int ->
  pkt_depth:int ->
  contribution:float ->
  delta:float ->
  unit
(** App-unit entry point (DESIGN.md §15): run the snapshot logic against
    an app-level stamp carried out of band (the packet's [app_sid] /
    [app_ghost] / [app_depth] overlay fields), with the channel
    contribution and the state delta supplied by the application instead
    of the unit's counter. Performs no counter update and no snapshot
    header rewrite; the caller must mutate app state only {e after} this
    returns, so a stamp that advances the ID is post-snapshot. *)

val process_untagged : t -> delta:float -> unit
(** App-unit counterpart of the headerless-packet branch: record (for
    the auditor's tap) a state change caused by a snapshot-oblivious
    party. No snapshot logic runs. *)

type slot_read = {
  value : float option;
      (** recorded local state; [None] when the slot does not hold this
          snapshot (never written, or overwritten after ring reuse) —
          the "value is uninitialized" case of Fig. 7 *)
  channel : float;  (** accumulated in-flight contributions *)
}

val read_slot : t -> ghost_sid:int -> slot_read
(** Control-plane register read of one snapshot slot. *)

val neighbor_traffic : t -> int array
(** Data packets observed per upstream channel since creation/reset — the
    evidence an operator uses to identify non-utilized upstream neighbors
    for exclusion (§6 "Ensuring liveness"). Index 0 (control plane) is
    always 0. *)

val fifo_violations : t -> int
(** Count of packets whose carried ID regressed relative to the channel's
    Last Seen — impossible on FIFO channels, counted defensively. *)

val notifications_sent : t -> int

val reset : t -> unit
(** Re-initialize all protocol state to zero (node attachment, §6). *)

(** {2 Instrumentation and fault hooks} *)

(** Ground-truth record of one event at the unit boundary, emitted {e
    before} the unit's own snapshot logic runs and before any header
    rewrite — so an external auditor ({!Speedlight_verify}) can re-derive
    the correct behavior independently of the (possibly broken) unit. *)
type tap_event =
  | Tap_data of { channel : int; pkt_ghost : int; size : int }
      (** data packet from snapshot-enabled neighbor [channel], carrying
          unbounded ID [pkt_ghost] on the wire *)
  | Tap_external of { size : int }
      (** headerless packet from a snapshot-oblivious neighbor (host) *)
  | Tap_init of { ghost : int }  (** control-plane initiation at this ID *)
  | Tap_app of {
      channel : int;
      pkt_ghost : int;
      contribution : float;
      delta : float;
    }
      (** app-level stamp processed by {!process_tagged}: the unbounded ID
          the stamp carried, the in-flight contribution the app computed,
          and the state delta the app is about to apply *)
  | Tap_app_external of { delta : float }
      (** unstamped app state change ({!process_untagged}) *)

val set_tap : t -> (tap_event -> unit) option -> unit
(** Install (or remove) the boundary tap. The callback runs synchronously
    in the packet path on the unit's own shard; it must not schedule
    events or touch other shards' state. *)

val set_ignore_packet_ids : t -> bool -> unit
(** Fault knob: when set, the unit runs counters and header rewriting but
    {e skips the snapshot logic on data packets} (marker suppression) —
    IDs only advance via initiations. This deliberately breaks the
    Chandy–Lamport marker rule; it exists so tests can prove the auditor
    catches false-consistent snapshots. *)

val set_tracer : t -> Speedlight_trace.Trace.emitter -> unit
(** Install the unit's trace emitter (marker in/out, ID advances,
    wraparounds). The emitter is normally detached — {!process_packet}
    then pays one branch per potential event. *)

val tracer : t -> Speedlight_trace.Trace.emitter
