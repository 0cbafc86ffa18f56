(** Discrete-event simulation engine.

    Events are closures scheduled at absolute or relative simulated times.
    Events scheduled for the same instant execute in scheduling order, which
    makes runs deterministic for a given seed. The engine is single-threaded
    and re-entrant: event handlers may schedule further events.

    Pending events sit in a 4-ary {!Heap}; scheduling allocates nothing
    beyond the handler closure itself. Events cannot be cancelled: a
    handler that may have gone stale checks its own state when it runs. *)

type t

val create : ?capacity:int -> unit -> t
(** [create ?capacity ()] pre-sizes the event queue for [capacity]
    simultaneous pending events (see {!Heap.create}). *)

val now : t -> Time.t
(** Current simulated time. *)

val schedule : t -> at:Time.t -> (unit -> unit) -> unit
(** [schedule t ~at f] runs [f] at absolute time [at], after every event
    already scheduled for that instant (FIFO). Scheduling in the past
    raises [Invalid_argument]. *)

val schedule_after : t -> delay:Time.t -> (unit -> unit) -> unit
(** [schedule_after t ~delay f] runs [f] [delay] after the current time.
    Negative delays raise [Invalid_argument]. *)

val schedule_unit : t -> at:Time.t -> (unit -> unit) -> unit
(** The same function as {!schedule}. *)

val schedule_after_unit : t -> delay:Time.t -> (unit -> unit) -> unit
(** The same function as {!schedule_after}. *)

(** {2 Source-tagged scheduling}

    Events scheduled with a {e stable source id} are ordered, at equal
    timestamps, by [(source id, per-source sequence)] rather than by the
    global order in which the scheduling calls executed. Callers that
    assign each logical entity (a switch, a channel, a control plane) a
    fixed source id therefore get an event order that is a pure function
    of the entities' own behavior — identical whether the simulation runs
    on one event loop or is sharded across several with cross-shard
    events re-injected at epoch boundaries. Anonymous events sort after
    every source-tagged event at the same instant. Source ids must be in
    [0, 2^20); per-source counts may not exceed 2^40. *)

val schedule_src_unit : t -> src:int -> at:Time.t -> (unit -> unit) -> unit
(** Fire-and-forget event tagged with stable source [src]. *)

val schedule_src_after_unit : t -> src:int -> delay:Time.t -> (unit -> unit) -> unit
(** Relative-time variant of {!schedule_src_unit}. *)

val pending : t -> int
(** Number of events still queued. *)

val queue_high_water : t -> int
(** Largest pending-event population this engine's queue has ever held
    (monotone since creation; see {!Heap.high_water}). *)

val processed : t -> int
(** Total events executed since creation. *)

val set_dispatch_hook : t -> (unit -> unit) option -> unit
(** Install (or remove) an observation hook run once per dispatched
    event, before the event's own handler. [None] (the default) costs the
    dispatch loops a single branch. The hook must not schedule events. *)

val run : t -> unit
(** Run until the event queue drains. *)

val run_until : t -> Time.t -> unit
(** [run_until t deadline] processes events with time <= [deadline], then
    advances the clock to [deadline]. Remaining events stay queued. *)

val step : t -> bool
(** Execute the single next event. Returns [false] if none remained. *)

(** {2 Epoch primitives}

    Building blocks for conservative parallel execution ({!Shard}): a
    shard repeatedly runs all events strictly before a barrier-agreed
    bound, leaving the clock at the last executed event so that arrivals
    scheduled at or after the bound are never "in the past". *)

val run_until_excl : t -> Time.t -> unit
(** [run_until_excl t bound] processes events with time < [bound]. The
    clock is left at the last executed event (not padded to [bound]). *)

val next_key : t -> Time.t option
(** Timestamp of the earliest pending event, if any. *)

val advance_clock : t -> Time.t -> unit
(** Pad the clock forward to a deadline (never backwards); used once at
    the end of a sharded run to mirror {!run_until}'s final clock. *)
