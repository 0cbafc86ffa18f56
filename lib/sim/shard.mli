(** Conservative parallel execution of per-shard engines.

    Runs one {!Engine} per shard, each on its own domain, synchronized
    by a flat epoch barrier. Cross-shard influence is described by a
    directional {!Lookahead} matrix: L(j,i) is the minimum simulated
    delay of the direct channels from shard j to shard i. Influence is
    transitive, so internally the matrix is closed under shortest paths
    (Floyd–Warshall) into distances D(j,i) — including the diagonal
    D(i,i), the shortest cross-shard round trip, which caps how far a
    shard may run ahead of echoes of its own events. Each epoch, every
    worker publishes its earliest pending timestamp immediately before
    the barrier (state piggybacked on the barrier pass), and after
    release derives its own epoch bound

      b_i = min (deadline + 1, earliest global action,
                 min over all j of published_j + D(j,i))

    locally — two barrier crossings per epoch, no coordinator. Shards
    whose producers are idle get long epochs automatically. Between
    epochs, cross-shard messages are drained from their mailboxes, and
    rare "global" actions run with all domains quiesced.

    Determinism contract: provided every cross-shard interaction from j
    to i is delayed by at least L(j,i) and all events use stable source
    ids ({!Engine.schedule_src_unit}), the execution is bit-identical
    to running the same model on a single engine — the bounds batch
    execution but never reorder it. *)

(** Directional lookahead matrix. *)
module Lookahead : sig
  type t

  val uniform : n:int -> Time.t -> t
  (** [uniform ~n la]: every pair of distinct shards has lookahead
      [la]. Raises [Invalid_argument] if [la <= 0] or [n <= 0]. *)

  val of_matrix : Time.t option array array -> t
  (** [of_matrix m]: [m.(j).(i)] is the minimum {e direct} channel delay
      from producer [j] to consumer [i], [None] when no channel exists.
      Must be square; entries must be positive; the diagonal is ignored
      (self-influence is derived from round trips during closure). *)

  val n : t -> int

  val min_value : t -> Time.t option
  (** Smallest entry (the classic global lookahead), if any. *)
end

(** Execution statistics for one {!run_until}. *)
type stats = {
  epochs : int;  (** ordinary execution epochs *)
  global_rounds : int;  (** barrier rounds spent on global actions *)
  wall_ns : float;  (** wall-clock duration of the whole run *)
  barrier_wait_ns : float;
      (** total time workers spent inside barrier waits, summed over all
          workers; 0 unless [~timed:true] *)
  workers : int;
  queue_high_water : int;
      (** largest pending-event population any one shard's queue has
          held, from its creation to the end of the run *)
}

val no_stats : stats
(** All-zero statistics (identity for accumulation). *)

val run_until :
  ?on_epoch:(Time.t -> unit) ->
  ?timed:bool ->
  engines:Engine.t array ->
  lookahead:Lookahead.t ->
  deadline:Time.t ->
  drain:(int -> unit) ->
  next_global:(unit -> Time.t option) ->
  run_global:(unit -> unit) ->
  unit ->
  stats
(** [run_until ~engines ~lookahead ~deadline ~drain ~next_global
    ~run_global ()] processes every event with timestamp <= [deadline]
    across all shards, then pads every engine clock to [deadline]
    (mirroring {!Engine.run_until}).

    [drain i] is called on shard [i]'s own domain, between barriers,
    and must re-schedule all messages queued for shard [i]; it must not
    schedule global actions. [next_global] peeks the earliest pending
    global action's time and [run_global] executes it (both called by
    worker 0 only; [run_global] runs with all other domains parked and
    every engine clock advanced to the action's time). Global actions
    themselves may schedule further globals; nothing else may do so
    during the run.

    [on_epoch] (tracing/diagnostics) is called by worker 0 with its own
    epoch bound just before each epoch executes; it runs concurrently
    with the other shards' compute phases and must only touch
    worker-0-owned state. [~timed:true] additionally measures per-worker
    barrier wait time (two clock reads per barrier crossing).

    The [lookahead] matrix must cover exactly [Array.length engines]
    shards. With a single engine no domains are spawned. An exception in
    any worker aborts the run and is re-raised (with its backtrace) on
    the calling domain. *)
