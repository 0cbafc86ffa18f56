(** A 4-ary min-heap, keyed by [(int, int)] pairs.

    The event queue of the simulation {!Engine}: the primary key is the
    event time, the secondary key a sub-priority guaranteeing a fixed
    order among events scheduled for the same instant (determinism).

    The implementation stores keys, sequence numbers and value-slot ids in
    flat parallel arrays, so a push/pop cycle allocates nothing and backing
    capacity survives {!clear}. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [create ?capacity ()] pre-sizes the backing arrays for [capacity]
    elements (default 16) so a known-large event queue never re-pays the
    growth sequence. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val high_water : 'a t -> int
(** Largest population the heap has ever held. Monotone over the heap's
    lifetime (not reset by {!clear}). *)

val push : 'a t -> key:int -> seq:int -> 'a -> unit
(** Insert an element with primary key [key] and tie-breaker [seq].
    Allocation-free once the backing arrays have grown to fit. *)

val pop : 'a t -> (int * int * 'a) option
(** Remove and return the minimum [(key, seq, value)], or [None] if empty. *)

val top_key : 'a t -> int
(** Primary key of the minimum. Undefined on an empty heap — guard with
    {!is_empty}. Allocation-free. *)

val pop_top : 'a t -> 'a
(** Remove and return the minimum's value. Undefined on an empty heap —
    guard with {!is_empty}. Allocation-free; with {!top_key} this is the
    engine's per-event path. *)

val peek_key : 'a t -> int option
(** The minimum primary key without removing it. *)

val clear : 'a t -> unit
(** Empty the heap, keeping the backing capacity for reuse. *)
