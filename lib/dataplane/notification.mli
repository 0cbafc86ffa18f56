(** Data-plane → control-plane snapshot notifications (§5.3).

    After any update of either the local snapshot ID or a Last Seen entry,
    the data plane exports a notification carrying the {e former} value of
    the updated Last Seen entry along with the former and new snapshot ID
    (all four values are needed by the Fig. 7 control-plane logic, in
    particular for rollover-aware comparisons). *)

open Speedlight_sim

type t = {
  unit_id : Unit_id.t;
  unit_ix : int;
      (** the unit's dense index in its network: the control plane finds
          the unit's state by it, and must still check [unit_id] *)
  former_sid : int;
  new_sid : int;
  neighbor : int option;
      (** which Last Seen entry changed, if any ([None] for pure snapshot-ID
          updates and for notifications from units without channel state) *)
  former_last_seen : int option;
  new_last_seen : int option;
  dp_time : Time.t;  (** data-plane timestamp at generation *)
  ghost_sid : int;  (** unbounded new ID — instrumentation only *)
}

val pp : Format.formatter -> t -> unit
