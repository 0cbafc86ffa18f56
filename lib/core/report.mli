(** A finalized per-unit snapshot record, produced by the control plane and
    shipped to the snapshot observer. *)

open Speedlight_sim
open Speedlight_dataplane

type t = {
  unit_id : Unit_id.t;
  unit_ix : int;
      (** the unit's dense index, copied from its notifications: the
          observer files the report by it after checking [unit_id] *)
  sid : int;  (** unwrapped snapshot ID *)
  value : float option;
      (** recorded local state; [None] when the snapshot is inconsistent or
          its register could not be recovered *)
  channel : float;  (** accumulated channel (in-flight) state *)
  consistent : bool;
      (** false for snapshots the data plane skipped past while channel
          state was being collected (§6) *)
  inferred : bool;
      (** true when the value was not read from a register but inferred
          from a later snapshot (no-channel-state mode, Fig. 7 l.19–21) *)
  completed_at : Time.t;  (** control-plane time at which it finalized *)
}

val consistent_value : t -> float option
(** [Some v] iff the report is consistent and carries a value. *)

val pp : Format.formatter -> t -> unit
