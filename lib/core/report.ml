open Speedlight_sim
open Speedlight_dataplane

type t = {
  unit_id : Unit_id.t;
  unit_ix : int;
  sid : int;
  value : float option;
  channel : float;
  consistent : bool;
  inferred : bool;
  completed_at : Time.t;
}

let consistent_value t = if t.consistent then t.value else None

let pp fmt t =
  Format.fprintf fmt "report[%a sid=%d value=%s chnl=%g %s%s @%a]" Unit_id.pp
    t.unit_id t.sid
    (match t.value with Some v -> Printf.sprintf "%g" v | None -> "-")
    t.channel
    (if t.consistent then "consistent" else "INCONSISTENT")
    (if t.inferred then " inferred" else "")
    Time.pp t.completed_at
