open Speedlight_sim

type t = {
  unit_id : Unit_id.t;
  unit_ix : int;
  former_sid : int;
  new_sid : int;
  neighbor : int option;
  former_last_seen : int option;
  new_last_seen : int option;
  dp_time : Time.t;
  ghost_sid : int;
}

let pp fmt t =
  Format.fprintf fmt "notify[%a sid %d->%d%a @%a]" Unit_id.pp t.unit_id
    t.former_sid t.new_sid
    (fun fmt -> function
      | None -> Format.fprintf fmt ""
      | Some n ->
          Format.fprintf fmt " ls[%d] %s->%s" n
            (match t.former_last_seen with Some v -> string_of_int v | None -> "?")
            (match t.new_last_seen with Some v -> string_of_int v | None -> "?"))
    t.neighbor Time.pp t.dp_time
