type dir = Ingress | Egress

type t = { switch : int; port : int; dir : dir }

let ingress ~switch ~port = { switch; port; dir = Ingress }
let egress ~switch ~port = { switch; port; dir = Egress }

let app_port_base = 4096
let is_app t = t.port >= app_port_base

let dir_int = function Ingress -> 0 | Egress -> 1

let compare a b =
  match Int.compare a.switch b.switch with
  | 0 -> (
      match Int.compare a.port b.port with
      | 0 -> Int.compare (dir_int a.dir) (dir_int b.dir)
      | c -> c)
  | c -> c

let equal a b = a.switch = b.switch && a.port = b.port && a.dir = b.dir

let pp fmt t =
  Format.fprintf fmt "s%d/p%d/%s" t.switch t.port
    (match t.dir with Ingress -> "in" | Egress -> "out")

let to_string t = Format.asprintf "%a" pp t

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
