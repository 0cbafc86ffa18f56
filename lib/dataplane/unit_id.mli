(** Identity of a processing unit.

    The fundamental building block of the snapshot system model (§4.1): a
    per-port, per-direction packet processing unit. *)

type dir = Ingress | Egress

type t = { switch : int; port : int; dir : dir }

val ingress : switch:int -> port:int -> t
val egress : switch:int -> port:int -> t

val app_port_base : int
(** Ports at or above this value are {e virtual}: they identify
    application-owned units (lib/apps) rather than physical port
    pipelines. By convention the PRECISION heavy-hitter cells use
    [Ingress] virtual ports and the NetChain per-key units use [Egress]
    virtual ports. *)

val is_app : t -> bool
(** [is_app t] is [t.port >= app_port_base]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
