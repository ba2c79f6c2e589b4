(** Transport 5-tuples, the unit of ECMP hashing in the core. *)

type t = {
  src : Addr.t;
  dst : Addr.t;
  proto : int;  (** IP protocol number, e.g. 6 TCP, 17 UDP. *)
  src_port : int;
  dst_port : int;
}

val v :
  src:Addr.t -> dst:Addr.t -> proto:int -> src_port:int -> dst_port:int -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val reverse : t -> t
(** Swap source and destination (address and port). *)

val hash_5tuple : ?salt:int -> t -> int
(** Deterministic FNV-1a over the 5-tuple, non-negative. Core routers use
    [salt] to decorrelate hash decisions at different hops. Allocates
    nothing. *)

val hash_fields :
  salt:int ->
  src:Addr.t ->
  dst:Addr.t ->
  proto:int ->
  src_port:int ->
  dst_port:int ->
  int
(** [hash_5tuple ~salt] of the flow with these fields, without building
    the flow record. *)
