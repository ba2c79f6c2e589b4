(** In-order delivery model for application-level impact (§5).

    The paper argues that even when a path still delivers {e some}
    packets at the minimum OWD during an instability episode, TCP-style
    in-order delivery turns a single delayed packet into head-of-line
    blocking for everything behind it. This module replays a stream of
    (sequence, network-arrival-time) pairs through an in-order release
    buffer. It holds only the packets still waiting for a gap to fill,
    and [arrival] allocates nothing on in-order traffic. *)

type t

val create : unit -> t

val arrival : t -> seq:int -> time:float -> int
(** Record a packet's network arrival; returns how many packets it
    released to the application, all at [time]. They are the contiguous
    run of sequence numbers that ends at [released t - 1]. Duplicate or
    already-released sequence numbers release nothing. *)

val extra : t -> int -> float
(** [extra t i], for [i] below the count the last {!arrival} returned:
    the extra delay in seconds the [i]-th packet of that run spent
    blocked behind the missing packet ([release - arrival]). *)

val released : t -> int
(** Packets released so far; also the next sequence number expected. *)

val pending : t -> int
(** Packets buffered, waiting for a gap to fill. *)
