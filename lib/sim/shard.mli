(** Flow-sharded domain lanes with a deterministic merge (DESIGN.md §11).

    The multicore dataplane partitions flows across [lanes] OCaml 5
    domains by flow hash. Each lane owns its state outright (no locks on
    the packet path) and emits flat timestamped result records into a
    preallocated single-producer/single-consumer ring; a single reducer
    then drains all rings in (virtual-time, lane-id, ring-position)
    order. Because that order is a pure function of the records — never
    of OS scheduling — seeded runs are byte-reproducible at any domain
    count. *)

val lane_of_hash : lanes:int -> int -> int
(** Which lane owns a flow hash: [(hash land max_int) mod lanes], so
    every packet of a flow lands on the same lane at a fixed lane count.
    Raises [Invalid_argument] when [lanes <= 0]. *)

(** Preallocated SPSC result ring over flat arrays: one float timestamp,
    three int fields and one float value per record, no per-record
    boxing. Exactly one domain may push and one domain may pop. *)
module Ring : sig
  type t

  val create : capacity:int -> t
  (** Capacity is rounded up to a power of two. Raises
      [Invalid_argument] when non-positive. *)

  val capacity : t -> int
  val length : t -> int
  val is_empty : t -> bool

  val push : t -> time:float -> a:int -> b:int -> c:int -> v:float -> unit
  (** Publish one record ([@hot], allocation-free). The ring does not
      block: the caller sizes it for the workload (one slot per record
      it will ever push), and overflow raises [Invalid_argument], as
      does a NaN [time]. *)

  val peek_time : t -> float
  (** Timestamp of the oldest unread record, [infinity] when empty. *)

  val peek_b : t -> int
  (** The [b] field of the oldest unread record, [max_int] when empty —
      the secondary merge key (sequence number) for consumers that
      tie-break equal timestamps. *)
end

type record = {
  mutable time : float;
  mutable a : int;
  mutable b : int;
  mutable c : int;
  mutable v : float;
}
(** Reducer-side scratch: {!pop_into} overwrites one reused record, so
    draining allocates nothing per record. *)

val scratch : unit -> record

val pop_into : Ring.t -> record -> unit
(** Consume the oldest record into the scratch. Raises
    [Invalid_argument] on an empty ring. *)

val merge : Ring.t array -> consume:(lane:int -> record -> unit) -> unit
(** Drain every ring in (time, lane-id, ring-position) order — the
    deterministic k-way merge. Ties on time resolve to the lowest lane
    id (also at [infinity]); records of one lane keep their emission
    order. *)

val run :
  lanes:int ->
  capacity_of:(lane:int -> int) ->
  lane:(lane:int -> Ring.t -> unit) ->
  consume:(lane:int -> record -> unit) ->
  unit
(** Spawn [lanes] domains, run [lane] on each against its own ring, join
    them all (the quiesce point publishing every lane's state), then
    {!merge} the rings through [consume]. [capacity_of] must cover every
    record the lane will push — rings do not block, they raise. *)
