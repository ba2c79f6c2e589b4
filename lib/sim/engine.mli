(** Discrete-event simulation engine.

    The engine owns a virtual clock (in seconds, as a float) and a pending
    event queue. Callbacks scheduled for the same instant fire in FIFO
    order of scheduling, which keeps runs fully deterministic. Every run
    also owns a root {!Rng.t}; subsystems should {!Rng.split} from it so
    that adding a new consumer does not perturb existing streams. *)

type t

val create : ?seed:int -> ?heap_capacity:int -> unit -> t
(** [create ~seed ()] builds an engine with its clock at [0.0]. The
    default seed is [42]. [heap_capacity] sizes the event queue up front
    (at least 16 slots; it doubles when full) — pass the expected number
    of concurrently pending events when one engine hosts a whole mesh of
    PoPs (see {!Tango_mesh}) so the queue never re-copies mid-run. A
    negative [heap_capacity] raises [Invalid_argument]. *)

val now : t -> float
(** Current virtual time in seconds. *)

val rng : t -> Rng.t
(** The engine's root generator. *)

val schedule : t -> delay:float -> (t -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t +. delay]. A negative or NaN
    delay raises [Invalid_argument]. *)

val schedule_at : t -> time:float -> (t -> unit) -> unit
(** [schedule_at t ~time f] runs [f] at absolute virtual [time], which
    must not precede [now t]; an earlier or NaN [time] raises
    [Invalid_argument]. *)

val every : t -> interval:float -> ?until:float -> (t -> unit) -> unit
(** [every t ~interval ?until f] runs [f] now and then every [interval]
    seconds, stopping once the clock would pass [until] (if given). A
    non-positive or NaN [interval] raises [Invalid_argument]. *)

val pending : t -> int
(** Number of queued events. *)

val step : t -> bool
(** Execute the single earliest event. Returns [false] when the queue was
    empty (and the clock did not move). *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Drain the queue. [until] stops the clock at that time (events beyond
    it stay queued); [max_events] bounds the number of callbacks executed,
    guarding against runaway feedback loops. *)

val cancel_all : t -> unit
(** Drop every queued event. *)
