(** Million-flow workload engine: seeded, heavy-tailed, diurnal flow
    schedules for the batched dataplane (DESIGN.md §14).

    A {!plan} is pure data — flat per-flow arrays of (class, start
    generation, send stride, packet count) — built deterministically
    from a seed. {!sends_at} and {!seq_index} are the reference
    semantics per (flow, generation); the dataplane walks a per-lane
    {!cursor} that emits exactly those sends, in ascending flow id,
    touching only the flows live at each generation. Any lane partition
    of the same plan produces byte-identical schedules. *)

type cls = Rpc | Bulk | Video

val cls_to_int : cls -> int
val cls_of_int : int -> cls

type mix = { rpc : float; bulk : float; video : float }
(** Class shares; must sum to 1. *)

type config = {
  flows : int;
  generations : int;  (** horizon, in dataplane generations (1 ms each) *)
  seed : int;
  mix : mix;
  alpha : float;  (** bounded-Pareto tail exponent for bulk sizes *)
  size_lo : float;  (** bulk size bounds, in packets *)
  size_hi : float;
  waves : float;  (** diurnal wave periods across the horizon *)
  wave_depth : float;  (** modulation depth in [0, 1) *)
  rpc_max : int;  (** RPC sizes uniform in [1, rpc_max] packets *)
  video_stride : int;  (** CBR cadence: one packet per this many gens *)
  video_pkts : int;  (** CBR segment length cap, in packets *)
}

val default_config :
  ?flows:int -> ?generations:int -> ?seed:int -> unit -> config
(** 50% RPC / 30% bulk / 20% video, Pareto(1.3) on [8, 2000] packets,
    two diurnal waves at depth 0.6. *)

val bounded_pareto : Tango_sim.Rng.t -> alpha:float -> lo:float -> hi:float -> float
(** Inverse-CDF draw from the bounded Pareto on [lo, hi] with tail
    exponent [alpha]. *)

val diurnal_weight :
  generations:int -> waves:float -> depth:float -> int -> float
(** Relative arrival intensity at a generation: [1 + depth * sin] over
    [waves] full periods. Mass-conserving: the weights over the horizon
    sum to [generations] (up to the half-sample phase offset). *)

val diurnal_cumulative :
  generations:int -> waves:float -> depth:float -> float array
(** Cumulative sums of {!diurnal_weight} — the inverse-CDF table flow
    start times sample from. *)

type plan

val plan : config -> plan
(** Build the full per-flow schedule. Deterministic in [config] (same
    config, byte-identical plan). Raises [Invalid_argument] on
    malformed configs. *)

val uniform : flows:int -> generations:int -> plan
(** The E14 full-mesh blast as a plan: every flow sends one packet per
    generation over the whole horizon. *)

val flows : plan -> int
val generations : plan -> int

val total_packets : plan -> int
(** Packets scheduled inside the horizon, summed over flows. *)

val max_gen_sends : plan -> int
(** Peak offered packets in any single generation — sizes in-flight
    rings. *)

val gen_sends : plan -> int -> int
(** Offered packets at one generation. *)

val flow_class : plan -> int -> cls
val flow_start : plan -> int -> int
val flow_stride : plan -> int -> int
val flow_pkts : plan -> int -> int

val sends_at : plan -> flow:int -> gen:int -> bool
(** Does this flow put a packet on the wire at this generation? O(1),
    allocation-free. *)

val seq_index : plan -> flow:int -> gen:int -> int
(** 0-based send index of the flow at a generation where {!sends_at}
    holds — the packet's tunnel sequence number. *)

(** {2 Active-flow cursor} *)

type cursor
(** One lane's iterator over the plan: a CSR index of its flows by
    start generation, the ascending list of live flows (started, not yet
    finished) and preallocated output arrays. *)

val cursor : plan -> flows:int array -> cursor
(** Index the lane's flows, given as strictly ascending flow ids of the
    plan. O(flows + generations). Raises [Invalid_argument] on an id
    outside the plan or an unsorted list. *)

val advance : cursor -> gen:int -> int
(** Step to generation [gen] and return [n], the number of sends there.
    Positions [0 .. n-1] of {!emitted_flows} and {!emitted_seqs} then
    hold, in ascending flow id, exactly the lane's flows where
    {!sends_at} holds and their {!seq_index}. One merge pass over the
    live flows and those starting at [gen]; allocation-free. [gen] must
    be [0] (which restarts the cursor) or the previous call's [gen + 1];
    otherwise raises [Invalid_argument]. *)

val emitted_flows : cursor -> int array
(** The output array of flow ids, filled by {!advance}; the same array
    for the cursor's lifetime. *)

val emitted_seqs : cursor -> int array
(** The output array of send indices, parallel to {!emitted_flows}. *)

val class_counts : plan -> int * int * int
(** (rpc, bulk, video) flow counts. *)

val fingerprint : plan -> string
(** FNV-1a fold over every schedule-determining int; equal for
    byte-identical plans. *)

val pp_summary : Format.formatter -> plan -> unit
