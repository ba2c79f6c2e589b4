(* The million-flow workload engine (DESIGN.md §14): a seeded generator
   of per-flow send schedules that look like edge traffic instead of a
   synthetic full-mesh blast. Three ingredients, each independently
   testable:

   - Heavy-tailed sizes. Bulk flow sizes draw from a bounded Pareto
     (inverse CDF), so most flows are mice and a few are elephants —
     the regime where a per-flow decision cache earns its keep.
   - Diurnal arrival waves. Flow start times sample a sinusoidally
     modulated intensity over the horizon, so load peaks and troughs
     like a day of user traffic. The modulation conserves total mass:
     depth changes *when* flows arrive, never how many.
   - Traffic classes. Short RPC (a few packets, back to back), bulk
     (Pareto-sized, back to back), and video-like CBR (fixed cadence,
     one packet every [video_stride] generations).

   The output is a [plan]: four flat int arrays (class, start, stride,
   packet count) indexed by flow. A plan is pure data. [sends_at] and
   [seq_index] answer per (flow, generation) and are the reference
   semantics; the dataplane instead walks a per-lane [cursor], which
   visits only the flows live at each generation and emits exactly the
   (flow, send index) pairs [sends_at] would, in ascending flow id — so
   the same plan drives any lane partition to byte-identical schedules.
   Everything derives from the seed via SplitMix64; no wall clock, no
   global state. *)

module Rng = Tango_sim.Rng

type cls = Rpc | Bulk | Video

let cls_to_int = function Rpc -> 0 | Bulk -> 1 | Video -> 2

let cls_of_int = function
  | 0 -> Rpc
  | 1 -> Bulk
  | 2 -> Video
  | c -> invalid_arg (Printf.sprintf "Load.cls_of_int: %d" c)

type mix = { rpc : float; bulk : float; video : float }

type config = {
  flows : int;
  generations : int;  (* horizon, in dataplane generations (1 ms each) *)
  seed : int;
  mix : mix;
  alpha : float;  (* bounded-Pareto tail exponent for bulk sizes *)
  size_lo : float;  (* bulk size bounds, in packets *)
  size_hi : float;
  waves : float;  (* diurnal wave periods across the horizon *)
  wave_depth : float;  (* modulation depth in [0, 1) *)
  rpc_max : int;  (* RPC sizes uniform in [1, rpc_max] packets *)
  video_stride : int;  (* CBR cadence: one packet per this many gens *)
  video_pkts : int;  (* CBR segment length cap, in packets *)
}

let default_config ?(flows = 10_000) ?(generations = 400) ?(seed = 42) () =
  {
    flows;
    generations;
    seed;
    mix = { rpc = 0.5; bulk = 0.3; video = 0.2 };
    alpha = 1.3;
    size_lo = 8.0;
    size_hi = 2_000.0;
    waves = 2.0;
    wave_depth = 0.6;
    rpc_max = 3;
    video_stride = 4;
    video_pkts = 120;
  }

let validate c =
  if c.flows <= 0 then invalid_arg "Load: flows must be positive";
  if c.generations <= 0 then invalid_arg "Load: generations must be positive";
  if c.mix.rpc < 0.0 || c.mix.bulk < 0.0 || c.mix.video < 0.0 then
    invalid_arg "Load: negative class share";
  let s = c.mix.rpc +. c.mix.bulk +. c.mix.video in
  if Float.abs (s -. 1.0) > 1e-9 then
    invalid_arg "Load: class mix must sum to 1";
  if c.alpha <= 0.0 then invalid_arg "Load: alpha must be positive";
  if c.size_lo < 1.0 || c.size_hi <= c.size_lo then
    invalid_arg "Load: need 1 <= size_lo < size_hi";
  if c.waves <= 0.0 then invalid_arg "Load: waves must be positive";
  if c.wave_depth < 0.0 || c.wave_depth >= 1.0 then
    invalid_arg "Load: wave_depth must be in [0, 1)";
  if c.rpc_max < 1 then invalid_arg "Load: rpc_max must be >= 1";
  if c.video_stride < 1 then invalid_arg "Load: video_stride must be >= 1";
  if c.video_pkts < 1 then invalid_arg "Load: video_pkts must be >= 1"

(* Bounded Pareto on [lo, hi] with tail exponent alpha, by inverting
   F(x) = (1 - (lo/x)^alpha) / (1 - (lo/hi)^alpha). As hi -> infinity
   this degrades gracefully to the pure Pareto inverse CDF. *)
let bounded_pareto rng ~alpha ~lo ~hi =
  let u = Rng.float rng 1.0 in
  let tail = 1.0 -. ((lo /. hi) ** alpha) in
  lo *. ((1.0 -. (u *. tail)) ** (-1.0 /. alpha))

(* Relative arrival intensity at generation [g]: 1 + depth * sin over
   [waves] full periods. Summed over the horizon the sine integrates to
   ~0, so total mass stays [generations] regardless of depth. *)
let diurnal_weight ~generations ~waves ~depth g =
  let phase =
    2.0 *. Float.pi *. waves *. ((float_of_int g +. 0.5) /. float_of_int generations)
  in
  1.0 +. (depth *. sin phase)

let diurnal_cumulative ~generations ~waves ~depth =
  let cum = Array.make generations 0.0 in
  let acc = ref 0.0 in
  for g = 0 to generations - 1 do
    acc := !acc +. diurnal_weight ~generations ~waves ~depth g;
    cum.(g) <- !acc
  done;
  cum

(* Smallest g with cum.(g) > u — inverse-CDF sampling of a start
   generation from the diurnal intensity. *)
let sample_start rng cum =
  let total = cum.(Array.length cum - 1) in
  let u = Rng.float rng total in
  let lo = ref 0 and hi = ref (Array.length cum - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cum.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

type plan = {
  config : config;
  cls : int array;  (* per-flow class tag, cls_to_int *)
  start_gen : int array;
  stride : int array;
  pkts : int array;  (* sends scheduled inside the horizon *)
  gen_sends : int array;  (* offered packets per generation *)
  total_packets : int;
  max_gen_sends : int;
}

let plan config =
  validate config;
  let n = config.flows and gens = config.generations in
  let rng = Rng.create ~seed:config.seed in
  let cum =
    diurnal_cumulative ~generations:gens ~waves:config.waves
      ~depth:config.wave_depth
  in
  let cls = Array.make n 0 in
  let start_gen = Array.make n 0 in
  let stride = Array.make n 1 in
  let pkts = Array.make n 0 in
  let gen_sends = Array.make gens 0 in
  let total = ref 0 in
  for f = 0 to n - 1 do
    let u = Rng.float rng 1.0 in
    let c = if u < config.mix.rpc then Rpc
            else if u < config.mix.rpc +. config.mix.bulk then Bulk
            else Video
    in
    let start = sample_start rng cum in
    let st, size =
      match c with
      | Rpc -> (1, 1 + Rng.int rng config.rpc_max)
      | Bulk ->
          let s =
            bounded_pareto rng ~alpha:config.alpha ~lo:config.size_lo
              ~hi:config.size_hi
          in
          (1, int_of_float (Float.ceil s))
      | Video -> (config.video_stride, config.video_pkts)
    in
    (* Clip the schedule to the horizon: a flow sends at
       start, start+st, ... while the index stays under its size and the
       generation under the horizon. *)
    let max_sends = ((gens - start) + st - 1) / st in
    let sends = if size < max_sends then size else max_sends in
    cls.(f) <- cls_to_int c;
    start_gen.(f) <- start;
    stride.(f) <- st;
    pkts.(f) <- sends;
    for k = 0 to sends - 1 do
      let g = start + (k * st) in
      gen_sends.(g) <- gen_sends.(g) + 1
    done;
    total := !total + sends
  done;
  let max_gen_sends = Array.fold_left (fun a b -> if b > a then b else a) 0 gen_sends in
  {
    config;
    cls;
    start_gen;
    stride;
    pkts;
    gen_sends;
    total_packets = !total;
    max_gen_sends;
  }

(* The E14 full-mesh blast expressed as a plan: every flow sends one
   packet every generation for the whole horizon. Drives the unified
   dataplane loop to byte-identical behavior with the pre-plan code. *)
let uniform ~flows ~generations =
  if flows <= 0 || generations <= 0 then
    invalid_arg "Load.uniform: flows and generations must be positive";
  let c = default_config ~flows ~generations () in
  {
    config = c;
    cls = Array.make flows (cls_to_int Bulk);
    start_gen = Array.make flows 0;
    stride = Array.make flows 1;
    pkts = Array.make flows generations;
    gen_sends = Array.make generations flows;
    total_packets = flows * generations;
    max_gen_sends = flows;
  }

let flows plan = plan.config.flows

let generations plan = plan.config.generations

let total_packets plan = plan.total_packets

let max_gen_sends plan = plan.max_gen_sends

let gen_sends plan g = plan.gen_sends.(g)

let flow_class plan f = cls_of_int plan.cls.(f)

let flow_start plan f = plan.start_gen.(f)

let flow_stride plan f = plan.stride.(f)

let flow_pkts plan f = plan.pkts.(f)

let[@inline] sends_at plan ~flow ~gen =
  let d = gen - Array.unsafe_get plan.start_gen flow in
  d >= 0
  &&
  let st = Array.unsafe_get plan.stride flow in
  d mod st = 0 && d / st < Array.unsafe_get plan.pkts flow

let[@inline] seq_index plan ~flow ~gen =
  (gen - Array.unsafe_get plan.start_gen flow)
  / Array.unsafe_get plan.stride flow

(* The active-flow cursor. Testing every owned flow with [sends_at] on
   every generation costs (flows x generations) tests for far fewer
   sends; the cursor keeps instead the ascending list of flows that have
   started and not yet finished, and each generation merges it with the
   (ascending) bucket of flows starting there, dropping finished flows
   and emitting the ones whose stride divides their age. The work per
   generation is O(live + starting), and the merge keeps the emission
   order ascending by flow id, the order the scan it replaces had. *)
type cursor = {
  c_plan : plan;
  c_first : int array;  (* CSR offsets into [c_by_start], per generation *)
  c_by_start : int array;  (* lane flows by start generation, then id *)
  mutable c_live : int array;  (* started, unfinished flows, ascending *)
  mutable c_spare : int array;  (* the next generation's live list *)
  mutable c_n_live : int;
  mutable c_next : int;  (* the generation [advance] expects next *)
  c_flow : int array;  (* emitted flow ids, ascending *)
  c_seq : int array;  (* their send indices *)
}

let cursor plan ~flows:own =
  let n = Array.length own and gens = plan.config.generations in
  Array.iteri
    (fun i f ->
      if f < 0 || f >= plan.config.flows then
        invalid_arg "Load.cursor: flow id outside the plan";
      if i > 0 && f <= own.(i - 1) then
        invalid_arg "Load.cursor: flows must be strictly ascending")
    own;
  (* Counting sort by start generation: stable, so ids stay ascending
     inside each bucket. *)
  let first = Array.make (gens + 1) 0 in
  Array.iter
    (fun f ->
      let s = plan.start_gen.(f) in
      first.(s + 1) <- first.(s + 1) + 1)
    own;
  for g = 1 to gens do
    first.(g) <- first.(g) + first.(g - 1)
  done;
  let fill = Array.sub first 0 gens in
  let by_start = Array.make n 0 in
  Array.iter
    (fun f ->
      let s = plan.start_gen.(f) in
      by_start.(fill.(s)) <- f;
      fill.(s) <- fill.(s) + 1)
    own;
  {
    c_plan = plan;
    c_first = first;
    c_by_start = by_start;
    c_live = Array.make n 0;
    c_spare = Array.make n 0;
    c_n_live = 0;
    c_next = 0;
    c_flow = Array.make n 0;
    c_seq = Array.make n 0;
  }

let[@hot] advance cur ~gen =
  if gen <> 0 && gen <> cur.c_next then
    invalid_arg "Load.advance: generations must run 0, 1, 2, ...";
  let p = cur.c_plan in
  let live = cur.c_live and next = cur.c_spare in
  let n_live = if gen = 0 then 0 else cur.c_n_live in
  let by_start = cur.c_by_start in
  let in_horizon = gen < p.config.generations in
  let b = ref (if in_horizon then Array.unsafe_get cur.c_first gen else 0) in
  let b_end = if in_horizon then Array.unsafe_get cur.c_first (gen + 1) else 0 in
  let i = ref 0 and kept = ref 0 and out = ref 0 in
  while !i < n_live || !b < b_end do
    let f =
      if
        !b >= b_end
        || (!i < n_live
           && Array.unsafe_get live !i < Array.unsafe_get by_start !b)
      then begin
        let f = Array.unsafe_get live !i in
        incr i;
        f
      end
      else begin
        let f = Array.unsafe_get by_start !b in
        incr b;
        f
      end
    in
    let d = gen - Array.unsafe_get p.start_gen f in
    let st = Array.unsafe_get p.stride f in
    (* Live while the age is within the last send's, (pkts - 1) strides. *)
    if d <= (Array.unsafe_get p.pkts f - 1) * st then begin
      Array.unsafe_set next !kept f;
      incr kept;
      (* Stride 1 (RPC and bulk) skips the division. *)
      let sidx = if st = 1 then d else if d mod st = 0 then d / st else -1 in
      if sidx >= 0 then begin
        Array.unsafe_set cur.c_flow !out f;
        Array.unsafe_set cur.c_seq !out sidx;
        incr out
      end
    end
  done;
  cur.c_live <- next;
  cur.c_spare <- live;
  cur.c_n_live <- !kept;
  cur.c_next <- gen + 1;
  !out

let emitted_flows cur = cur.c_flow

let emitted_seqs cur = cur.c_seq

let class_counts plan =
  let rpc = ref 0 and bulk = ref 0 and video = ref 0 in
  Array.iter
    (fun c ->
      if c = 0 then incr rpc else if c = 1 then incr bulk else incr video)
    plan.cls;
  (!rpc, !bulk, !video)

(* FNV-1a fold over every schedule-determining int — two plans are
   byte-identical iff their fingerprints match (modulo 2^60-rare
   collisions), which is what the same-seed determinism tests compare. *)
let fingerprint plan =
  let fnv_prime = 1099511628211 in
  let h = ref 1469598103934665603 in
  let mix v = h := (!h lxor v) * fnv_prime land max_int in
  mix plan.config.flows;
  mix plan.config.generations;
  mix plan.config.seed;
  mix plan.total_packets;
  for f = 0 to plan.config.flows - 1 do
    mix plan.cls.(f);
    mix plan.start_gen.(f);
    mix plan.stride.(f);
    mix plan.pkts.(f)
  done;
  Printf.sprintf "%015x" (!h land max_int)

let pp_summary ppf plan =
  let rpc, bulk, video = class_counts plan in
  Format.fprintf ppf
    "flows=%d (rpc=%d bulk=%d video=%d) gens=%d packets=%d peak-gen=%d"
    plan.config.flows rpc bulk video plan.config.generations
    plan.total_packets plan.max_gen_sends
