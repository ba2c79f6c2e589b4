module Metric = Tango_obs.Metric

(* Process-wide observability: every engine in the process aggregates
   into the same counters (see DESIGN.md §8). *)
let m_events = Metric.counter ~help:"Simulation events executed" "sim_events_total"

let g_now =
  Metric.gauge ~help:"Virtual time reached by the most recent engine run"
    "sim_virtual_time_seconds"

(* The pending queue is a binary min-heap over [(time, seq)] stored as
   parallel arrays: slot [i] holds [times.(i)], [seqs.(i)] and
   [callbacks.(i)], so queuing an event allocates nothing beyond the
   caller's continuation. [seq] is the scheduling order, which makes
   same-instant events fire FIFO. *)
type t = {
  mutable clock : float;
  mutable next_seq : int;
  mutable size : int;
  mutable times : floatarray;
  mutable seqs : int array;
  mutable callbacks : (t -> unit) array;
  root_rng : Rng.t;
}

(* Fills vacated callback slots so the queue never keeps a fired or
   cancelled continuation alive. *)
let nop (_ : t) = ()

let min_capacity = 16

let create ?(seed = 42) ?(heap_capacity = 0) () =
  if heap_capacity < 0 then invalid_arg "Engine.create: negative heap_capacity";
  let capacity = max min_capacity heap_capacity in
  {
    clock = 0.0;
    next_seq = 0;
    size = 0;
    times = Float.Array.make capacity 0.0;
    seqs = Array.make capacity 0;
    callbacks = Array.make capacity nop;
    root_rng = Rng.create ~seed;
  }

let now t = t.clock

let rng t = t.root_rng

let[@inline never] grow t =
  let capacity = 2 * Array.length t.seqs in
  let times = Float.Array.make capacity 0.0 in
  let seqs = Array.make capacity 0 in
  let callbacks = Array.make capacity nop in
  Float.Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.callbacks 0 callbacks 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.callbacks <- callbacks

(* Sift up with a moving hole: parents slide down into the hole until
   the new event's slot is found, then it is written once. Seqs only
   grow, so a new event never precedes a queued one at the same time
   and the walk compares times alone. Inlined so [time] is never boxed. *)
let[@inline] push t time callback =
  if t.size = Array.length t.seqs then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let times = t.times and seqs = t.seqs and callbacks = t.callbacks in
  let hole = ref t.size in
  t.size <- t.size + 1;
  let rising = ref true in
  while !rising && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    let parent_time = Float.Array.unsafe_get times parent in
    if time < parent_time then begin
      Float.Array.unsafe_set times !hole parent_time;
      Array.unsafe_set seqs !hole (Array.unsafe_get seqs parent);
      Array.unsafe_set callbacks !hole (Array.unsafe_get callbacks parent);
      hole := parent
    end
    else rising := false
  done;
  Float.Array.unsafe_set times !hole time;
  Array.unsafe_set seqs !hole seq;
  Array.unsafe_set callbacks !hole callback

(* Remove the root: the last event refills the hole left at slot 0 and
   sifts down, the smaller child by [(time, seq)] moving up each level.
   Requires [t.size > 0]. *)
let remove_root t =
  let times = t.times and seqs = t.seqs and callbacks = t.callbacks in
  let n = t.size - 1 in
  t.size <- n;
  let time = Float.Array.unsafe_get times n in
  let seq = Array.unsafe_get seqs n in
  let callback = Array.unsafe_get callbacks n in
  Array.unsafe_set callbacks n nop;
  if n > 0 then begin
    let hole = ref 0 in
    let sinking = ref true in
    while !sinking do
      let left = (2 * !hole) + 1 in
      if left >= n then sinking := false
      else begin
        let right = left + 1 in
        let lt = Float.Array.unsafe_get times left in
        let child =
          if right < n then
            let rt = Float.Array.unsafe_get times right in
            if rt < lt
               || ((not (lt < rt))
                  && Array.unsafe_get seqs right < Array.unsafe_get seqs left)
            then right
            else left
          else left
        in
        let ct = Float.Array.unsafe_get times child in
        let cs = Array.unsafe_get seqs child in
        if ct < time || ((not (time < ct)) && cs < seq) then begin
          Float.Array.unsafe_set times !hole ct;
          Array.unsafe_set seqs !hole cs;
          Array.unsafe_set callbacks !hole (Array.unsafe_get callbacks child);
          hole := child
        end
        else sinking := false
      end
    done;
    Float.Array.unsafe_set times !hole time;
    Array.unsafe_set seqs !hole seq;
    Array.unsafe_set callbacks !hole callback
  end

(* Cold: formats only when a schedule is rejected. *)
let[@inline never] reject_time ~time ~now =
  if Float.is_nan time then invalid_arg "Engine.schedule_at: NaN time";
  invalid_arg (Printf.sprintf "Engine.schedule_at: time %g precedes now %g" time now)

(* [not (x >= y)] also holds for NaN, so each guard rejects NaN with the
   comparison it already makes. *)
let[@inline] schedule_at t ~time callback =
  if not (time >= t.clock) then reject_time ~time ~now:t.clock;
  push t time callback

let schedule t ~delay callback =
  if not (delay >= 0.0) then
    invalid_arg
      (if Float.is_nan delay then "Engine.schedule: NaN delay"
       else "Engine.schedule: negative delay");
  push t (t.clock +. delay) callback

let every t ~interval ?until callback =
  if not (interval > 0.0) then
    invalid_arg
      (if Float.is_nan interval then "Engine.every: NaN interval"
       else "Engine.every: non-positive interval");
  let rec tick engine =
    callback engine;
    let next = now engine +. interval in
    match until with
    | Some stop when next > stop -> ()
    | Some _ | None -> schedule_at engine ~time:next tick
  in
  schedule t ~delay:0.0 tick

let pending t = t.size

(* Pop the root in place and run it. Requires [t.size > 0]. The clock
   stays a boxed field (one box per event) so [now] costs callers
   nothing. *)
let fire t =
  let callback = Array.unsafe_get t.callbacks 0 in
  t.clock <- Float.Array.unsafe_get t.times 0;
  remove_root t;
  Metric.incr m_events;
  Metric.set g_now t.clock;
  callback t

let step t =
  if t.size = 0 then false
  else begin
    fire t;
    true
  end

let run ?until ?max_events t =
  let stop = match until with Some stop -> stop | None -> Float.infinity in
  let budget = match max_events with Some m -> m | None -> max_int in
  let executed = ref 0 in
  while
    !executed < budget
    && t.size > 0
    && not (Float.Array.unsafe_get t.times 0 > stop)
  do
    fire t;
    incr executed
  done;
  if !executed < budget && t.size > 0 then begin
    t.clock <- stop;
    Metric.set g_now stop
  end

let cancel_all t =
  Array.fill t.callbacks 0 t.size nop;
  t.size <- 0
