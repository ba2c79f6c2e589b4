(* Flow-sharded domain lanes with a deterministic merge.

   The multicore dataplane (DESIGN.md §11) splits flows across N lanes
   by flow hash; each lane runs on its own OCaml 5 domain against its
   own lane-local state (fabric, trackers, caches), so the per-packet
   path takes no lock and shares no mutable cache line. Results come
   back as flat timestamped records through one single-producer /
   single-consumer ring per lane, and a single reducer drains the rings
   in (virtual-time, lane-id, ring-position) order — a k-way merge whose
   output order is a pure function of the records, never of scheduling.
   That is what keeps seeded runs byte-reproducible at any domain count.

   Rings are preallocated flat arrays (no per-record boxing); the
   producer side is [@hot] and allocation-free. Publication safety
   follows the OCaml memory model: every plain field write a producer
   makes before its Atomic tail store is visible to a reader that
   observes the new tail. *)

let lane_of_hash ~lanes hash =
  if lanes <= 0 then invalid_arg "Shard.lane_of_hash: non-positive lane count";
  (hash land max_int) mod lanes

module Ring = struct
  type t = {
    mask : int;
    time : float array;
    a : int array;
    b : int array;
    c : int array;
    v : float array;
    tail : int Atomic.t;  (* producer cursor: next slot to fill *)
    head : int Atomic.t;  (* consumer cursor: next slot to read *)
  }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Shard.Ring.create: non-positive capacity";
    let cap = ref 1 in
    while !cap < capacity do
      cap := !cap * 2
    done;
    let n = !cap in
    {
      mask = n - 1;
      time = Array.make n 0.0;
      a = Array.make n 0;
      b = Array.make n 0;
      c = Array.make n 0;
      v = Array.make n 0.0;
      tail = Atomic.make 0;
      head = Atomic.make 0;
    }

  let capacity t = t.mask + 1

  let length t = Atomic.get t.tail - Atomic.get t.head

  let is_empty t = length t = 0

  let[@hot] push t ~time ~a ~b ~c ~v =
    let tail = Atomic.get t.tail in
    if tail - Atomic.get t.head > t.mask then
      invalid_arg "Shard.Ring.push: ring full (undersized for the workload)";
    (* A NaN head compares false both ways and would break the merge's
       time order. *)
    if Float.is_nan time then invalid_arg "Shard.Ring.push: NaN time";
    let i = tail land t.mask in
    Array.unsafe_set t.time i time;
    Array.unsafe_set t.a i a;
    Array.unsafe_set t.b i b;
    Array.unsafe_set t.c i c;
    Array.unsafe_set t.v i v;
    Atomic.set t.tail (tail + 1)

  let[@hot] peek_time t =
    let head = Atomic.get t.head in
    if Atomic.get t.tail = head then infinity
    else Array.unsafe_get t.time (head land t.mask)

  let[@hot] peek_b t =
    let head = Atomic.get t.head in
    if Atomic.get t.tail = head then max_int
    else Array.unsafe_get t.b (head land t.mask)
end

type record = {
  mutable time : float;
  mutable a : int;
  mutable b : int;
  mutable c : int;
  mutable v : float;
}

let scratch () = { time = 0.0; a = 0; b = 0; c = 0; v = 0.0 }

let pop_into (ring : Ring.t) (r : record) =
  let head = Atomic.get ring.Ring.head in
  if Atomic.get ring.Ring.tail = head then
    invalid_arg "Shard.pop_into: empty ring";
  let i = head land ring.Ring.mask in
  r.time <- Array.unsafe_get ring.Ring.time i;
  r.a <- Array.unsafe_get ring.Ring.a i;
  r.b <- Array.unsafe_get ring.Ring.b i;
  r.c <- Array.unsafe_get ring.Ring.c i;
  r.v <- Array.unsafe_get ring.Ring.v i;
  Atomic.set ring.Ring.head (head + 1)

(* Drain [rings] in (time, lane-id, ring-position) order: repeatedly pop
   the globally smallest head record, scanning lanes ascending with a
   strict < so ties resolve to the lowest lane id; within one lane, ring
   order (the lane's own emission order) is preserved by construction.
   The first non-empty lane is taken unconditionally, so records stamped
   [infinity] drain too. *)
let merge rings ~consume =
  let lanes = Array.length rings in
  let r = scratch () in
  let continue = ref true in
  while !continue do
    let best_lane = ref (-1) in
    let best_time = ref infinity in
    for lane = 0 to lanes - 1 do
      if not (Ring.is_empty rings.(lane)) then begin
        let t = Ring.peek_time rings.(lane) in
        if !best_lane < 0 || t < !best_time then begin
          best_time := t;
          best_lane := lane
        end
      end
    done;
    if !best_lane < 0 then continue := false
    else begin
      pop_into rings.(!best_lane) r;
      consume ~lane:!best_lane r
    end
  done

let run ~lanes ~capacity_of ~lane ~consume =
  if lanes <= 0 then invalid_arg "Shard.run: non-positive lane count";
  let rings =
    Array.init lanes (fun l -> Ring.create ~capacity:(capacity_of ~lane:l))
  in
  let domains =
    Array.init lanes (fun l -> Domain.spawn (fun () -> lane ~lane:l rings.(l)))
  in
  (* Quiesce point: joining every lane establishes happens-before for all
     lane-local state, so the reducer (and any counter merging the caller
     does afterwards) reads fully published data. *)
  Array.iter Domain.join domains;
  merge rings ~consume
