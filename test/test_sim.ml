(* Tests for the simulation substrate: RNG, the engine's event heap, engine,
   statistics. *)

open Tango_sim

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:1 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.bits64 a) (Rng.bits64 b)) then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_int_invalid () =
  let rng = Rng.create ~seed:3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_in () =
  let rng = Rng.create ~seed:4 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done;
  Alcotest.(check int) "degenerate range" 9 (Rng.int_in rng 9 9)

let test_rng_float_bounds () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_split_independent () =
  let parent = Rng.create ~seed:6 in
  let child = Rng.split parent in
  (* The child must not replay the parent's stream. *)
  let p = Array.init 8 (fun _ -> Rng.bits64 parent) in
  let c = Array.init 8 (fun _ -> Rng.bits64 child) in
  Alcotest.(check bool) "distinct streams" true (p <> c)

let test_rng_copy () =
  let a = Rng.create ~seed:7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy replays" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_gaussian_moments () =
  let rng = Rng.create ~seed:8 in
  let stats = Stats.create () in
  for _ = 1 to 20_000 do
    Stats.add stats (Rng.gaussian rng ~mean:5.0 ~std:2.0)
  done;
  Alcotest.(check bool) "mean close" true (abs_float (Stats.mean stats -. 5.0) < 0.1);
  Alcotest.(check bool) "std close" true (abs_float (Stats.stddev stats -. 2.0) < 0.1)

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:9 in
  let stats = Stats.create () in
  for _ = 1 to 20_000 do
    Stats.add stats (Rng.exponential rng ~rate:4.0)
  done;
  Alcotest.(check bool) "mean ~ 1/rate" true (abs_float (Stats.mean stats -. 0.25) < 0.02)

let test_rng_invalid_params () =
  let rng = Rng.create ~seed:99 in
  Alcotest.(check bool) "int_in empty range" true
    (try ignore (Rng.int_in rng 5 4); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "exponential rate 0" true
    (try ignore (Rng.exponential rng ~rate:0.0); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "pareto bad shape" true
    (try ignore (Rng.pareto rng ~scale:1.0 ~shape:0.0); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "choice empty" true
    (try ignore (Rng.choice rng [||]); false with Invalid_argument _ -> true)

let test_rng_pareto_scale () =
  let rng = Rng.create ~seed:10 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) ">= scale" true (Rng.pareto rng ~scale:3.0 ~shape:2.0 >= 3.0)
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:11 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

let test_rng_choice () =
  let rng = Rng.create ~seed:12 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "member" true (Array.mem (Rng.choice rng arr) arr)
  done

(* ------------------------------------------------------------------ *)
(* Event heap: the engine's queue, driven through the Engine API       *)

(* Queue one event per time, each logging its time when it fires. *)
let schedule_logging e log times =
  List.iter
    (fun time -> Engine.schedule_at e ~time (fun e -> log := Engine.now e :: !log))
    times

let test_heap_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  schedule_logging e log [ 5.; 3.; 8.; 1.; 9.; 2.; 7. ];
  Alcotest.(check int) "all pending" 7 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list (float 0.0))) "sorted drain"
    [ 1.; 2.; 3.; 5.; 7.; 8.; 9. ] (List.rev !log)

let test_heap_pop_order () =
  let e = Engine.create () in
  let log = ref [] in
  schedule_logging e log [ 4.; 1.; 3. ];
  let step_fires name time =
    Alcotest.(check bool) (name ^ " stepped") true (Engine.step e);
    Alcotest.(check (float 0.0)) name time (List.hd !log)
  in
  step_fires "pop 1" 1.;
  step_fires "pop 3" 3.;
  schedule_logging e log [ 3.5 ];
  step_fires "pop 3.5" 3.5;
  step_fires "pop 4" 4.;
  Alcotest.(check bool) "empty" false (Engine.step e)

let test_heap_empty () =
  let e = Engine.create () in
  Alcotest.(check int) "nothing pending" 0 (Engine.pending e);
  Alcotest.(check bool) "step on empty" false (Engine.step e);
  Engine.run ~until:5.0 e;
  check_float "empty run leaves the clock" 0.0 (Engine.now e)

let test_heap_clear () =
  let e = Engine.create () in
  schedule_logging e (ref []) [ 1.; 2.; 3. ];
  Engine.cancel_all e;
  Alcotest.(check int) "cleared" 0 (Engine.pending e);
  Alcotest.(check bool) "nothing left to step" false (Engine.step e)

let heap_qcheck_sorted =
  QCheck.Test.make ~name:"heap drains any int list sorted" ~count:200
    QCheck.(list int)
    (fun l ->
      let e = Engine.create () in
      let log = ref [] in
      let times = List.map (fun x -> float_of_int (x land max_int)) l in
      schedule_logging e log times;
      Engine.run e;
      List.rev !log = List.sort Float.compare times)

let heap_qcheck_pop_monotone =
  QCheck.Test.make ~name:"heap pops are monotone" ~count:200
    QCheck.(list small_int)
    (fun l ->
      let e = Engine.create () in
      let log = ref [] in
      (* Many ties: equal times must also pop in scheduling order. *)
      List.iteri
        (fun i x ->
          Engine.schedule_at e ~time:(float_of_int x) (fun e ->
              log := (Engine.now e, i) :: !log))
        l;
      Engine.run e;
      let rec monotone = function
        | (t1, i1) :: ((t2, i2) :: _ as rest) ->
            (t1 < t2 || (Float.equal t1 t2 && i1 < i2)) && monotone rest
        | [ _ ] | [] -> true
      in
      List.length !log = List.length l && monotone (List.rev !log))

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let test_engine_time_advance () =
  let e = Engine.create () in
  let fired = ref [] in
  Engine.schedule e ~delay:2.0 (fun e -> fired := ("b", Engine.now e) :: !fired);
  Engine.schedule e ~delay:1.0 (fun e -> fired := ("a", Engine.now e) :: !fired);
  Engine.run e;
  check_float "final clock" 2.0 (Engine.now e);
  Alcotest.(check (list (pair string (float 1e-9))))
    "ordered firing"
    [ ("a", 1.0); ("b", 2.0) ]
    (List.rev !fired)

let test_engine_fifo_same_time () =
  let e = Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:1.0 (fun _ -> order := i :: !order)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "FIFO for ties" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:1.0 (fun e ->
      log := Engine.now e :: !log;
      Engine.schedule e ~delay:0.5 (fun e -> log := Engine.now e :: !log));
  Engine.run e;
  Alcotest.(check (list (float 1e-9))) "nested fires" [ 1.0; 1.5 ] (List.rev !log)

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.schedule e ~delay:1.0 (fun _ -> incr count);
  Engine.schedule e ~delay:5.0 (fun _ -> incr count);
  Engine.run ~until:2.0 e;
  Alcotest.(check int) "only early event" 1 !count;
  check_float "clock stops at until" 2.0 (Engine.now e);
  Alcotest.(check int) "late event still queued" 1 (Engine.pending e)

let test_engine_every () =
  let e = Engine.create () in
  let ticks = ref [] in
  Engine.every e ~interval:1.0 ~until:3.5 (fun e -> ticks := Engine.now e :: !ticks);
  Engine.run e;
  Alcotest.(check (list (float 1e-9)))
    "periodic ticks" [ 0.0; 1.0; 2.0; 3.0 ] (List.rev !ticks)

let test_engine_max_events () =
  let e = Engine.create () in
  let rec loop engine = Engine.schedule engine ~delay:1.0 loop in
  Engine.schedule e ~delay:1.0 loop;
  Engine.run ~max_events:10 e;
  Alcotest.(check bool) "bounded" true (Engine.now e <= 11.0)

let test_engine_negative_delay () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule e ~delay:(-1.0) (fun _ -> ()))

let test_engine_schedule_past () =
  let e = Engine.create () in
  Engine.schedule e ~delay:1.0 (fun e ->
      try
        Engine.schedule_at e ~time:0.5 (fun _ -> ());
        Alcotest.fail "expected Invalid_argument"
      with Invalid_argument _ -> ());
  Engine.run e

let test_engine_cancel_all () =
  let e = Engine.create () in
  Engine.schedule e ~delay:1.0 (fun _ -> Alcotest.fail "should not run");
  Engine.cancel_all e;
  Engine.run e;
  check_float "clock untouched" 0.0 (Engine.now e)

let test_engine_rejects_nan () =
  (* A NaN delay used to be accepted: it fired ahead of the events
     queued for t = 1.0 and set the clock to NaN, which then let a
     [schedule_at ~time:0.5] through. *)
  let e = Engine.create () in
  let order = ref [] in
  let log name (_ : Engine.t) = order := name :: !order in
  Engine.schedule e ~delay:1.0 (log "a");
  Engine.schedule e ~delay:1.0 (log "b");
  Alcotest.check_raises "NaN delay" (Invalid_argument "Engine.schedule: NaN delay")
    (fun () -> Engine.schedule e ~delay:Float.nan (log "nan"));
  Alcotest.check_raises "NaN time"
    (Invalid_argument "Engine.schedule_at: NaN time") (fun () ->
      Engine.schedule_at e ~time:Float.nan (log "nan"));
  Alcotest.check_raises "NaN interval"
    (Invalid_argument "Engine.every: NaN interval") (fun () ->
      Engine.every e ~interval:Float.nan (log "nan"));
  Engine.run e;
  Alcotest.(check (list string)) "only the real events fired" [ "a"; "b" ]
    (List.rev !order);
  check_float "clock is a number" 1.0 (Engine.now e);
  Alcotest.check_raises "past still rejected"
    (Invalid_argument "Engine.schedule_at: time 0.5 precedes now 1") (fun () ->
      Engine.schedule_at e ~time:0.5 (log "past"))

(* Differential check of the event queue against a reference list kept
   in [(time, seq)] order. Delays and offsets are whole quarter-seconds
   from a small range, so many events share an instant; an event may
   schedule one child from inside its callback. *)

type op =
  | Sched of int * int option  (** delay, child delay *)
  | Sched_at of int * int option  (** offset from now, child delay *)
  | Step
  | Run
  | Run_until of int  (** offset from now *)
  | Run_max of int
  | Run_until_max of int * int
  | Cancel

let show_op =
  let child = function None -> "" | Some d -> Printf.sprintf " +child %d" d in
  function
  | Sched (d, c) -> Printf.sprintf "schedule %d%s" d (child c)
  | Sched_at (k, c) -> Printf.sprintf "schedule_at now+%d%s" k (child c)
  | Step -> "step"
  | Run -> "run"
  | Run_until k -> Printf.sprintf "run ~until:now+%d" k
  | Run_max n -> Printf.sprintf "run ~max_events:%d" n
  | Run_until_max (k, n) -> Printf.sprintf "run ~until:now+%d ~max_events:%d" k n
  | Cancel -> "cancel_all"

let quarters k = float_of_int k *. 0.25

let op_gen =
  QCheck.Gen.(
    let k = int_range 0 4 in
    let child = frequency [ (7, return None); (3, map Option.some k) ] in
    frequency
      [
        (4, map2 (fun d c -> Sched (d, c)) k child);
        (3, map2 (fun d c -> Sched_at (d, c)) k child);
        (3, return Step);
        (1, return Run);
        (1, map (fun k -> Run_until k) k);
        (1, map (fun n -> Run_max n) (int_range 0 5));
        (1, map2 (fun k n -> Run_until_max (k, n)) k (int_range 0 5));
        (1, return Cancel);
      ])

type ref_event = { time : float; seq : int; id : int; child : int option }

type model = {
  mutable clock : float;
  mutable next_seq : int;
  mutable queue : ref_event list;  (** ascending [(time, seq)] *)
  mutable fired : int list;  (** newest first *)
}

let before a b = a.time < b.time || (Float.equal a.time b.time && a.seq < b.seq)

let model_push m ~time ~id ~child =
  let ev = { time; seq = m.next_seq; id; child } in
  m.next_seq <- m.next_seq + 1;
  let rec insert = function
    | x :: rest when before x ev -> x :: insert rest
    | l -> ev :: l
  in
  m.queue <- insert m.queue

let model_fire m =
  match m.queue with
  | [] -> ()
  | ev :: rest ->
      m.queue <- rest;
      m.clock <- ev.time;
      m.fired <- ev.id :: m.fired;
      Option.iter
        (fun d -> model_push m ~time:(m.clock +. quarters d) ~id:(-ev.id - 1) ~child:None)
        ev.child

(* [run]'s contract: fire in order while the budget lasts and the next
   event is not past [stop]; an event left past [stop] moves the clock
   to [stop]. *)
let model_run m ~stop ~budget =
  let executed = ref 0 in
  let due () = match m.queue with ev :: _ -> not (ev.time > stop) | [] -> false in
  while !executed < budget && due () do
    model_fire m;
    incr executed
  done;
  if !executed < budget && m.queue <> [] then m.clock <- stop

let engine_qcheck_differential =
  QCheck.Test.make ~name:"queue matches a (time, seq) reference model" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(list show_op)
       QCheck.Gen.(list_size (int_range 0 80) op_gen))
    (fun ops ->
      let e = Engine.create () in
      let log = ref [] in
      let rec callback id child engine =
        log := id :: !log;
        Option.iter
          (fun d -> Engine.schedule engine ~delay:(quarters d) (callback (-id - 1) None))
          child
      in
      let m = { clock = 0.0; next_seq = 0; queue = []; fired = [] } in
      let next_id = ref 0 in
      let apply = function
        | Sched (d, child) ->
            incr next_id;
            Engine.schedule e ~delay:(quarters d) (callback !next_id child);
            model_push m ~time:(m.clock +. quarters d) ~id:!next_id ~child
        | Sched_at (k, child) ->
            incr next_id;
            Engine.schedule_at e ~time:(Engine.now e +. quarters k)
              (callback !next_id child);
            model_push m ~time:(m.clock +. quarters k) ~id:!next_id ~child
        | Step ->
            let stepped = Engine.step e in
            if stepped <> (m.queue <> []) then failwith "step result";
            model_fire m
        | Run ->
            Engine.run e;
            model_run m ~stop:Float.infinity ~budget:max_int
        | Run_until k ->
            let stop = Engine.now e +. quarters k in
            Engine.run ~until:stop e;
            model_run m ~stop ~budget:max_int
        | Run_max n ->
            Engine.run ~max_events:n e;
            model_run m ~stop:Float.infinity ~budget:n
        | Run_until_max (k, n) ->
            let stop = Engine.now e +. quarters k in
            Engine.run ~until:stop ~max_events:n e;
            model_run m ~stop ~budget:n
        | Cancel ->
            Engine.cancel_all e;
            m.queue <- []
      in
      List.for_all
        (fun op ->
          apply op;
          !log = m.fired
          && Float.equal (Engine.now e) m.clock
          && Engine.pending e = List.length m.queue)
        ops)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Stats.count s);
  check_float "mean" 2.5 (Stats.mean s);
  check_float "min" 1.0 (Stats.min_value s);
  check_float "max" 4.0 (Stats.max_value s);
  (* Sample variance of 1..4 is 5/3. *)
  Alcotest.(check (float 1e-9)) "variance" (5.0 /. 3.0) (Stats.variance s)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.mean s));
  check_float "variance 0" 0.0 (Stats.variance s)

let test_stats_single () =
  let s = Stats.create () in
  Stats.add s 42.0;
  check_float "mean" 42.0 (Stats.mean s);
  check_float "variance" 0.0 (Stats.variance s)

let test_stats_quantile () =
  let s = Stats.create () in
  for i = 1 to 101 do
    Stats.add s (float_of_int i)
  done;
  check_float "median" 51.0 (Stats.quantile s 0.5);
  check_float "q0" 1.0 (Stats.quantile s 0.0);
  check_float "q1" 101.0 (Stats.quantile s 1.0)

let test_stats_reservoir_overflow () =
  (* More samples than the reservoir: quantiles remain sane estimates. *)
  let s = Stats.create ~reservoir:128 () in
  for i = 1 to 100_000 do
    Stats.add s (float_of_int (i mod 1000))
  done;
  let q = Stats.quantile s 0.5 in
  Alcotest.(check bool) "median plausible" true (q > 200.0 && q < 800.0)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  List.iter (Stats.add a) [ 1.0; 2.0; 3.0 ];
  List.iter (Stats.add b) [ 10.0; 20.0 ];
  let m = Stats.merge a b in
  Alcotest.(check int) "count" 5 (Stats.count m);
  check_float "mean" 7.2 (Stats.mean m);
  check_float "min" 1.0 (Stats.min_value m);
  check_float "max" 20.0 (Stats.max_value m)

let stats_qcheck_mean =
  QCheck.Test.make ~name:"streaming mean matches direct mean" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 200) (float_range (-1000.) 1000.))
    (fun l ->
      let s = Stats.create () in
      List.iter (Stats.add s) l;
      let direct = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
      abs_float (Stats.mean s -. direct) < 1e-6 *. (1.0 +. abs_float direct))

let stats_qcheck_merge_is_concat =
  QCheck.Test.make ~name:"merge equals feeding concatenation" ~count:200
    QCheck.(pair (list (float_range (-100.) 100.)) (list (float_range (-100.) 100.)))
    (fun (l1, l2) ->
      let a = Stats.create () and b = Stats.create () and c = Stats.create () in
      List.iter (Stats.add a) l1;
      List.iter (Stats.add b) l2;
      List.iter (Stats.add c) (l1 @ l2);
      let m = Stats.merge a b in
      Stats.count m = Stats.count c
      &&
      (Stats.count c = 0
      || abs_float (Stats.mean m -. Stats.mean c) < 1e-6
         && abs_float (Stats.variance m -. Stats.variance c) < 1e-4))

let () =
  let tc = Alcotest.test_case in
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "tango_sim"
    [
      ( "rng",
        [
          tc "deterministic" `Quick test_rng_deterministic;
          tc "seed sensitivity" `Quick test_rng_seed_sensitivity;
          tc "int bounds" `Quick test_rng_int_bounds;
          tc "int invalid" `Quick test_rng_int_invalid;
          tc "int_in" `Quick test_rng_int_in;
          tc "float bounds" `Quick test_rng_float_bounds;
          tc "split independent" `Quick test_rng_split_independent;
          tc "copy" `Quick test_rng_copy;
          tc "gaussian moments" `Slow test_rng_gaussian_moments;
          tc "exponential mean" `Slow test_rng_exponential_mean;
          tc "pareto scale" `Quick test_rng_pareto_scale;
          tc "invalid params" `Quick test_rng_invalid_params;
          tc "shuffle permutation" `Quick test_rng_shuffle_permutation;
          tc "choice member" `Quick test_rng_choice;
        ] );
      ( "heap",
        [
          tc "ordering" `Quick test_heap_ordering;
          tc "pop order" `Quick test_heap_pop_order;
          tc "empty" `Quick test_heap_empty;
          tc "clear" `Quick test_heap_clear;
          qc heap_qcheck_sorted;
          qc heap_qcheck_pop_monotone;
        ] );
      ( "engine",
        [
          tc "time advance" `Quick test_engine_time_advance;
          tc "FIFO ties" `Quick test_engine_fifo_same_time;
          tc "nested schedule" `Quick test_engine_nested_schedule;
          tc "until" `Quick test_engine_until;
          tc "every" `Quick test_engine_every;
          tc "max events" `Quick test_engine_max_events;
          tc "negative delay" `Quick test_engine_negative_delay;
          tc "schedule in past" `Quick test_engine_schedule_past;
          tc "cancel all" `Quick test_engine_cancel_all;
          tc "rejects NaN" `Quick test_engine_rejects_nan;
          qc engine_qcheck_differential;
        ] );
      ( "stats",
        [
          tc "basic moments" `Quick test_stats_basic;
          tc "empty" `Quick test_stats_empty;
          tc "single" `Quick test_stats_single;
          tc "quantiles" `Quick test_stats_quantile;
          tc "reservoir overflow" `Slow test_stats_reservoir_overflow;
          tc "merge" `Quick test_stats_merge;
          qc stats_qcheck_mean;
          qc stats_qcheck_merge_is_concat;
        ] );
    ]
