(* The two-site deployment under the Fig. 4 dynamics (pair-fig4).

   Pair.setup_vultr with the route change and instability windows
   compressed into the horizon; NY runs the jitter-aware policy and
   sends app traffic to LA every 0.5 ms while both PoPs probe every
   10 ms and report every 100 ms. Every app packet takes the scalar
   Pop.send_app -> Policy -> Fabric path through the event engine.
   [~traced:true] times each Pop.send_app and the engine run around
   them; the app-latency figures must not change. *)

open Util
module Engine = Tango_sim.Engine
module Metric = Tango_obs.Metric
module Stats = Tango_sim.Stats
module Pair = Tango.Pair
module Pop = Tango.Pop
module Policy = Tango.Policy
module Fig4 = Tango_workload.Fig4
module Traffic = Tango_workload.Traffic
module Series = Tango_telemetry.Series
module Fabric = Tango_dataplane.Fabric

type cfg = { seed : int; horizon_s : float }

let app_interval_s = 0.0005
let probe_interval_s = 0.01

let policy_ny =
  Policy.Jitter_aware { beta = 5.0; hysteresis_ms = 1.0; min_dwell_s = 2.0 }

type outcome = { rep : rep; traced : traced }

let events_total = Metric.counter "sim_events_total"

let setup cfg =
  let scenario = Fig4.create ~seed:cfg.seed ~horizon_s:cfg.horizon_s () in
  Pair.setup_vultr ~seed:cfg.seed ~scenario ~policy_ny ()

let run ~traced cfg =
  let setup_s =
    median_of_samples (fun () ->
        let t0 = now_ns () in
        ignore (setup cfg);
        seconds_since t0)
  in
  let pair = setup cfg in
  let t1 = now_ns () in
  let engine = Pair.engine pair in
  let ny = Pair.pop_ny pair and la = Pair.pop_la pair in
  let fabric = Pair.fabric pair in
  let start = Engine.now engine in
  let fabric_sent0 = Fabric.sent fabric in
  let offered = ref 0 in
  let send_ns = ref 0 in
  let events0 = Metric.counter_value events_total in
  let minor0, major0 = gc_words () in
  Pair.start_measurement pair ~probe_interval_s ~for_s:cfg.horizon_s ();
  Traffic.periodic engine ~interval_s:app_interval_s
    ~until_s:(start +. cfg.horizon_s) (fun _ ->
      incr offered;
      if traced then begin
        let t = now_ns () in
        ignore (Pop.send_app ny ());
        send_ns := !send_ns + (now_ns () - t)
      end
      else ignore (Pop.send_app ny ()));
  with_registry traced (fun () -> Pair.run_for pair (cfg.horizon_s +. 1.0));
  let minor1, major1 = gc_words () in
  let t2 = now_ns () in
  let events = Metric.counter_value events_total - events0 in
  let offered = !offered in
  let delivered = Pop.app_received la in
  let latency = Series.stats (Pop.app_latency_series la) in
  let per_pkt x = if offered = 0 then 0.0 else x /. float_of_int offered in
  let run_ns = float_of_int (t2 - t1) in
  let problems =
    []
    |> check (offered > 0) "no app traffic offered"
    |> check (delivered <= offered)
         (Printf.sprintf "delivered %d > offered %d" delivered offered)
    |> check (latency.Stats.n = delivered) "latency samples <> deliveries"
    |> check ((not traced) || events > 0) "engine event counter did not move"
  in
  (* Fingerprint: the app-latency statistics the paper's figure rests
     on, bit-exact. *)
  let fingerprint =
    Printf.sprintf "%d-%Lx-%Lx-%d" delivered
      (Int64.bits_of_float latency.Stats.mean)
      (Int64.bits_of_float latency.Stats.p99)
      (Pop.policy_switches ny)
  in
  let rep =
    {
      offered;
      delivered;
      timed_s = float_of_int (t2 - t1) /. 1e9;
      setup_s;
      owd_mean_ms = latency.Stats.mean *. 1000.0;
      fingerprint;
      problems;
    }
  in
  {
    rep;
    traced =
      {
        t_offered = offered;
        t_timed_s = rep.timed_s;
        t_fingerprint = fingerprint;
        t_self_ns =
          [
            ("core.pop.send_app", float_of_int !send_ns);
            ("sim.engine", run_ns -. float_of_int !send_ns);
          ];
        t_layers =
          [
            ("core.pop.send_app_ns", per_pkt (float_of_int !send_ns));
            ( "dataplane.fabric.sent_per_app_pkt",
              per_pkt (float_of_int (Fabric.sent fabric - fabric_sent0)) );
            ("core.policy.switches", float_of_int (Pop.policy_switches ny));
            ( "sim.engine.ns_per_event",
              if events = 0 then 0.0
              else (run_ns -. float_of_int !send_ns) /. float_of_int events );
            ("sim.engine.events_per_pkt", per_pkt (float_of_int events));
            ("gc.minor_words_per_pkt", per_pkt (minor1 -. minor0));
            ("gc.major_words_per_pkt", per_pkt (major1 -. major0));
          ];
        t_problems = problems;
      };
  }
