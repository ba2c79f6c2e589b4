(* The attested relay mesh under a relay kill (mesh-attest-kill).

   [run] drives the public entry point, Mesh.run, with the relay-kill
   scenario of the fault library. [run_replay] builds the same world
   from Mtopo, Arbor, Gossip, Relay and Attest in the order Mesh.run
   does — stitched routes, committed routes, the kill of the busiest
   transit PoP, hellos, gossip and the staggered flows — and must
   reproduce Mesh.run's fingerprint. It also yields what Mesh.run does
   not return: the virtual delay of every delivered frame. With
   [~traced:true] it times the set-up calls, every Relay.send and the
   engine run around them. *)

open Util
module Engine = Tango_sim.Engine
module Rng = Tango_sim.Rng
module Metric = Tango_obs.Metric
module Spec = Tango_faults.Spec
module Scenario = Tango_faults.Scenario
module Mesh = Tango_mesh.Mesh
module Mtopo = Tango_mesh.Mtopo
module Arbor = Tango_mesh.Arbor
module Gossip = Tango_mesh.Gossip
module Relay = Tango_mesh.Relay
module Attest = Tango_mesh.Attest
module Segment = Tango_mesh.Segment

type cfg = {
  pops : int;
  seed : int;  (** Mesh.run's seed: topology and flow endpoints *)
  duration_s : float;
  kill_at_s : float;
}

let degree = 4
let trees = 3
let pkt_interval_s = 0.02

(* The relay-kill scenario (busiest transit PoP, 4 s outage), moved to
   the workload's kill instant. *)
let kill_spec cfg =
  match (Scenario.get "relay-kill").Scenario.specs with
  | [ s ] ->
      Spec.v ~path:s.Spec.path ~start_s:cfg.kill_at_s ~duration_s:s.Spec.duration_s
        s.Spec.kind
  | _ -> failwith "relay-kill scenario is not a single spec"

let mesh_run cfg ~duration_s ~specs =
  Mesh.run ~pops:cfg.pops ~degree ~trees ~seed:cfg.seed ~duration_s ~specs
    ~attest:true ()

(* Set-up: the world build with no traffic — a horizon that ends before
   the first flow starts at 0.5 s. *)
let setup_s cfg =
  let t0 = now_ns () in
  ignore (mesh_run cfg ~duration_s:0.4 ~specs:[]);
  seconds_since t0

let conservation (r : Mesh.result) =
  []
  |> check
       (r.Mesh.sent >= r.Mesh.delivered + r.Mesh.dropped + r.Mesh.rejected)
       (Printf.sprintf "conservation: sent %d < delivered %d + dropped %d + rejected %d"
          r.Mesh.sent r.Mesh.delivered r.Mesh.dropped r.Mesh.rejected)
  |> check (r.Mesh.killed >= 0) "relay kill did not fire"
  |> check (r.Mesh.discovery_after_fault = 0) "rediscovery after the fault"
  |> check (r.Mesh.unrecovered = 0) "affected flows never recovered"

let run cfg =
  let setup = median_of_samples (fun () -> setup_s cfg) in
  let t0 = now_ns () in
  let r = mesh_run cfg ~duration_s:cfg.duration_s ~specs:[ kill_spec cfg ] in
  let timed = seconds_since t0 in
  {
    offered = r.Mesh.sent;
    delivered = r.Mesh.delivered;
    timed_s = timed;
    setup_s = setup;
    owd_mean_ms = nan;
    fingerprint = r.Mesh.fingerprint;
    problems = conservation r;
  }

(* Mesh.run's route stitching: walk arborescence 0 from src to dst. *)
let stitch topo arbor ~src ~dst ~flow ~hops ~seg_paths =
  let count = ref 0 in
  let pop = ref src in
  let budget = Arbor.pops arbor in
  let steps = ref 0 in
  while !pop <> dst && !steps <= budget do
    let nh = Arbor.next_hop arbor ~dst ~tree:0 ~pop:!pop in
    if nh < 0 then steps := budget + 1
    else begin
      if !count < Segment.max_segments - 1 then begin
        hops.(!count) <- nh;
        let s = Mtopo.slot topo ~src:!pop ~dst:nh in
        seg_paths.(!count) <- flow mod Mtopo.slot_paths topo s;
        incr count
      end;
      pop := nh;
      incr steps
    end
  done;
  if !count = 0 || hops.(!count - 1) <> dst then begin
    hops.(!count) <- dst;
    seg_paths.(!count) <- 0;
    incr count
  end;
  !count

type replay = {
  fingerprint : string;
  sent : int;
  owd_mean_ms : float;
  traced : traced;
}

let events_total = Metric.counter "sim_events_total"

let run_replay ~traced cfg =
  let spec = kill_spec cfg in
  let pops = cfg.pops in
  let nflows = min (2 * pops) 128 in
  let t_start = now_ns () in
  let engine = Engine.create ~seed:cfg.seed ~heap_capacity:(16 * pops) () in
  let topo = Mtopo.generate ~degree ~pops ~seed:cfg.seed () in
  let arbor = Arbor.build ~k:trees topo in
  let t_arbor = now_ns () in
  let gossip = Gossip.create ~topo ~engine () in
  let relay = Relay.create ~topo ~arbor ~engine ~gossip ~quarantine_s:2.0 () in
  let rng = Engine.rng engine in
  let flow_src = Array.make nflows 0 and flow_dst = Array.make nflows 0 in
  let flow_hops = Array.make_matrix nflows Segment.max_segments 0 in
  let flow_paths = Array.make_matrix nflows Segment.max_segments 0 in
  let flow_count = Array.make nflows 0 in
  let flow_seq = Array.make nflows 0 in
  for f = 0 to nflows - 1 do
    let src = Rng.int rng pops in
    let d = 1 + Rng.int rng (pops - 1) in
    let dst = (src + d) mod pops in
    flow_src.(f) <- src;
    flow_dst.(f) <- dst;
    flow_count.(f) <-
      stitch topo arbor ~src ~dst ~flow:f ~hops:flow_hops.(f)
        ~seg_paths:flow_paths.(f);
    Relay.note_discovery relay
  done;
  let att = Attest.create ~suspect_threshold:4 ~pops ~flows:nflows () in
  for f = 0 to nflows - 1 do
    let contiguous = ref true in
    let prev = ref flow_src.(f) in
    for i = 0 to flow_count.(f) - 1 do
      if Mtopo.slot topo ~src:!prev ~dst:flow_hops.(f).(i) < 0 then
        contiguous := false;
      prev := flow_hops.(f).(i)
    done;
    if !contiguous then
      Attest.commit att ~flow:f ~src:flow_src.(f) ~hops:flow_hops.(f)
        ~count:flow_count.(f)
  done;
  Relay.set_attest relay att;
  (* Virtual delay of each delivered frame: send times are kept per flow
     in a small ring indexed by sequence (frames outlive their send by
     far less than [window] send intervals). *)
  let window = 256 in
  let sent_at = Array.make_matrix nflows window 0.0 in
  let owd_sum = ref 0.0 and owd_n = ref 0 in
  Relay.set_on_deliver relay (fun ~flow ~seq ~tree:_ ~now ->
      owd_sum := !owd_sum +. (now -. sent_at.(flow).(seq land (window - 1)));
      incr owd_n);
  let transit_load = Array.make pops 0 in
  for f = 0 to nflows - 1 do
    for i = 0 to flow_count.(f) - 2 do
      transit_load.(flow_hops.(f).(i)) <- transit_load.(flow_hops.(f).(i)) + 1
    done
  done;
  let target =
    if spec.Spec.path > 0 then spec.Spec.path
    else begin
      let best = ref 0 in
      for p = 1 to pops - 1 do
        if transit_load.(p) > transit_load.(!best) then best := p
      done;
      !best
    end
  in
  Engine.schedule_at engine ~time:spec.Spec.start_s (fun _ ->
      Relay.kill_pop relay ~pop:target);
  Engine.schedule_at engine
    ~time:(spec.Spec.start_s +. spec.Spec.duration_s)
    (fun _ -> Relay.revive_pop relay ~pop:target);
  Relay.start_hellos relay ~until:cfg.duration_s;
  Gossip.start gossip ~pop_alive:(Relay.pop_alive relay) ~until:cfg.duration_s;
  let send_ns = ref 0 in
  for f = 0 to nflows - 1 do
    let start = 0.5 +. (0.001 *. float_of_int (f mod 100)) in
    Engine.schedule_at engine ~time:start (fun engine ->
        Engine.every engine ~interval:pkt_interval_s ~until:cfg.duration_s
          (fun engine ->
            let seq = flow_seq.(f) in
            sent_at.(f).(seq land (window - 1)) <- Engine.now engine;
            if traced then begin
              let t = now_ns () in
              Relay.send relay ~src:flow_src.(f) ~flow:f ~seq ~hops:flow_hops.(f)
                ~seg_paths:flow_paths.(f) ~count:flow_count.(f);
              send_ns := !send_ns + (now_ns () - t)
            end
            else
              Relay.send relay ~src:flow_src.(f) ~flow:f ~seq ~hops:flow_hops.(f)
                ~seg_paths:flow_paths.(f) ~count:flow_count.(f);
            flow_seq.(f) <- seq + 1))
  done;
  let t_setup = now_ns () in
  let events0 = Metric.counter_value events_total in
  let minor0, major0 = gc_words () in
  with_registry traced (fun () -> Engine.run ~until:cfg.duration_s engine);
  let minor1, major1 = gc_words () in
  let t_end = now_ns () in
  let events = Metric.counter_value events_total - events0 in
  let sent = Relay.sent relay in
  let per_frame x = if sent = 0 then 0.0 else x /. float_of_int sent in
  let run_ns = float_of_int (t_end - t_setup) in
  let problems =
    []
    |> check
         (sent >= Relay.delivered relay + Relay.dropped relay + Relay.attest_rejected relay)
         "replay conservation failed"
    |> check ((not traced) || events > 0) "engine event counter did not move"
  in
  {
    fingerprint = Relay.fingerprint relay;
    sent;
    owd_mean_ms =
      (if !owd_n = 0 then 0.0 else !owd_sum /. float_of_int !owd_n *. 1000.0);
    traced =
      {
        t_offered = sent;
        t_timed_s = float_of_int (t_end - t_start) /. 1e9;
        t_fingerprint = Relay.fingerprint relay;
        t_self_ns =
          [
            ("mesh.setup", float_of_int (t_setup - t_start));
            ("mesh.relay.send", float_of_int !send_ns);
            ("sim.engine", run_ns -. float_of_int !send_ns);
          ];
        t_layers =
          [
            ("mesh.setup.topo_arbor_s", float_of_int (t_arbor - t_start) /. 1e9);
            ("mesh.relay.send_ns_per_frame", per_frame (float_of_int !send_ns));
            ("mesh.relay.hops_per_frame", per_frame (float_of_int (Relay.forwarded relay)));
            ("mesh.relay.reroutes_per_frame", per_frame (float_of_int (Relay.reroutes relay)));
            ( "mesh.control.msgs_per_frame",
              per_frame (float_of_int (Relay.hello_msgs relay + Gossip.msgs gossip)) );
            ( "sim.engine.ns_per_event",
              if events = 0 then 0.0
              else (run_ns -. float_of_int !send_ns) /. float_of_int events );
            ("sim.engine.events_per_pkt", per_frame (float_of_int events));
            ("gc.minor_words_per_pkt", per_frame (minor1 -. minor0));
            ("gc.major_words_per_pkt", per_frame (major1 -. major0));
          ];
        t_problems = problems;
      };
  }
