(* The batched lane workloads (lanes-blast, lanes-heavytail).

   [run] drives the public entry point, Throughput.run. [run_traced]
   replays the same lane pipeline from the benchmark's own code — the
   same star topology, flow set, lane partition, cache, batches, fabric
   and trackers — but in stage blocks, so each stage can be timed with
   two clock reads per block instead of per packet: per generation the
   schedule scan, tracker confirms and path decisions run as loops of
   their own, and per batch of 64 the encap, fabric, decap and ring
   pushes do. Every stage sees its inputs in the order Throughput.run
   feeds them, so the replay must reproduce Throughput.run's
   fingerprint; the benchmark checks that it does. *)

open Util
module Throughput = Tango.Throughput
module Addressing = Tango.Addressing
module Engine = Tango_sim.Engine
module Shard = Tango_sim.Shard
module Topology = Tango_topo.Topology
module Link = Tango_topo.Link
module Network = Tango_bgp.Network
module Addr = Tango_net.Addr
module Flow = Tango_net.Flow
module Packet = Tango_net.Packet
module Fabric = Tango_dataplane.Fabric
module Batch = Tango_dataplane.Batch
module Clock = Tango_dataplane.Clock
module Flow_cache = Tango_dataplane.Flow_cache
module Seq_tracker = Tango_dataplane.Seq_tracker
module Load = Tango_workload.Load

type cfg = {
  lanes : int;
  flows : int;
  generations : int;
  seed : int;
  heavy : bool;  (** Load plan + bounded cache, else the uniform blast *)
}

let cache_capacity cfg = if cfg.heavy then Some (max 1 (cfg.flows / 8)) else None

let plan_of cfg =
  if cfg.heavy then
    Some
      (Load.plan
         (Load.default_config ~flows:cfg.flows ~generations:cfg.generations
            ~seed:cfg.seed ()))
  else None

let mean_owd_ms (r : Throughput.result) =
  let n = ref 0 and s = ref 0.0 in
  Array.iteri
    (fun p d ->
      n := !n + d;
      s := !s +. (float_of_int d *. r.Throughput.path_owd_ms.(p)))
    r.Throughput.path_delivered;
  if !n = 0 then 0.0 else !s /. float_of_int !n

(* --- Untraced: the public entry point ------------------------------- *)

let run cfg =
  let t0 = now_ns () in
  let plan = plan_of cfg in
  let r =
    Throughput.run ~domains:cfg.lanes ~batch:Batch.capacity ~flows:cfg.flows
      ~generations:cfg.generations ~seed:cfg.seed ?plan
      ?cache_capacity:(cache_capacity cfg) ()
  in
  let total_s = seconds_since t0 in
  let open Throughput in
  let problems =
    []
    |> check
         (r.offered = r.delivered + r.synthetic_drops)
         (Printf.sprintf "conservation: offered %d <> delivered %d + drops %d"
            r.offered r.delivered r.synthetic_drops)
    |> check (r.merged = r.delivered) "merged records <> delivered"
    |> check
         (Array.fold_left ( + ) 0 r.path_delivered = r.delivered)
         "per-path deliveries do not sum to delivered"
    |> check
         (match plan with
         | Some p -> r.offered = Load.total_packets p
         | None -> r.offered = cfg.flows * cfg.generations)
         "offered <> scheduled packets"
  in
  {
    offered = r.offered;
    delivered = r.delivered;
    timed_s = r.wall_s;
    setup_s = total_s -. r.wall_s;
    owd_mean_ms = mean_owd_ms r;
    fingerprint = Throughput.fingerprint r;
    problems;
  }

(* --- Traced: the stage-blocked replay -------------------------------- *)

(* Constants and workload ingredients of Throughput.run (DESIGN.md §11). *)
let paths = 4
let payload_bytes = 512
let gen_interval_s = 0.001
let epoch_gens = 25

let synthetic_drop ~flow_hash ~gen =
  let m = flow_hash lxor (gen * 0x2545F4914F6CDD1D) in
  let m = m lxor (m lsr 29) in
  m land 1023 < 8

let e14_first_hops = Array.init paths (fun i -> 0.7 +. (0.6 *. float_of_int i))
let load_first_hops = [| 0.7; 1.0; 2.6; 1.3 |]

let build_topology ~first_hop_ms =
  let topo = Topology.create () in
  Topology.add_node topo ~id:0 ~asn:64500 "sender";
  for i = 0 to paths - 1 do
    let transit = 1 + i and receiver = 1 + paths + i in
    Topology.add_node topo ~id:transit ~asn:(64600 + i)
      (Printf.sprintf "transit-%d" i);
    Topology.add_node topo ~id:receiver ~asn:(64700 + i)
      (Printf.sprintf "receiver-%d" i);
    Topology.connect topo ~provider:transit ~customer:0
      ~link:(Link.v ~jitter_ms:0.0 ~bandwidth_mbps:100_000.0 first_hop_ms.(i))
      ();
    Topology.connect topo ~provider:transit ~customer:receiver
      ~link:(Link.v ~jitter_ms:0.0 ~bandwidth_mbps:100_000.0 0.3) ()
  done;
  topo

let record_hash (r : Shard.record) =
  let mix h v = (h lxor v) * 0x100000001B3 land max_int in
  let tb = Int64.to_int (Int64.bits_of_float r.Shard.time) land max_int in
  let vb = Int64.to_int (Int64.bits_of_float r.Shard.v) land max_int in
  mix (mix (mix (mix 0x811C9DC5 tb) r.Shard.a) ((r.Shard.b lsl 3) lxor r.Shard.c)) vb

(* Span slots, accumulated per lane. *)
let s_scan = 0
let s_cache = 1
let s_encap = 2
let s_fabric = 3
let s_decap = 4
let s_ring = 5
let s_tracker = 6
let n_spans = 7

type lane = {
  fabric : Fabric.t;
  dsts : Addr.t array;
  outer_src : Addr.t;
  clock : Clock.t;
  cache : Flow_cache.t;
  track : Seq_tracker.Table.t;
  local : int array;
  path_rings : Shard.Ring.t array;
  batch : Batch.t;
  t0 : float;
  span_ns : int array;
  (* per-generation stage buffers *)
  send_flow : int array;
  send_sidx : int array;
  send_path : int array;
  (* per-batch delivery stash, filled by the fabric callback *)
  st_pkt : Packet.t array;
  st_at : float array;
  mutable st_n : int;
  (* drain buffers *)
  dr_time : float array;
  dr_a : int array;
  dr_b : int array;
  dr_c : int array;
  dr_v : float array;
  mutable epoch : int;
  mutable offered : int;
  mutable synthetic : int;
  mutable delivered : int;
  mutable minor_words : float;
  mutable major_words : float;
}

let dummy_packet =
  Packet.create ~id:0
    ~flow:
      (Flow.v ~src:(Addr.of_string_exn "::1") ~dst:(Addr.of_string_exn "::1")
         ~proto:17 ~src_port:0 ~dst_port:0)
    ~payload_bytes:0 ~created_at:0.0 ()

let build_lane ~seed ~first_hop_ms ~cache_expected ~cache_capacity ~ring_cap
    ~own_flows ~max_sends ~local =
  let engine = Engine.create ~seed () in
  let net = Network.create (build_topology ~first_hop_ms) engine in
  let plan1 =
    Addressing.carve ~block:Addressing.default_block ~site_index:1
      ~path_count:paths
  in
  List.iteri
    (fun i prefix -> Network.announce net ~node:(1 + paths + i) prefix ())
    plan1.Addressing.tunnel_prefixes;
  ignore (Network.converge net);
  let fabric = Fabric.create ~seed net in
  let plan0 =
    Addressing.carve ~block:Addressing.default_block ~site_index:0
      ~path_count:paths
  in
  let drain_cap = max Batch.capacity (paths * ring_cap) in
  {
    fabric;
    dsts = Array.init paths (fun p -> Addressing.tunnel_endpoint plan1 ~path:p);
    outer_src = Addressing.host_address plan0 1L;
    clock = Clock.create ();
    cache = Flow_cache.create ~expected_flows:cache_expected ?capacity:cache_capacity ();
    track = Seq_tracker.Table.create ~keys:own_flows ();
    local;
    path_rings = Array.init paths (fun _ -> Shard.Ring.create ~capacity:ring_cap);
    batch = Batch.create ();
    t0 = Engine.now engine;
    span_ns = Array.make n_spans 0;
    send_flow = Array.make (max 1 max_sends) 0;
    send_sidx = Array.make (max 1 max_sends) 0;
    send_path = Array.make (max 1 max_sends) 0;
    st_pkt = Array.make Batch.capacity dummy_packet;
    st_at = Array.make Batch.capacity 0.0;
    st_n = 0;
    dr_time = Array.make drain_cap 0.0;
    dr_a = Array.make drain_cap 0;
    dr_b = Array.make drain_cap 0;
    dr_c = Array.make drain_cap 0;
    dr_v = Array.make drain_cap 0.0;
    epoch = 0;
    offered = 0;
    synthetic = 0;
    delivered = 0;
    minor_words = 0.0;
    major_words = 0.0;
  }

let[@inline] span env slot t0 =
  let t1 = now_ns () in
  env.span_ns.(slot) <- env.span_ns.(slot) + (t1 - t0);
  t1

let lane_main env out ~flow_hash ~flow_of ~my_flows ~plan ~uniform
    ~generations =
  let gc = Gc.get () in
  Gc.set { gc with Gc.minor_heap_size = 1 lsl 23 };
  let nflows = Array.length flow_hash in
  let on_delivered ~node:_ ~at_s packet =
    env.st_pkt.(env.st_n) <- packet;
    env.st_at.(env.st_n) <- at_s;
    env.st_n <- env.st_n + 1
  in
  (* Fabric, then decap, then the per-path ring pushes, for one batch. *)
  let flush ts =
    if not (Batch.is_empty env.batch) then begin
      let t = now_ns () in
      env.st_n <- 0;
      Fabric.send_batch_direct env.fabric ~from_node:0 ~now_s:ts
        ~on_delivered_at:on_delivered env.batch;
      Batch.clear env.batch;
      let t = span env s_fabric t in
      let n = env.st_n in
      for k = 0 to n - 1 do
        let packet = env.st_pkt.(k) in
        let e = Packet.decapsulate packet in
        let owd_ns =
          Int64.sub
            (Clock.now_ns env.clock ~sim_time_s:env.st_at.(k))
            e.Packet.tango.Packet.timestamp_ns
        in
        env.dr_a.(k) <- packet.Packet.id mod nflows;
        env.dr_b.(k) <- Int64.to_int e.Packet.tango.Packet.seq;
        env.dr_c.(k) <- e.Packet.tango.Packet.path_id;
        env.dr_v.(k) <- Int64.to_float owd_ns /. 1e6
      done;
      let t = span env s_decap t in
      for k = 0 to n - 1 do
        let p = env.dr_c.(k) in
        Shard.Ring.push env.path_rings.(p) ~time:env.st_at.(k) ~a:env.dr_a.(k)
          ~b:env.dr_b.(k) ~c:p ~v:env.dr_v.(k)
      done;
      ignore (span env s_ring t)
    end
  in
  (* Arrivals up to [upto]: pop in (arrival time, sequence) order across
     the path rings, then feed the trackers, then publish to the lane's
     out ring — three blocks, the order of Throughput's interleaved loop. *)
  let scratch = Shard.scratch () in
  let drain upto =
    let t = now_ns () in
    let m = ref 0 in
    let continue = ref true in
    while !continue do
      let best = ref (-1) in
      let best_t = ref infinity in
      let best_seq = ref max_int in
      for p = 0 to paths - 1 do
        let ring = env.path_rings.(p) in
        if not (Shard.Ring.is_empty ring) then begin
          let tp = Shard.Ring.peek_time ring in
          let c = Float.compare tp !best_t in
          if c < 0 || (c = 0 && Shard.Ring.peek_b ring < !best_seq) then begin
            best := p;
            best_t := tp;
            best_seq := Shard.Ring.peek_b ring
          end
        end
      done;
      if !best < 0 || !best_t > upto then continue := false
      else begin
        Shard.pop_into env.path_rings.(!best) scratch;
        let k = !m in
        env.dr_time.(k) <- scratch.Shard.time;
        env.dr_a.(k) <- scratch.Shard.a;
        env.dr_b.(k) <- scratch.Shard.b;
        env.dr_c.(k) <- scratch.Shard.c;
        env.dr_v.(k) <- scratch.Shard.v;
        m := k + 1
      end
    done;
    let m = !m in
    let t = span env s_ring t in
    for k = 0 to m - 1 do
      Seq_tracker.Table.observe ~now_s:env.dr_time.(k) env.track
        ~key:(Array.unsafe_get env.local env.dr_a.(k))
        (Int64.of_int env.dr_b.(k))
    done;
    let t = span env s_tracker t in
    for k = 0 to m - 1 do
      Shard.Ring.push out ~time:env.dr_time.(k) ~a:env.dr_a.(k) ~b:env.dr_b.(k)
        ~c:env.dr_c.(k) ~v:env.dr_v.(k)
    done;
    env.delivered <- env.delivered + m;
    ignore (span env s_ring t)
  in
  let minor0, major0 = gc_words () in
  for gen = 0 to generations - 1 do
    let ts = env.t0 +. (float_of_int gen *. gen_interval_s) in
    drain ts;
    let t = now_ns () in
    ignore (Seq_tracker.Table.advance_generation env.track);
    let t = span env s_tracker t in
    let epoch = gen / epoch_gens in
    if epoch <> env.epoch then begin
      env.epoch <- epoch;
      Flow_cache.invalidate env.cache
    end;
    let t = span env s_cache t in
    let ts_ns = Clock.now_ns env.clock ~sim_time_s:ts in
    let gen64 = Int64.of_int gen in
    (* Scan: which flows send this generation, at which sequence. *)
    let n =
      if uniform then begin
        Array.iteri
          (fun i f ->
            env.send_flow.(i) <- f;
            env.send_sidx.(i) <- gen)
          my_flows;
        Array.length my_flows
      end
      else begin
        let n = ref 0 in
        for fi = 0 to Array.length my_flows - 1 do
          let f = Array.unsafe_get my_flows fi in
          if Load.sends_at plan ~flow:f ~gen then begin
            env.send_flow.(!n) <- f;
            env.send_sidx.(!n) <- Load.seq_index plan ~flow:f ~gen;
            incr n
          end
        done;
        !n
      end
    in
    (* The uniform fill is the benchmark's own bookkeeping: no span. *)
    let t = if uniform then now_ns () else span env s_scan t in
    (* Tracker confirms of every 8th send. *)
    for i = 0 to n - 1 do
      let sidx = env.send_sidx.(i) in
      if sidx > 8 && sidx land 7 = 0 then
        Seq_tracker.Table.confirm_below env.track
          ~key:(Array.unsafe_get env.local env.send_flow.(i))
          (Int64.of_int (sidx - 8))
    done;
    let t = span env s_tracker t in
    (* Path decisions through the flow cache. *)
    for i = 0 to n - 1 do
      let h = flow_hash.(env.send_flow.(i)) in
      env.send_path.(i) <-
        (match Flow_cache.find env.cache ~flow_hash:h with
        | Some p -> p
        | None ->
            let p = (h + epoch) mod paths in
            Flow_cache.store env.cache ~flow_hash:h p;
            p)
    done;
    let t = ref (span env s_cache t) in
    env.offered <- env.offered + n;
    (* Synthetic drop, packet build and encap, batch by batch. *)
    for i = 0 to n - 1 do
      let f = env.send_flow.(i) in
      let h = flow_hash.(f) in
      if synthetic_drop ~flow_hash:h ~gen then env.synthetic <- env.synthetic + 1
      else begin
        let sidx = env.send_sidx.(i) in
        let path = env.send_path.(i) in
        let packet =
          Packet.create
            ~id:((gen * nflows) + f)
            ~flow:flow_of.(f) ~payload_bytes ~created_at:ts ()
        in
        Packet.encapsulate packet
          {
            Packet.outer_src = env.outer_src;
            outer_dst = env.dsts.(path);
            udp_src = 40000 + path;
            udp_dst = 4789;
            tango =
              {
                Packet.timestamp_ns = ts_ns;
                seq = (if uniform then gen64 else Int64.of_int sidx);
                path_id = path;
                flags = 0;
              };
          };
        Batch.add env.batch packet;
        if Batch.is_full env.batch then begin
          ignore (span env s_encap !t);
          flush ts;
          t := now_ns ()
        end
      end
    done;
    ignore (span env s_encap !t);
    flush ts;
    Batch.purge env.batch;
    Array.fill env.st_pkt 0 Batch.capacity dummy_packet
  done;
  drain infinity;
  let minor1, major1 = gc_words () in
  env.minor_words <- minor1 -. minor0;
  env.major_words <- major1 -. major0;
  Gc.set gc

let run_traced cfg =
  let plan =
    match plan_of cfg with
    | Some p -> p
    | None -> Load.uniform ~flows:cfg.flows ~generations:cfg.generations
  in
  let uniform = not cfg.heavy in
  let lanes = cfg.lanes in
  let first_hop_ms = if uniform then e14_first_hops else load_first_hops in
  let flows = Load.flows plan and generations = Load.generations plan in
  let carve i =
    Addressing.carve ~block:Addressing.default_block ~site_index:i
      ~path_count:paths
  in
  let src = Addressing.host_address (carve 0) 1L in
  let dst = Addressing.host_address (carve 1) 2L in
  let flow_of =
    Array.init flows (fun i ->
        Flow.v ~src ~dst ~proto:17
          ~src_port:(1024 + (i mod 60000))
          ~dst_port:(5000 + (i / 60000)))
  in
  let flow_hash = Array.map Flow.hash_5tuple flow_of in
  let flow_lane = Array.map (fun h -> Shard.lane_of_hash ~lanes h) flow_hash in
  let lane_flows =
    Array.init lanes (fun l ->
        let acc = ref [] in
        for f = flows - 1 downto 0 do
          if flow_lane.(f) = l then acc := f :: !acc
        done;
        Array.of_list !acc)
  in
  let lane_sends =
    Array.map
      (fun fs -> Array.fold_left (fun a f -> a + Load.flow_pkts plan f) 0 fs)
      lane_flows
  in
  let ring_cap = (4 * Load.max_gen_sends plan) + 8 in
  let cache_capacity = cache_capacity cfg in
  let cache_expected = match cache_capacity with Some c -> c | None -> flows in
  let envs =
    Array.init lanes (fun l ->
        let local = Array.make flows (-1) in
        Array.iteri (fun i f -> local.(f) <- i) lane_flows.(l);
        build_lane ~seed:cfg.seed ~first_hop_ms ~cache_expected ~cache_capacity
          ~ring_cap ~own_flows:(Array.length lane_flows.(l))
          ~max_sends:(min (Array.length lane_flows.(l)) (Load.max_gen_sends plan))
          ~local)
  in
  let fp_sum = ref 0 and fp_xor = ref 0 and merged = ref 0 in
  (* As in Throughput.run: the registry is frozen while lanes run. *)
  let metrics_were_enabled = Tango_obs.Metric.enabled () in
  Tango_obs.Metric.set_enabled false;
  let gc = Gc.get () in
  Gc.set { gc with Gc.minor_heap_size = 1 lsl 22 };
  Gc.full_major ();
  let t0 = now_ns () in
  let rings =
    Array.init lanes (fun l ->
        Shard.Ring.create ~capacity:(max 1 lane_sends.(l)))
  in
  let domains =
    Array.init lanes (fun l ->
        Domain.spawn (fun () ->
            lane_main envs.(l) rings.(l) ~flow_hash ~flow_of
              ~my_flows:lane_flows.(l) ~plan ~uniform ~generations))
  in
  Array.iter Domain.join domains;
  let t_merge = now_ns () in
  Shard.merge rings ~consume:(fun ~lane:_ r ->
      incr merged;
      let h = record_hash r in
      fp_sum := (!fp_sum + h) land max_int;
      fp_xor := !fp_xor lxor h);
  let t1 = now_ns () in
  Gc.set gc;
  Tango_obs.Metric.set_enabled metrics_were_enabled;
  let sum f = Array.fold_left (fun a e -> a + f e) 0 envs in
  let sumf f = Array.fold_left (fun a e -> a +. f e) 0.0 envs in
  let offered = sum (fun e -> e.offered) in
  let delivered = sum (fun e -> e.delivered) in
  let synthetic = sum (fun e -> e.synthetic) in
  let span_total s = float_of_int (sum (fun e -> e.span_ns.(s))) in
  let hits = sum (fun e -> Flow_cache.hits e.cache) in
  let misses = sum (fun e -> Flow_cache.misses e.cache) in
  let per_pkt x = if offered = 0 then 0.0 else x /. float_of_int offered in
  let problems =
    []
    |> check (offered = delivered + synthetic) "replay conservation failed"
    |> check (!merged = delivered) "replay merged <> delivered"
    |> check
         (Array.for_all (fun e -> Fabric.direct_fallbacks e.fabric = 0) envs)
         "replay left the direct fabric path"
  in
  {
    t_offered = offered;
    t_timed_s = float_of_int (t1 - t0) /. 1e9;
    t_fingerprint = Printf.sprintf "%015x-%015x" !fp_sum !fp_xor;
    t_self_ns =
      [
        ("workload.load.scan", span_total s_scan);
        ("dataplane.flow_cache", span_total s_cache);
        ("net.packet.encap", span_total s_encap);
        ("dataplane.fabric", span_total s_fabric);
        ("net.packet.decap", span_total s_decap);
        ("sim.shard.ring", span_total s_ring);
        ("dataplane.seq_tracker", span_total s_tracker);
        ("sim.shard.merge", float_of_int (t1 - t_merge));
      ];
    t_layers =
      [
        ("workload.load.scan_ns_per_pkt", per_pkt (span_total s_scan));
        ("dataplane.flow_cache.ns_per_pkt", per_pkt (span_total s_cache));
        ("net.packet.encap_ns_per_pkt", per_pkt (span_total s_encap));
        ("dataplane.fabric.ns_per_pkt", per_pkt (span_total s_fabric));
        ("net.packet.decap_ns_per_pkt", per_pkt (span_total s_decap));
        ("sim.shard.ring_ns_per_pkt", per_pkt (span_total s_ring));
        ("dataplane.seq_tracker.ns_per_pkt", per_pkt (span_total s_tracker));
        ("sim.shard.merge_ns_per_pkt", per_pkt (float_of_int (t1 - t_merge)));
        ("dataplane.flow_cache.hit_rate", ratio hits (hits + misses));
        ( "dataplane.flow_cache.evictions_per_pkt",
          per_pkt (float_of_int (sum (fun e -> Flow_cache.evictions e.cache))) );
        ( "dataplane.seq_tracker.resident_peak",
          float_of_int (sum (fun e -> Seq_tracker.Table.resident_peak e.track)) );
        ("gc.minor_words_per_pkt", per_pkt (sumf (fun e -> e.minor_words)));
        ("gc.major_words_per_pkt", per_pkt (sumf (fun e -> e.major_words)));
      ];
    t_problems = problems;
  }
