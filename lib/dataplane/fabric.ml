module Network = Tango_bgp.Network
module Route = Tango_bgp.Route
module Topology = Tango_topo.Topology
module Link = Tango_topo.Link
module Engine = Tango_sim.Engine
module Rng = Tango_sim.Rng
module Packet = Tango_net.Packet
module Metric = Tango_obs.Metric
module Trace = Tango_obs.Trace

(* Process-wide observability (aggregated across fabrics; see DESIGN.md
   §8). Drop counters are indexed by the same codes [send] passes to
   the trace records. *)
let m_sent = Metric.counter ~help:"Packets entering the fabric" "fabric_packets_sent_total"

let m_delivered =
  Metric.counter ~help:"Packets delivered to an edge node" "fabric_packets_delivered_total"

let m_forwarded =
  Metric.counter ~help:"Per-hop forwards scheduled" "fabric_packets_forwarded_total"

let m_dropped =
  Metric.counter ~help:"Packets dropped, any reason" "fabric_packets_dropped_total"

let drop_ttl = 0

let drop_unroutable = 1

let drop_link_failure = 2

let drop_loss = 3

let drop_queue_overflow = 4

let drop_fault = 5

let drop_counters =
  [|
    Metric.counter ~help:"Drops: hop limit exceeded" "fabric_drops_ttl_total";
    Metric.counter ~help:"Drops: no route" "fabric_drops_unroutable_total";
    Metric.counter ~help:"Drops: failed link" "fabric_drops_link_failure_total";
    Metric.counter ~help:"Drops: random link loss" "fabric_drops_loss_total";
    Metric.counter ~help:"Drops: queue-delay bound exceeded"
      "fabric_drops_queue_overflow_total";
    Metric.counter ~help:"Drops: injected fault loss (lib/faults brownout)"
      "fabric_drops_fault_total";
  |]

let h_queue_wait =
  Metric.histogram ~help:"Per-link transmitter queueing delay (seconds)"
    ~lo_exp:(-20) ~buckets:24 "fabric_queue_wait_seconds"

let k_drop = Trace.kind "fabric.drop"

let k_deliver = Trace.kind "fabric.deliver"

(* Resolved end-to-end route, the unit of the direct path: the
   full node walk for one (from, dst) pair with its delay terms
   pre-summed. [plain] marks routes with no stochastic terms anywhere
   (zero jitter, zero loss on every link) — only those can skip the
   hop-by-hop machinery, because their delivery time is a closed-form
   function of the send time and the packet size. *)
type route_entry = {
  e_from : int;
  e_dst : Tango_net.Addr.t;
  e_dest : int;  (* delivering node; -1 when unresolvable *)
  e_links : int array;  (* packed directed-link keys, send order *)
  e_delay_s : float;  (* sum of link propagation delays *)
  e_per_byte_s : float;  (* sum of per-byte transmission delays *)
  e_plain : bool;
}

type t = {
  net : Network.t;
  rng : Rng.t;
  lanes_of : int -> Ecmp.lanes;
  extra_delay_ms : from_node:int -> to_node:int -> time_s:float -> float;
  (* Whether the caller supplied lanes_of/extra_delay_ms hooks: hooked
     fabrics never take the direct path (the hooks are per-hop and
     per-packet by contract). *)
  custom_hooks : bool;
  (* Batched-route cache, validated against Network.revision: filled
     lazily per (from, dst), flushed whenever any BGP table may have
     changed. A handful of slots suffices — a PoP talks to a handful of
     tunnel endpoints. *)
  route_cache : route_entry option array;
  mutable route_rev : int;
  mutable route_clock : int;
  walk : int array;  (* node walk of [resolve_route], one slot per hop *)
  (* Counters for the synchronous direct path, which must not touch the
     process-wide Metric registry (lanes run on their own domains):
     published into the registry at quiesce points. *)
  mutable direct_sent : int;
  mutable direct_delivered : int;
  mutable published_sent : int;
  mutable published_delivered : int;
  mutable direct_fallbacks : int;
  (* Per-directed-link state lives in flat arrays indexed by the packed
     key [index from * node_count + index to] — O(1) with no tuple
     allocation or polymorphic hashing on the per-packet path. Node ids
     reach into the thousands (transit ids are ASNs), so they are first
     mapped to dense indexes (-1: no such node) and the arrays are sized
     by the node count. *)
  node_index : int array;
  node_count : int;
  failed_links : Bytes.t;
  (* Bandwidth contention (optional): per directed link, when its
     transmitter frees up. Allocated only when [max_queue_s] is set. *)
  max_queue_s : float option;
  busy_until : float array;
  (* Fault-injection hooks (lib/faults): per-directed-link extra drop
     probability and extra one-way delay, both dynamic. All per-packet
     checks are gated behind [fault_count > 0], so the fault-free fast
     path pays exactly one load and one branch — and the arrays stay
     unallocated (zero-length) until the first [set_link_fault], so a
     fault-free fabric costs nothing at all. *)
  mutable fault_count : int;
  mutable fault_set : Bytes.t;
  mutable fault_loss : float array;
  mutable fault_extra : (time_s:float -> float) array;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
}

let no_lanes = [| 0.0 |]

let no_fault_extra_ms ~time_s:_ = 0.0

let route_cache_slots = 16

let hop_limit = 64

let create ?(seed = 4242) ?lanes_of ?extra_delay_ms ?max_queue_s net =
  (match max_queue_s with
  | Some q when q < 0.0 -> Err.invalid "Fabric.create: negative queue bound"
  | Some _ | None -> ());
  let custom_hooks = Option.is_some lanes_of || Option.is_some extra_delay_ms in
  let lanes_of =
    match lanes_of with Some f -> f | None -> fun _ -> no_lanes
  in
  let extra_delay_ms =
    match extra_delay_ms with
    | Some f -> f
    | None -> fun ~from_node:_ ~to_node:_ ~time_s:_ -> 0.0
  in
  let nodes = Topology.nodes (Network.topology net) in
  let node_index =
    Array.make
      (1 + List.fold_left (fun m (n : Topology.node) -> max m n.Topology.id) (-1) nodes)
      (-1)
  in
  List.iteri
    (fun i (n : Topology.node) ->
      if n.Topology.id >= 0 then node_index.(n.Topology.id) <- i)
    nodes;
  let node_count = List.length nodes in
  {
    net;
    rng = Rng.create ~seed;
    lanes_of;
    extra_delay_ms;
    custom_hooks;
    route_cache = Array.make route_cache_slots None;
    route_rev = -1;
    route_clock = 0;
    walk = Array.make (hop_limit + 1) 0;
    direct_sent = 0;
    direct_delivered = 0;
    published_sent = 0;
    published_delivered = 0;
    direct_fallbacks = 0;
    node_index;
    node_count;
    failed_links = Bytes.make (node_count * node_count) '\000';
    max_queue_s;
    busy_until =
      (match max_queue_s with
      | Some _ -> Array.make (node_count * node_count) neg_infinity
      | None -> [||]);
    fault_count = 0;
    fault_set = Bytes.empty;
    fault_loss = [||];
    fault_extra = [||];
    sent = 0;
    delivered = 0;
    dropped = 0;
  }

let index_of t id =
  if id < 0 || id >= Array.length t.node_index then -1 else t.node_index.(id)

let[@hot] link_key t ~from_node ~to_node =
  let a = index_of t from_node and b = index_of t to_node in
  if a < 0 || b < 0 then
    Err.invalid "Fabric: link %d -> %d outside the topology" from_node
         to_node;
  (a * t.node_count) + b

let network t = t.net

let drop t packet on_dropped reason code =
  t.dropped <- t.dropped + 1;
  Metric.incr m_dropped;
  Metric.incr drop_counters.(code);
  Trace.record Trace.default ~now:(Engine.now (Network.engine t.net)) ~kind:k_drop
    packet.Packet.id code;
  on_dropped ~reason packet

let deliver t packet on_delivered node =
  t.delivered <- t.delivered + 1;
  Metric.incr m_delivered;
  Trace.record Trace.default ~now:(Engine.now (Network.engine t.net))
    ~kind:k_deliver packet.Packet.id node;
  on_delivered ~node packet

(* One hop of [send], run on the packet's arrival at [node]: resolve the
   next hop from the node's FIB, then [forward] schedules the arrival at
   the next node as an engine event. The packet and both callbacks ride
   along as arguments, so a hop allocates one event continuation and no
   per-send closures. *)
let rec at_node t packet on_dropped on_delivered node hops =
  if hops > hop_limit then drop t packet on_dropped "ttl" drop_ttl
  else
    match Network.route_for_addr t.net ~node (Packet.forwarding_dst packet) with
    | None -> drop t packet on_dropped "unroutable" drop_unroutable
    | Some route -> (
        if Route.local route then deliver t packet on_delivered node
        else
          match route.Route.learned_from with
          | None -> deliver t packet on_delivered node
          | Some next -> forward t packet on_dropped on_delivered node next hops)

and forward t packet on_dropped on_delivered node next hops =
  match Topology.link (Network.topology t.net) node next with
  | None -> drop t packet on_dropped "unroutable" drop_unroutable
  | Some link ->
      let key = link_key t ~from_node:node ~to_node:next in
      if Bytes.get t.failed_links key <> '\000' then
        drop t packet on_dropped "link-failure" drop_link_failure
      else if link.Link.loss > 0.0 && Rng.float t.rng 1.0 < link.Link.loss then
        drop t packet on_dropped "loss" drop_loss
      else if
        t.fault_count > 0
        && t.fault_loss.(key) > 0.0
        && Rng.float t.rng 1.0 < t.fault_loss.(key)
      then drop t packet on_dropped "fault-loss" drop_fault
      else begin
        let engine = Network.engine t.net in
        let jitter =
          if link.Link.jitter_ms > 0.0 then
            Float.max 0.0 (Rng.gaussian t.rng ~mean:0.0 ~std:link.Link.jitter_ms)
          else 0.0
        in
        let lane = Ecmp.lane_delay_ms (t.lanes_of next) ~salt:next packet in
        let now_s = Engine.now engine in
        let dynamic =
          t.extra_delay_ms ~from_node:node ~to_node:next ~time_s:now_s
        in
        let fault_ms =
          if t.fault_count > 0 then t.fault_extra.(key) ~time_s:now_s else 0.0
        in
        let transmission_s =
          Link.transmission_delay_ms link ~bytes:(Packet.wire_size packet)
          /. 1000.0
        in
        (* Optional FIFO contention: wait for the transmitter, drop on
           overflow (tail drop against the queue-delay bound). The wait
           is never negative, so -1 marks an overflow. *)
        let queueing_s =
          match t.max_queue_s with
          | None -> 0.0
          | Some bound ->
              let free_at = Float.max now_s t.busy_until.(key) in
              let wait = free_at -. now_s in
              if wait > bound then -1.0
              else begin
                t.busy_until.(key) <- free_at +. transmission_s;
                Metric.observe h_queue_wait wait;
                wait
              end
        in
        if queueing_s < 0.0 then
          drop t packet on_dropped "queue-overflow" drop_queue_overflow
        else begin
          let delay_s =
            ((link.Link.delay_ms +. jitter +. lane +. dynamic +. fault_ms)
            /. 1000.0)
            +. transmission_s +. queueing_s
          in
          Metric.incr m_forwarded;
          (* tango-lint: allow hot-reach — event-engine continuation: one closure per scheduled hop *)
          Engine.schedule engine ~delay:(Float.max 0.0 delay_s) (fun _ ->
              at_node t packet on_dropped on_delivered next (hops + 1))
        end
      end

let drop_ignored ~reason:_ _ = ()

let[@hot] send t ~from_node ?(on_dropped = drop_ignored) ~on_delivered packet =
  t.sent <- t.sent + 1;
  Metric.incr m_sent;
  at_node t packet on_dropped on_delivered from_node 0

(* ------------------------------------------------------------------ *)
(* Direct batched sends for the multicore lanes (DESIGN.md §11).

   [send] resolves the route hop by hop, on arrival, with one scheduled
   engine event per hop. The lanes run off the main domain, with no
   engine, so [send_batch_direct] instead snapshots the whole route once
   per (from, dst) pair and reuses it for every packet of every batch
   until the control plane changes ([Network.revision] moves). Arrival
   time is then a closed-form function of the send time and the packet
   size. That is only sound when nothing along the route is stochastic
   or dynamic, so eligibility is checked at three levels:

   - per fabric: no fault hooks installed, no queueing model, no custom
     lanes_of/extra_delay_ms hooks;
   - per route: every link has zero jitter and zero loss ([e_plain]);
   - per batch: no failed link along the snapshot.

   A packet that fails any of them is not forwarded: it is counted in
   [direct_fallbacks] and handed to [on_dropped] with reason
   ["not-plain"]. Lane pipelines probe every route with [route_plain]
   at setup, so the count stays zero. *)

let no_addr = Tango_net.Addr.of_string_exn "::"

let empty_route =
  {
    e_from = -1;
    e_dst = no_addr;
    e_dest = -1;
    e_links = [||];
    e_delay_s = 0.0;
    e_per_byte_s = 0.0;
    e_plain = false;
  }

(* Walk the converged tables from [node] toward [dst], writing the nodes
   visited into [t.walk] from index [hops]. Returns the index of the
   delivering node, or -1 when the walk dead-ends or exceeds the hop
   limit. *)
let rec walk_route t dst node hops =
  if hops > hop_limit then -1
  else begin
    t.walk.(hops) <- node;
    match Network.route_for_addr t.net ~node dst with
    | None -> -1
    | Some route -> (
        if Route.local route then hops
        else
          match route.Route.learned_from with
          | None -> hops
          | Some next ->
              if Option.is_none (Topology.link (Network.topology t.net) node next)
              then -1
              else walk_route t dst next (hops + 1))
  end

(* The route entry for (from, dst), with the deterministic delay terms
   summed along the walk. Unroutable and over-limit walks yield a
   non-plain entry. *)
let resolve_route t ~from_node ~dst =
  let topo = Network.topology t.net in
  let last = walk_route t dst from_node 0 in
  let links = Array.make (max last 0) 0 in
  let delay_s = ref 0.0 and per_byte_s = ref 0.0 and plain = ref (last >= 0) in
  for i = 0 to last - 1 do
    let node = t.walk.(i) and next = t.walk.(i + 1) in
    links.(i) <- link_key t ~from_node:node ~to_node:next;
    match Topology.link topo node next with
    | None -> ()
    | Some link ->
        delay_s := !delay_s +. (link.Link.delay_ms /. 1000.0);
        per_byte_s := !per_byte_s +. (8.0 /. (link.Link.bandwidth_mbps *. 1e6));
        if link.Link.jitter_ms > 0.0 || link.Link.loss > 0.0 then plain := false
  done;
  (* tango-lint: allow hot-reach — route-cache miss: 0 on pair-fig4 (seed 1), 1 per 549 k fabric sends on E1–E13 (seed 42) *)
  {
    e_from = from_node;
    e_dst = dst;
    e_dest = (if last < 0 then -1 else t.walk.(last));
    e_links = links;
    e_delay_s = !delay_s;
    e_per_byte_s = !per_byte_s;
    e_plain = !plain;
  }

let[@hot] batch_eligible t =
  t.fault_count = 0 && Option.is_none t.max_queue_s && not t.custom_hooks

(* Flush the route cache whenever the control plane may have moved.
   Called once per batch, not per packet. *)
let[@hot] revalidate_routes t =
  let rev = Network.revision t.net in
  if rev <> t.route_rev then begin
    Array.fill t.route_cache 0 route_cache_slots None;
    t.route_rev <- rev
  end

let[@hot] rec lookup_route t ~from_node ~dst slot =
  if slot >= route_cache_slots then begin
    let entry = resolve_route t ~from_node ~dst in
    t.route_cache.(t.route_clock) <- Some entry;
    t.route_clock <- (t.route_clock + 1) mod route_cache_slots;
    entry
  end
  else
    match Array.unsafe_get t.route_cache slot with
    | Some e when e.e_from = from_node && Tango_net.Addr.equal e.e_dst dst -> e
    | Some _ | None -> lookup_route t ~from_node ~dst (slot + 1)

let[@hot] rec links_ok_from t links i =
  i >= Array.length links
  || Bytes.unsafe_get t.failed_links (Array.unsafe_get links i) = '\000'
     && links_ok_from t links (i + 1)

let route_plain t ~from_node ~dst =
  batch_eligible t
  &&
  begin
    revalidate_routes t;
    let e = lookup_route t ~from_node ~dst 0 in
    e.e_plain && links_ok_from t e.e_links 0
  end

let[@hot] send_batch_direct t ~from_node ~now_s ?(on_dropped = drop_ignored)
    ~on_delivered_at batch =
  let eligible = batch_eligible t in
  if eligible then revalidate_routes t;
  for i = 0 to Batch.length batch - 1 do
    let packet = Batch.get batch i in
    let e =
      if eligible then
        lookup_route t ~from_node ~dst:(Packet.forwarding_dst packet) 0
      else empty_route
    in
    if e.e_plain && links_ok_from t e.e_links 0 then begin
      t.sent <- t.sent + 1;
      t.direct_sent <- t.direct_sent + 1;
      let arrival =
        now_s +. e.e_delay_s
        +. (float_of_int (Packet.wire_size packet) *. e.e_per_byte_s)
      in
      t.delivered <- t.delivered + 1;
      t.direct_delivered <- t.direct_delivered + 1;
      on_delivered_at ~node:e.e_dest ~at_s:arrival packet
    end
    else begin
      t.direct_fallbacks <- t.direct_fallbacks + 1;
      on_dropped ~reason:"not-plain" packet
    end
  done

let direct_fallbacks t = t.direct_fallbacks

(* Publish the direct-path deltas into the process-wide registry.
   Idempotent; call only at quiesce points (after every lane domain has
   been joined), never while lanes run. *)
let quiesce_metrics t =
  let ds = t.direct_sent - t.published_sent in
  let dd = t.direct_delivered - t.published_delivered in
  if ds > 0 then Metric.add m_sent ds;
  if dd > 0 then Metric.add m_delivered dd;
  t.published_sent <- t.direct_sent;
  t.published_delivered <- t.direct_delivered

let fail_link t ~from_node ~to_node =
  Bytes.set t.failed_links (link_key t ~from_node ~to_node) '\001'

let heal_link t ~from_node ~to_node =
  Bytes.set t.failed_links (link_key t ~from_node ~to_node) '\000'

let link_failed t ~from_node ~to_node =
  Bytes.get t.failed_links (link_key t ~from_node ~to_node) <> '\000'

(* ------------------------------------------------------------------ *)
(* Fault-injection hooks (driven by lib/faults).                        *)

let ensure_fault_arrays t =
  if Array.length t.fault_loss = 0 then begin
    let n = t.node_count * t.node_count in
    t.fault_set <- Bytes.make n '\000';
    t.fault_loss <- Array.make n 0.0;
    t.fault_extra <- Array.make n no_fault_extra_ms
  end

let set_link_fault t ~from_node ~to_node ?(loss = 0.0) ?extra_delay_ms () =
  if loss < 0.0 || loss > 1.0 then
    Err.invalid "Fabric.set_link_fault: loss %g outside [0,1]" loss;
  ensure_fault_arrays t;
  let key = link_key t ~from_node ~to_node in
  if Bytes.get t.fault_set key = '\000' then begin
    Bytes.set t.fault_set key '\001';
    t.fault_count <- t.fault_count + 1
  end;
  t.fault_loss.(key) <- loss;
  t.fault_extra.(key) <-
    (match extra_delay_ms with Some f -> f | None -> no_fault_extra_ms)

let clear_link_fault t ~from_node ~to_node =
  let key = link_key t ~from_node ~to_node in
  if Array.length t.fault_loss > 0 then begin
    if Bytes.get t.fault_set key <> '\000' then begin
      Bytes.set t.fault_set key '\000';
      t.fault_count <- t.fault_count - 1
    end;
    t.fault_loss.(key) <- 0.0;
    t.fault_extra.(key) <- no_fault_extra_ms
  end

let clear_faults t =
  Bytes.fill t.fault_set 0 (Bytes.length t.fault_set) '\000';
  Array.fill t.fault_loss 0 (Array.length t.fault_loss) 0.0;
  Array.fill t.fault_extra 0 (Array.length t.fault_extra) no_fault_extra_ms;
  t.fault_count <- 0

let fault_count t = t.fault_count

let link_fault_loss t ~from_node ~to_node =
  if t.fault_count = 0 then 0.0 else t.fault_loss.(link_key t ~from_node ~to_node)

let[@hot] link_fault_extra_ms t ~from_node ~to_node ~time_s =
  if t.fault_count = 0 then 0.0
  else t.fault_extra.(link_key t ~from_node ~to_node) ~time_s

let sent t = t.sent

let delivered t = t.delivered

let dropped t = t.dropped
