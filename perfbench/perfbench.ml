(* One workload of the benchmark per invocation.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--size full|tiny]

   Untraced (--trace 0): repeat the workload through its public entry
   point until S seconds have passed (at least [min_reps] times), check
   every repetition's outputs, and print the end-to-end metrics —
   medians over repetitions for wall-clock figures. Traced (--trace 1):
   alternate untraced repetitions with the benchmark's own traced
   replay of the same workload, check that both produce the same
   fingerprint, and print the per-layer metrics. The last line of
   standard output is the JSON result; the line before it carries the
   run's metadata. *)

open Util

let workloads = [ "lanes-blast"; "lanes-heavytail"; "mesh-attest-kill"; "pair-fig4" ]

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;
}

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
     [--size full|tiny]";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and tiny = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        go rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
        go rest
    | "--size" :: v :: rest ->
        (match v with "full" -> tiny := false | "tiny" -> tiny := true | _ -> usage ());
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload; known: " ^ String.concat ", " workloads);
    exit 2
  end;
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace when seed >= 0 && seconds > 0.0 ->
      { workload = !workload; seed; seconds; trace; tiny = !tiny }
  | _ -> usage ()

(* --- Workloads ------------------------------------------------------ *)

type workload = {
  lanes : int;
  untraced : unit -> rep;
  traced : unit -> traced;
  virtual_owd_ms : rep -> float;
      (** the OWD figure, from a rep or, where the entry point does not
          return it, from one untimed replay *)
  extra_checks : rep -> string list;
      (** one-off cross-checks of the untraced outputs *)
}

let lanes_workload o ~heavy =
  let cfg =
    if heavy then
      {
        Lanes.lanes = 1;
        (* 20k flows (the E16 smoke point): beyond the 2 MiB per-core L2.
           At 10^5 flows the run is bound on memory latency, and on a
           shared host its pps spread 13-29% across seeds, over the bound. *)
        flows = (if o.tiny then 4_000 else 20_000);
        generations = (if o.tiny then 300 else 2_000);
        seed = o.seed;
        heavy;
      }
    else
      {
        Lanes.lanes = 2;
        flows = (if o.tiny then 64 else 512);
        (* The seed picks the horizon within one 100-generation path
           rotation cycle, so each seed ends at a different epoch phase. *)
        generations = (if o.tiny then 300 else 4_000) + (o.seed mod 100);
        seed = o.seed;
        heavy;
      }
  in
  {
    lanes = cfg.Lanes.lanes;
    untraced = (fun () -> Lanes.run cfg);
    traced = (fun () -> Lanes.run_traced cfg);
    virtual_owd_ms = (fun r -> r.owd_mean_ms);
    extra_checks = (fun _ -> []);
  }

let mesh_workload o =
  let cfg =
    {
      Relay_mesh.pops = (if o.tiny then 16 else 128);
      (* One topology (Mesh.run's default seed): across topologies the
         mean frame delay alone moves by 10%, which would swamp the
         bounds. The workload seed moves the kill instant within one
         20 ms send interval instead. *)
      seed = 42;
      duration_s = (if o.tiny then 12.0 else 200.0);
      kill_at_s = 5.0 +. (0.001 *. float_of_int (o.seed mod 20));
    }
  in
  let replay = lazy (Relay_mesh.run_replay ~traced:false cfg) in
  {
    lanes = 1;
    untraced = (fun () -> Relay_mesh.run cfg);
    traced = (fun () -> (Relay_mesh.run_replay ~traced:true cfg).Relay_mesh.traced);
    virtual_owd_ms = (fun _ -> (Lazy.force replay).Relay_mesh.owd_mean_ms);
    extra_checks =
      (fun r ->
        let p = Lazy.force replay in
        []
        |> check
             (p.Relay_mesh.fingerprint = r.fingerprint)
             "module-level replay fingerprint <> Mesh.run fingerprint"
        |> check (p.Relay_mesh.sent = r.offered) "replay sent <> Mesh.run sent");
  }

let pair_workload o =
  let cfg =
    { Pair_fig4.seed = o.seed; horizon_s = (if o.tiny then 10.0 else 120.0) }
  in
  {
    lanes = 1;
    untraced = (fun () -> (Pair_fig4.run ~traced:false cfg).Pair_fig4.rep);
    traced = (fun () -> (Pair_fig4.run ~traced:true cfg).Pair_fig4.traced);
    virtual_owd_ms = (fun r -> r.owd_mean_ms);
    extra_checks = (fun _ -> []);
  }

let workload_of o =
  match o.workload with
  | "lanes-blast" -> lanes_workload o ~heavy:false
  | "lanes-heavytail" -> lanes_workload o ~heavy:true
  | "mesh-attest-kill" -> mesh_workload o
  | _ -> pair_workload o

(* --- Metric tables --------------------------------------------------- *)

let end_to_end =
  [
    ("pps", "1/s");
    ("setup_s", "s");
    ("delivered_frac", "frac");
    ("owd_mean_ms", "ms");
    ("rss_peak_mb", "MiB");
  ]

let per_layer =
  [
    ("workload.load.scan_ns_per_pkt", "ns");
    ("dataplane.flow_cache.ns_per_pkt", "ns");
    ("dataplane.flow_cache.hit_rate", "frac");
    ("dataplane.flow_cache.evictions_per_pkt", "count");
    ("dataplane.seq_tracker.ns_per_pkt", "ns");
    ("dataplane.seq_tracker.resident_peak", "count");
    ("net.packet.encap_ns_per_pkt", "ns");
    ("net.packet.decap_ns_per_pkt", "ns");
    ("dataplane.fabric.ns_per_pkt", "ns");
    ("sim.shard.ring_ns_per_pkt", "ns");
    ("sim.shard.merge_ns_per_pkt", "ns");
    ("gc.minor_words_per_pkt", "words");
    ("gc.major_words_per_pkt", "words");
    ("mesh.relay.send_ns_per_frame", "ns");
    ("mesh.relay.hops_per_frame", "count");
    ("mesh.relay.reroutes_per_frame", "count");
    ("mesh.control.msgs_per_frame", "count");
    ("mesh.setup.topo_arbor_s", "s");
    ("sim.engine.ns_per_event", "ns");
    ("sim.engine.events_per_pkt", "count");
    ("core.pop.send_app_ns", "ns");
    ("dataplane.fabric.sent_per_app_pkt", "count");
    ("core.policy.switches", "count");
    ("residue_frac", "frac");
    ("trace.overhead_frac", "frac");
  ]

(* --- Driving a run --------------------------------------------------- *)

let min_reps = 3

let pps_of r = float_of_int r.offered /. r.timed_s

(* The checks of one untraced repetition: its own output checks, plus
   the same fingerprint and delivered count as the first repetition. *)
let rep_problems ~first r =
  List.map (fun p -> "check: " ^ p) r.problems
  |> check (r.fingerprint = first.fingerprint)
       (Printf.sprintf "fingerprint %s <> first repetition's %s" r.fingerprint
          first.fingerprint)
  |> check (r.delivered = first.delivered)
       "delivered count differs between repetitions"

(* A traced repetition must do the same work as the untraced one. *)
let trace_problems ~first t =
  List.map (fun p -> "traced: " ^ p) t.t_problems
  |> check (t.t_fingerprint = first.fingerprint)
       (Printf.sprintf "traced fingerprint %s <> untraced %s" t.t_fingerprint
          first.fingerprint)

let untraced_metrics w reps =
  let first = List.hd reps in
  [
    ("pps", median (List.map pps_of reps));
    ("setup_s", median (List.map (fun r -> r.setup_s) reps));
    ("delivered_frac", float_of_int first.delivered /. float_of_int first.offered);
    ("owd_mean_ms", w.virtual_owd_ms first);
    ("rss_peak_mb", rss_peak_mb ());
  ]

let traced_metrics w reps traces =
  let med_layer name =
    median
      (List.map
         (fun t -> try List.assoc name t.t_layers with Not_found -> 0.0)
         traces)
  in
  let pps_u = median (List.map pps_of reps) in
  let pps_t =
    median (List.map (fun t -> float_of_int t.t_offered /. t.t_timed_s) traces)
  in
  (* End-to-end cost per packet in lane-nanoseconds (lanes x wall), so
     it compares with self times summed over lanes. *)
  let e2e_ns = float_of_int w.lanes *. 1e9 /. pps_u in
  let self_ns =
    median
      (List.map
         (fun t ->
           List.fold_left (fun a (_, ns) -> a +. ns) 0.0 t.t_self_ns
           /. float_of_int t.t_offered)
         traces)
  in
  List.map
    (fun (name, _) ->
      match name with
      | "residue_frac" -> (name, (e2e_ns -. self_ns) /. e2e_ns)
      | "trace.overhead_frac" -> (name, 1.0 -. (pps_t /. pps_u))
      | _ -> (name, med_layer name))
    per_layer

let metadata o w ~reps ~traces =
  Obj
    [
      ( "meta",
        Obj
          [
            ("workload", Str o.workload);
            ("seed", Int o.seed);
            ("size", Str (if o.tiny then "tiny" else "full"));
            ("trace", Bool o.trace);
            ("lanes", Int w.lanes);
            ("recommended_domain_count", Int (Domain.recommended_domain_count ()));
            ("ocaml_version", Str Sys.ocaml_version);
            ("repetitions", Int reps);
            ("traced_repetitions", Int traces);
          ] );
    ]

let () =
  let o = parse_args () in
  let w = workload_of o in
  let t_start = now_ns () in
  let elapsed () = seconds_since t_start in
  let reps = ref [] and traces = ref [] in
  (* Untraced repetitions until the time is up; traced runs interleave
     one traced replay after every untraced repetition. *)
  while
    elapsed () < o.seconds
    || List.length !reps < min_reps
    || (o.trace && List.length !traces < min_reps)
  do
    (* Collect the previous repetition's garbage first, so no repetition's
       set-up or timed phase pays to sweep it. *)
    Gc.full_major ();
    reps := !reps @ [ w.untraced () ];
    if o.trace then begin
      Gc.full_major ();
      traces := !traces @ [ w.traced () ]
    end
  done;
  let reps = !reps and traces = !traces in
  let first = List.hd reps in
  (* One entry per operation: every repetition, traced or not, and the
     workload's one-off cross-check of the untraced outputs. *)
  let operations =
    List.map (rep_problems ~first) reps
    @ List.map (trace_problems ~first) traces
    @ [ w.extra_checks first ]
  in
  let problems = List.concat operations in
  List.iter (fun p -> prerr_endline ("FAILED " ^ p)) problems;
  let metrics =
    if o.trace then traced_metrics w reps traces
    else untraced_metrics w reps
  in
  let units = if o.trace then per_layer else end_to_end in
  let attempted = List.length operations in
  let failed = List.length (List.filter (fun ps -> ps <> []) operations) in
  print_endline
    (to_json
       (Obj
          [
            ( "info",
              Obj
                [
                  ("fingerprint", Str first.fingerprint);
                  ("offered", Int first.offered);
                  ("delivered", Int first.delivered);
                  ( "pps_per_repetition",
                    Str
                      (String.concat " "
                         (List.map (fun r -> Printf.sprintf "%.0f" (pps_of r)) reps)) );
                ] );
          ]));
  print_endline
    (to_json (metadata o w ~reps:(List.length reps) ~traces:(List.length traces)));
  print_endline
    (to_json
       (Obj
          [
            ("correct", Bool (problems = []));
            ("attempted", Int attempted);
            ("failed", Int failed);
            ( "metrics",
              Obj
                (List.map
                   (fun (name, unit) ->
                     (name, Obj [ ("value", Num (List.assoc name metrics)); ("unit", Str unit) ]))
                   units) );
          ]))
