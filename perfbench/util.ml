(* Shared helpers: the span clock, medians, process memory, and the
   small JSON printer the result lines use. *)

(* Monotonic nanoseconds (bechamel's clock_gettime stub, allocation-free). *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

let median xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Set-up is short next to the timed phase, so each repetition samples
   it this many times and keeps the median. *)
let setup_samples = 5

let median_of_samples f = median (List.init setup_samples (fun _ -> f ()))

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* Peak resident set of this process (VmHWM), in MiB; 0 when /proc is
   unreadable. *)
let rss_peak_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.0)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* Words allocated on the calling domain's minor and major heaps. The
   minor count is exact; Gc.quick_stat's counters advance only at
   collections, so the major figure is as of the last one. *)
let gc_words () = (Gc.minor_words (), (Gc.quick_stat ()).Gc.major_words)

(* --- JSON output --------------------------------------------------- *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Obj of (string * json) list

let rec to_json = function
  | Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
      else if Float.is_finite f then Printf.sprintf "%.17g" f
      else "null"
  | Int i -> string_of_int i
  | Str s -> Printf.sprintf "%S" s
  | Bool b -> string_of_bool b
  | Obj kvs ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (to_json v)) kvs)
      ^ "}"

(* --- One repetition of a workload ---------------------------------- *)

type rep = {
  offered : int;  (** packets (frames) the workload put on the wire *)
  delivered : int;
  timed_s : float;  (** wall time of the timed phase *)
  setup_s : float;  (** wall time of everything before it *)
  owd_mean_ms : float;  (** virtual one-way delay of delivered traffic *)
  fingerprint : string;  (** the workload's own digest of its outputs *)
  problems : string list;  (** failed output checks, empty when correct *)
}

(* A traced repetition: the same work through the benchmark's own
   replay of the workload, with per-layer spans and counts. *)
type traced = {
  t_offered : int;
  t_timed_s : float;  (** wall time of the timed phase, spans included *)
  t_fingerprint : string;
  t_self_ns : (string * float) list;
      (** self time of each span, summed over the run (and over lanes) *)
  t_layers : (string * float) list;  (** every other per-layer figure *)
  t_problems : string list;
}

let check cond msg acc = if cond then acc else msg :: acc

(* The engine's event counter lives in the obs registry, which is off
   unless a caller turns it on. Traced runs turn it on around the
   engine run; its cost is part of the measured trace overhead. *)
let with_registry on f =
  let was = Tango_obs.Metric.enabled () in
  Tango_obs.Metric.set_enabled (was || on);
  Fun.protect ~finally:(fun () -> Tango_obs.Metric.set_enabled was) f
