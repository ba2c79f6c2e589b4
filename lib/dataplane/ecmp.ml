type lanes = float array

let uniform_lanes ~count ~spread_ms =
  if count < 1 then Err.invalid "Ecmp.uniform_lanes: need at least one lane";
  if spread_ms < 0.0 then Err.invalid "Ecmp.uniform_lanes: negative spread";
  Array.init count (fun i -> float_of_int i *. spread_ms)

let select lanes ~salt flow =
  let n = Array.length lanes in
  if n = 0 then Err.invalid "Ecmp.select: no lanes";
  Tango_net.Flow.hash_5tuple ~salt flow mod n

(* A single lane needs no hash: every flow lands on it. *)
let lane_delay_ms lanes ~salt packet =
  match Array.length lanes with
  | 0 -> Err.invalid "Ecmp.lane_delay_ms: no lanes"
  | 1 -> lanes.(0)
  | n -> lanes.(Tango_net.Packet.forwarding_hash ~salt packet mod n)
