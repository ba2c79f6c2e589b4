type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* SplitMix64 output function: state advances by the golden gamma, the
   mixed value is returned. *)
let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let seed = bits64 t in
  { state = seed }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's native int non-negatively. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 uniformly random mantissa bits. *)
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (v /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L

(* A uniform draw in (1e-300, 1], safe to take the log of. *)
let rec positive_uniform t =
  let u = float t 1.0 in
  if u <= 1e-300 then positive_uniform t else u

let gaussian t ~mean ~std =
  let u1 = positive_uniform t in
  let u2 = float t 1.0 in
  let r = sqrt (-2.0 *. log u1) in
  mean +. (std *. r *. cos (2.0 *. Float.pi *. u2))

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  let rec draw () =
    let u = float t 1.0 in
    if u <= 1e-300 then draw () else u
  in
  -.log (draw ()) /. rate

let pareto t ~scale ~shape =
  if scale <= 0.0 || shape <= 0.0 then
    invalid_arg "Rng.pareto: scale and shape must be positive";
  let rec draw () =
    let u = float t 1.0 in
    if u <= 1e-300 then draw () else u
  in
  scale /. (draw () ** (1.0 /. shape))

let choice t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choice: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
