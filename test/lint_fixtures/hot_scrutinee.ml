(* Tuple scrutinees: [match (a, b) with] is matched component-wise and
   never built, so it must not flag. A tuple that is bound, returned or
   bound whole by a case still allocates and must flag. *)

type addr = V4 of int | V6 of int

let[@hot] compare a b =
  match (a, b) with
  | V4 x, V4 y -> Int.compare x y
  | V6 x, V6 y -> Int.compare x y
  | V4 _, V6 _ -> -1
  | V6 _, V4 _ -> 1

let[@hot] bound a b =
  let pair = (a, b) in
  fst pair

let[@hot] returned a b = (b, a)

let[@hot] bound_by_case a b =
  match (a, b) with
  | (0, _) as p -> p
  | p -> p
