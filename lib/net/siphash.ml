type key = { k0 : int64; k1 : int64 }

let key k0 k1 = { k0; k1 }

let key_of_string s =
  if String.length s <> 16 then
    Err.invalid "Siphash.key_of_string: need exactly 16 bytes";
  let le64 off =
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[off + i]))
    done;
    !v
  in
  { k0 = le64 0; k1 = le64 8 }

let[@inline] rotl x b =
  Int64.logor (Int64.shift_left x b) (Int64.shift_right_logical x (64 - b))

(* One function body with no closures, tuples or escaping refs, so the
   four lanes stay unboxed int64 registers. Block [full_blocks] is the
   tail (remaining bytes plus the length in the top byte); the pass
   after it is finalization. Inlined into [mac_into], which stores the
   tag without ever boxing it. *)
let[@inline] mac { k0; k1 } input =
  let len = Bytes.length input in
  let full_blocks = len / 8 in
  let v0 = ref (Int64.logxor k0 0x736f6d6570736575L) in
  let v1 = ref (Int64.logxor k1 0x646f72616e646f6dL) in
  let v2 = ref (Int64.logxor k0 0x6c7967656e657261L) in
  let v3 = ref (Int64.logxor k1 0x7465646279746573L) in
  for block = 0 to full_blocks + 1 do
    let compress = block <= full_blocks in
    let m = ref 0L in
    if block < full_blocks then m := Bytes.get_int64_le input (block * 8)
    else if compress then begin
      for i = len - 1 downto block * 8 do
        m := Int64.logor (Int64.shift_left !m 8) (Int64.of_int (Bytes.get_uint8 input i))
      done;
      m := Int64.logor !m (Int64.shift_left (Int64.of_int (len land 0xFF)) 56)
    end;
    if compress then v3 := Int64.logxor !v3 !m else v2 := Int64.logxor !v2 0xFFL;
    (* SipRound: 2 per block, 4 to finalize. *)
    for _ = 1 to if compress then 2 else 4 do
      v0 := Int64.add !v0 !v1;
      v1 := rotl !v1 13;
      v1 := Int64.logxor !v1 !v0;
      v0 := rotl !v0 32;
      v2 := Int64.add !v2 !v3;
      v3 := rotl !v3 16;
      v3 := Int64.logxor !v3 !v2;
      v0 := Int64.add !v0 !v3;
      v3 := rotl !v3 21;
      v3 := Int64.logxor !v3 !v0;
      v2 := Int64.add !v2 !v1;
      v1 := rotl !v1 17;
      v1 := Int64.logxor !v1 !v2;
      v2 := rotl !v2 32
    done;
    if compress then v0 := Int64.logxor !v0 !m
  done;
  Int64.logxor (Int64.logxor !v0 !v1) (Int64.logxor !v2 !v3)

let mac_into k input dst off = Bytes.set_int64_be dst off (mac k input)

let mac_string k s = mac k (Bytes.of_string s)
