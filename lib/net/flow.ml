type t = {
  src : Addr.t;
  dst : Addr.t;
  proto : int;
  src_port : int;
  dst_port : int;
}

let v ~src ~dst ~proto ~src_port ~dst_port =
  let check_port name p =
    if p < 0 || p > 0xFFFF then
      Err.invalid "Flow.v: %s port %d out of range" name p
  in
  check_port "source" src_port;
  check_port "destination" dst_port;
  if proto < 0 || proto > 255 then
    Err.invalid "Flow.v: protocol %d out of range" proto;
  { src; dst; proto; src_port; dst_port }

let compare a b =
  let c = Addr.compare a.src b.src in
  if c <> 0 then c
  else begin
    let c = Addr.compare a.dst b.dst in
    if c <> 0 then c
    else begin
      let c = Int.compare a.proto b.proto in
      if c <> 0 then c
      else begin
        let c = Int.compare a.src_port b.src_port in
        if c <> 0 then c else Int.compare a.dst_port b.dst_port
      end
    end
  end

let equal a b = compare a b = 0

let pp ppf t =
  Format.fprintf ppf "%a:%d -> %a:%d proto=%d" Addr.pp t.src t.src_port
    Addr.pp t.dst t.dst_port t.proto

let reverse t =
  { t with src = t.dst; dst = t.src; src_port = t.dst_port; dst_port = t.src_port }

(* FNV-1a over 64 bits, folding every byte of both addresses, the
   protocol, the ports and the salt. Stable across runs: ECMP decisions
   must be reproducible.

   The 64-bit state is kept as two 32-bit halves in native ints, so
   nothing is boxed. The prime is 2^40 + 0x1b3: for h = hi*2^32 + lo,
   (h xor b) * prime mod 2^64 has low half (x * 0x1b3) mod 2^32 with
   x = lo xor b, and high half hi * 0x1b3 + (x lsl 8) plus the carry out
   of the low product, mod 2^32. Every intermediate stays below 2^42.

   The input is fed as 32-bit words, least significant byte first: an
   address is one 64-bit word (V4, sign-extended) or two (V6), each low
   half first; then protocol, source port and the low destination-port
   byte share a word; the high destination-port byte goes alone; the
   salt is one 64-bit word. *)

let m32 = 0xFFFF_FFFF

let addr_words addr = match addr with Addr.V4 _ -> 2 | Addr.V6 _ -> 4

let addr_word addr i =
  match addr with
  | Addr.V4 a ->
      let x = Int32.to_int (Ipv4.to_int32 a) in
      if i = 0 then x land m32 else (x asr 32) land m32
  | Addr.V6 a ->
      let half = if i < 2 then Ipv6.hi a else Ipv6.lo a in
      if i land 1 = 0 then Int64.to_int half land m32
      else Int64.to_int (Int64.shift_right_logical half 32)

let hash_fields ~salt ~src ~dst ~proto ~src_port ~dst_port =
  let hi = ref 0xcbf29ce4 and lo = ref 0x84222325 in
  let ns = addr_words src in
  let nd = ns + addr_words dst in
  for i = 0 to nd + 3 do
    let w =
      if i < ns then addr_word src i
      else if i < nd then addr_word dst (i - ns)
      else if i = nd then
        (proto land 0xFF)
        lor ((src_port land 0xFFFF) lsl 8)
        lor ((dst_port land 0xFF) lsl 24)
      else if i = nd + 1 then (dst_port lsr 8) land 0xFF
      else if i = nd + 2 then salt land m32
      else (salt asr 32) land m32
    in
    for k = 0 to if i = nd + 1 then 0 else 3 do
      let x = !lo lxor ((w lsr (8 * k)) land 0xFF) in
      let p = x * 0x1b3 in
      hi := ((!hi * 0x1b3) + (x lsl 8) + (p lsr 32)) land m32;
      lo := p land m32
    done
  done;
  (* Keep 62 bits (h lsr 2) so the result is a non-negative native int. *)
  (!hi lsl 30) lor (!lo lsr 2)

let hash_5tuple ?(salt = 0) t =
  hash_fields ~salt ~src:t.src ~dst:t.dst ~proto:t.proto ~src_port:t.src_port
    ~dst_port:t.dst_port
