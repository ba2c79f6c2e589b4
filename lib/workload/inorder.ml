type t = {
  mutable next_seq : int;
  buffer : (int, float) Hashtbl.t;  (* out-of-order arrivals: seq -> arrival time *)
  mutable extras : float array;  (* head-of-line extras of the last release *)
}

let create () = { next_seq = 0; buffer = Hashtbl.create 64; extras = Array.make 16 0.0 }

let note_extra t i extra =
  if i = Array.length t.extras then begin
    let bigger = Array.make (2 * i) 0.0 in
    Array.blit t.extras 0 bigger 0 i;
    t.extras <- bigger
  end;
  t.extras.(i) <- extra

(* Release the buffered run that follows the head, all at [time]. *)
let rec release_buffered t ~time n =
  if Hashtbl.mem t.buffer t.next_seq then begin
    let arrived = Hashtbl.find t.buffer t.next_seq in
    Hashtbl.remove t.buffer t.next_seq;
    note_extra t n (time -. arrived);
    t.next_seq <- t.next_seq + 1;
    release_buffered t ~time (n + 1)
  end
  else n

let arrival t ~seq ~time =
  if seq < t.next_seq || Hashtbl.mem t.buffer seq then 0
  else if seq > t.next_seq then begin
    Hashtbl.replace t.buffer seq time;
    0
  end
  else begin
    (* This arrival fills the head: release it and the run behind it. *)
    note_extra t 0 0.0;
    t.next_seq <- seq + 1;
    if Hashtbl.length t.buffer = 0 then 1 else release_buffered t ~time 1
  end

let extra t i = t.extras.(i)

let released t = t.next_seq

let pending t = Hashtbl.length t.buffer
