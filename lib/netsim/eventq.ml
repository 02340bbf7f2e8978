(* A binary min-heap stored as three parallel arrays, so times sit
   unboxed in a [float array] and a sift compares two array reads
   instead of chasing entry records.  Slots at indices >= [size] are
   stale: they may still reference payloads that already fired. *)
type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { times = [||]; seqs = [||]; payloads = [||]; size = 0; next_seq = 0 }
let is_empty t = t.size = 0
let length t = t.size

(* Does slot [i] fire before an event at ([time], [seq])? *)
let[@inline] before t i time seq =
  let ti = t.times.(i) in
  (* lint: allow R3 exact tie on timestamps falls through to seq; a tolerance would reorder events *)
  ti < time || (Float.equal ti time && t.seqs.(i) < seq)

let[@inline] set t i time seq payload =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.payloads.(i) <- payload

let fresh_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let push t ~time ~seq payload =
  if t.size = Array.length t.times then begin
    let extend a filler =
      let b = Array.make (max 64 (2 * t.size)) filler in
      Array.blit a 0 b 0 t.size;
      b
    in
    t.times <- extend t.times 0.;
    t.seqs <- extend t.seqs 0;
    t.payloads <- extend t.payloads payload
  end;
  (* Sift the hole at the new last slot up past every later parent. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  while !i > 0 && not (before t ((!i - 1) / 2) time seq) do
    let p = (!i - 1) / 2 in
    set t !i t.times.(p) t.seqs.(p) t.payloads.(p);
    i := p
  done;
  set t !i time seq payload

let min_time t = if t.size = 0 then infinity else t.times.(0)

let pop t =
  if t.size = 0 then invalid_arg "Eventq.pop: empty queue";
  let top = t.payloads.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    (* Sift the hole at the root down, then fill it with the last entry. *)
    let time = t.times.(n) and seq = t.seqs.(n) and payload = t.payloads.(n) in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < n && before t (l + 1) t.times.(l) t.seqs.(l) then l + 1 else l in
      if c < n && before t c time seq then begin
        set t !i t.times.(c) t.seqs.(c) t.payloads.(c);
        i := c
      end
      else continue := false
    done;
    set t !i time seq payload
  end;
  top
