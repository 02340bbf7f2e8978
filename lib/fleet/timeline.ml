(* Bounded per-path diagnosis history: the forensic record behind
   /paths/:id and the input tomography fusion will consume.

   A fixed-capacity overwrite-oldest ring of entries, owned by whichever
   domain currently owns the path (updates append from the worker
   processing the path's chunk, gate events append from the driver
   between pool jobs — the phases never overlap, so no synchronization
   is needed).  Capacity 0 disables recording entirely. *)

type entry =
  | Update of {
      epoch : int;
      verdict : Dcl.Identify.conclusion option;
      log_likelihood : float;
      weight : float;
      bound : float option;
    }
  | Gate of { epoch : int; promoted : bool; cause : string; streak : int }
  | Reset of { epoch : int }

type t = { entries : entry array; mutable total : int }

let dummy = Reset { epoch = 0 }

let create ~capacity =
  if capacity < 0 then
    invalid_arg "Fleet.Timeline.create: capacity must be non-negative";
  { entries = Array.make capacity dummy; total = 0 }

let capacity t = Array.length t.entries
let total t = t.total
let length t = min t.total (Array.length t.entries)

let record t e =
  let n = Array.length t.entries in
  if n > 0 then begin
    t.entries.(t.total mod n) <- e;
    t.total <- t.total + 1
  end

let entries t =
  let n = Array.length t.entries in
  let count = length t in
  let acc = ref [] in
  for i = t.total - 1 downto t.total - count do
    acc := t.entries.(i mod n) :: !acc
  done;
  !acc

(* %.6g is plenty for forensic display and keeps the JSON small; NaN
   and infinities (last_log_likelihood before the first batch) are not
   representable in JSON and go out as null. *)
let json_float x =
  if Float.is_finite x then Printf.sprintf "%.6g" x else "null"

let entry_to_json = function
  | Update { epoch; verdict; log_likelihood; weight; bound } ->
      Printf.sprintf
        "{\"kind\":\"update\",\"epoch\":%d,\"verdict\":\"%s\",\"log_likelihood\":%s,\"weight\":%s,\"bound\":%s}"
        epoch
        (Dcl.Identify.verdict_name verdict)
        (json_float log_likelihood)
        (json_float weight)
        (match bound with Some b -> json_float b | None -> "null")
  | Gate { epoch; promoted; cause; streak } ->
      Printf.sprintf
        "{\"kind\":\"gate\",\"epoch\":%d,\"promoted\":%b,\"cause\":\"%s\",\"streak\":%d}"
        epoch promoted cause streak
  | Reset { epoch } -> Printf.sprintf "{\"kind\":\"reset\",\"epoch\":%d}" epoch

let to_json t =
  Printf.sprintf "{\"total\":%d,\"capacity\":%d,\"entries\":[%s]}" t.total
    (Array.length t.entries)
    (String.concat "," (List.map entry_to_json (entries t)))
