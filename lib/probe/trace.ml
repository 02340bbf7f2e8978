type observation = Lost | Delay of float

type truth = {
  virtual_queuing_delay : float;
  hop_queuing : float array;
  loss_hop : int option;
}

type record = { send_time : float; obs : observation; truth : truth option }

type t = {
  records : record array;
  interval : float;
  base_delay : float;
  hop_count : int;
}

let create ~records ~interval ~base_delay ~hop_count =
  if interval <= 0. then invalid_arg "Trace.create: interval <= 0";
  { records; interval; base_delay; hop_count }

let length t = Array.length t.records

let losses t =
  Array.fold_left
    (fun acc r -> match r.obs with Lost -> acc + 1 | Delay _ -> acc)
    0 t.records

let loss_rate t =
  let n = length t in
  if n = 0 then 0. else float_of_int (losses t) /. float_of_int n

let duration t = float_of_int (length t) *. t.interval

let observed_delays t =
  let out = ref [] in
  Array.iter
    (fun r -> match r.obs with Delay d -> out := d :: !out | Lost -> ())
    t.records;
  Array.of_list (List.rev !out)

(* Fold Float.min or Float.max over the observed delays in record
   order, straight over the records: [Identify] asks for both extremes
   on every call, so neither may copy the delays out of a trace. *)
let extreme_delay ~name ~max t =
  let best = ref nan and found = ref false in
  for i = 0 to length t - 1 do
    match t.records.(i).obs with
    | Delay d ->
        best := if not !found then d else if max then Float.max !best d else Float.min !best d;
        found := true
    | Lost -> ()
  done;
  if not !found then invalid_arg (name ^ ": no surviving probe");
  !best

let min_delay t = extreme_delay ~name:"Trace.min_delay" ~max:false t
let max_delay t = extreme_delay ~name:"Trace.max_delay" ~max:true t

let truth_virtual_delays t =
  let out = ref [] in
  Array.iter
    (fun r ->
      match r.truth with
      | Some { loss_hop = Some _; virtual_queuing_delay; _ } ->
          out := virtual_queuing_delay :: !out
      | Some { loss_hop = None; _ } | None -> ())
    t.records;
  Array.of_list (List.rev !out)

let truth_loss_share t hop =
  let total = ref 0 and at_hop = ref 0 in
  Array.iter
    (fun r ->
      match r.truth with
      | Some { loss_hop = Some h; _ } ->
          incr total;
          if h = hop then incr at_hop
      | Some { loss_hop = None; _ } | None -> ())
    t.records;
  if !total = 0 then 0. else float_of_int !at_hop /. float_of_int !total

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > length t then invalid_arg "Trace.sub: out of bounds";
  { t with records = Array.sub t.records pos len }

let random_segment rng t ~duration =
  let want = int_of_float (ceil (duration /. t.interval)) in
  let n = length t in
  if want > n then invalid_arg "Trace.random_segment: duration exceeds trace";
  let pos = if want = n then 0 else Stats.Rng.int rng (n - want + 1) in
  sub t ~pos ~len:want

(* Order-sensitive fold of the record count and the IEEE bits of every
   record: send time, observation, virtual queuing delay, per-hop
   queuing, loss hop. *)
let fingerprint t =
  let fold h x = Int64.add (Int64.mul h 1000003L) (Int64.bits_of_float x) in
  let fold_int h i = Int64.add (Int64.mul h 31L) (Int64.of_int i) in
  Array.fold_left
    (fun h r ->
      let h = fold h r.send_time in
      let h = match r.obs with Lost -> fold_int h 0 | Delay d -> fold (fold_int h 1) d in
      match r.truth with
      | None -> fold_int h 0
      | Some tr ->
          let h = fold (fold_int h 1) tr.virtual_queuing_delay in
          let h = Array.fold_left fold h tr.hop_queuing in
          fold_int h (match tr.loss_hop with Some k -> k + 1 | None -> 0))
    (fold_int 0L (length t)) t.records

(* --- text serialization ---------------------------------------------

   Header line:   dcltrace 1 <interval> <base_delay> <hop_count>
   Record lines:  <send_time> (L | <delay>) [T <vqd> <loss_hop|-> <hop_q...>]  *)

let save t file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "dcltrace 1 %.9f %.9f %d\n" t.interval t.base_delay t.hop_count;
      Array.iter
        (fun r ->
          Printf.fprintf oc "%.6f" r.send_time;
          (match r.obs with
          | Lost -> output_string oc " L"
          | Delay d -> Printf.fprintf oc " %.9f" d);
          (match r.truth with
          | None -> ()
          | Some tr ->
              Printf.fprintf oc " T %.9f %s" tr.virtual_queuing_delay
                (match tr.loss_hop with None -> "-" | Some h -> string_of_int h);
              Array.iter (fun q -> Printf.fprintf oc " %.9f" q) tr.hop_queuing);
          output_char oc '\n')
        t.records)

exception Malformed of string

(* Parse failures name the file and the 1-based line; every numeric
   field must be finite (one NaN delay would poison the discretization
   and every EM accumulator downstream). *)
let parse file ic =
  let lineno = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        raise (Malformed (Printf.sprintf "%s:%d: Trace.load: %s" file !lineno msg)))
      fmt
  in
  let next_line () =
    incr lineno;
    input_line ic
  in
  let num what s =
    match float_of_string_opt s with
    | Some x when Float.is_finite x -> x
    | Some _ -> fail "non-finite %s %S" what s
    | None -> fail "bad %s %S" what s
  in
  let int what s =
    match int_of_string_opt s with Some i -> i | None -> fail "bad %s %S" what s
  in
  let interval, base_delay, hop_count =
    match String.split_on_char ' ' (next_line ()) with
    | [ "dcltrace"; "1"; i; b; h ] ->
        (num "interval" i, num "base delay" b, int "hop count" h)
    | _ -> fail "bad header"
    | exception End_of_file -> fail "missing header"
  in
  if interval <= 0. then fail "interval must be positive";
  let records = ref [] in
  (try
     while true do
       let line = next_line () in
       if String.length line > 0 then begin
         let fields = String.split_on_char ' ' line in
         match fields with
         | send :: obs :: rest ->
             let send_time = num "send time" send in
             let obs = if obs = "L" then Lost else Delay (num "delay" obs) in
             let truth =
               match rest with
               | "T" :: vqd :: hop :: qs ->
                   Some
                     {
                       virtual_queuing_delay = num "virtual delay" vqd;
                       loss_hop = (if hop = "-" then None else Some (int "loss hop" hop));
                       hop_queuing = Array.of_list (List.map (num "hop queuing") qs);
                     }
               | [] -> None
               | _ -> fail "bad record"
             in
             records := { send_time; obs; truth } :: !records
         | _ -> fail "bad record"
       end
     done
   with End_of_file -> ());
  create ~records:(Array.of_list (List.rev !records)) ~interval ~base_delay ~hop_count

let load file =
  match open_in file with
  | exception Sys_error msg -> Error msg
  | ic -> (
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      match parse file ic with
      | t -> Ok t
      | exception Malformed msg -> Error msg
      | exception Sys_error msg -> Error (Printf.sprintf "%s: Trace.load: %s" file msg))
