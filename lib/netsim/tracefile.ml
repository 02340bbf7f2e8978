type event_kind = Enqueue | Dequeue | Drop | Receive

type event = {
  kind : event_kind;
  time : float;
  from_node : int;
  to_node : int;
  packet_type : string;
  size : int;
  flow : int;
  src : int;
  dst : int;
  seq : int;
  packet_id : int;
}

type t = { mutable events_rev : event list; mutable count : int }

let create () = { events_rev = []; count = 0 }

let record t kind ~time ~from_node ~to_node (pkt : Packet.t) =
  let packet_type =
    match pkt.Packet.kind with
    | Packet.Udp -> "cbr"
    | Packet.Tcp_data -> "tcp"
    | Packet.Tcp_ack -> "ack"
    | Packet.Icmp_ttl_exceeded -> "icmp"
  in
  t.events_rev <-
    {
      kind;
      time;
      from_node;
      to_node;
      packet_type;
      size = pkt.Packet.size;
      flow = pkt.Packet.flow;
      src = pkt.Packet.src;
      dst = pkt.Packet.dst;
      seq = pkt.Packet.seq;
      packet_id = pkt.Packet.id;
    }
    :: t.events_rev;
  t.count <- t.count + 1

let attach t sim link =
  let from_node = Link.src link and to_node = Link.dst link in
  let log kind pkt = record t kind ~time:(Sim.now sim) ~from_node ~to_node pkt in
  Link.set_on_accept link (log Enqueue);
  Link.set_on_transmit link (log Dequeue);
  Link.set_on_drop link (log Drop);
  Link.add_deliver_observer link (log Receive)

let events t = Array.of_list (List.rev t.events_rev)

let kind_char = function Enqueue -> '+' | Dequeue -> '-' | Drop -> 'd' | Receive -> 'r'

let save t file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun e ->
          Printf.fprintf oc "%c %.6f %d %d %s %d ---- %d %d.0 %d.0 %d %d\n"
            (kind_char e.kind) e.time e.from_node e.to_node e.packet_type e.size e.flow
            e.src e.dst e.seq e.packet_id)
        (List.rev t.events_rev))

exception Malformed of string

(* Parse failures name the file and the 1-based line; every numeric
   field must parse fully and be finite, and node ids (written as
   floats, "3.0") must be integral. *)
let parse file ic =
  let lineno = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        raise (Malformed (Printf.sprintf "%s:%d: Tracefile.load: %s" file !lineno msg)))
      fmt
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
  let node what s =
    let x = num what s in
    if Float.is_integer x then int_of_float x else fail "bad %s %S" what s
  in
  let kind = function
    | "+" -> Enqueue
    | "-" -> Dequeue
    | "d" -> Drop
    | "r" -> Receive
    | ev -> fail "bad event %S" ev
  in
  let out = ref [] in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       match String.split_on_char ' ' line with
       | [ ev; time; from_node; to_node; ptype; size; _flags; flow; src; dst; seq; pid ]
         ->
           out :=
             {
               kind = kind ev;
               time = num "time" time;
               from_node = int "from node" from_node;
               to_node = int "to node" to_node;
               packet_type = ptype;
               size = int "size" size;
               flow = int "flow" flow;
               src = node "src" src;
               dst = node "dst" dst;
               seq = int "seq" seq;
               packet_id = int "packet id" pid;
             }
             :: !out
       | _ -> fail "malformed line"
     done
   with End_of_file -> ());
  Array.of_list (List.rev !out)

let load file =
  match open_in file with
  | exception Sys_error msg -> Error msg
  | ic -> (
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      match parse file ic with
      | events -> Ok events
      | exception Malformed msg -> Error msg
      | exception Sys_error msg -> Error (Printf.sprintf "%s: Tracefile.load: %s" file msg))

let drops_per_flow events =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun e ->
      if e.kind = Drop then
        Hashtbl.replace tbl e.flow (1 + Option.value ~default:0 (Hashtbl.find_opt tbl e.flow)))
    events;
  (* Sorted at the collection point: the fold's iteration order is
     unspecified (R8) and must not leak into the per-flow report. *)
  Hashtbl.fold (fun flow n acc -> (flow, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
