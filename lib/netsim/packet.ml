type kind = Udp | Tcp_data | Tcp_ack | Icmp_ttl_exceeded

type t = {
  id : int;
  flow : int;
  src : int;
  dst : int;
  size : int;
  kind : kind;
  seq : int;
  sent_at : float;
  ttl : int;
}

let make ~id ~flow ~src ~dst ~size ~kind ~seq ~sent_at ?(ttl = 64) () =
  if size <= 0 then invalid_arg "Packet.make: non-positive size";
  if ttl <= 0 then invalid_arg "Packet.make: non-positive ttl";
  { id; flow; src; dst; size; kind; seq; sent_at; ttl }
