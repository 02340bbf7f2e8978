(* Metrics registry and spans.  See obs.mli for the contract; the two
   load-bearing properties are (1) the disabled path is one atomic load
   and zero allocation per recording call, and (2) the enabled hot path
   is lock-free: every mutable cell is an Atomic.t, and counter /
   histogram cells are sharded by domain id so pool workers do not
   bounce a cache line between cores. *)

external now_ns_ext : unit -> int = "dcl_obs_now_ns" [@@noalloc]

(* lint: owner shared *)
let flag = Atomic.make false

let () =
  match Sys.getenv_opt "DCL_OBS" with
  | Some ("1" | "true" | "yes") -> Atomic.set flag true
  | _ -> ()

let enabled () = Atomic.get flag
let set_enabled b = Atomic.set flag b

(* Shard count: power of two so the domain id masks cheaply.  Domain
   ids are assigned consecutively (main = 0, pool workers 1..k), so
   with the pool's worker cap well below 16 every domain gets its own
   shard; a collision merely shares an atomic, it is never wrong. *)
let shards = 16

let shard () = (Domain.self () :> int) land (shards - 1)

(* Float accumulation over a boxed-float atomic: CAS loop.  The read
   value is physically the stored box, so compare_and_set's [==] test
   is exact. *)
let rec atomic_add_float cell x =
  let cur = Atomic.get cell in
  if not (Atomic.compare_and_set cell cur (cur +. x)) then atomic_add_float cell x

let rec atomic_max_float cell x =
  let cur = Atomic.get cell in
  if x > cur && not (Atomic.compare_and_set cell cur x) then atomic_max_float cell x

type counter = { c_ints : int Atomic.t array; c_floats : float Atomic.t array }

type gauge = { g_cell : float Atomic.t }

type histogram = {
  h_uppers : float array;
  (* shard-major: shard s, bucket i at [s * (buckets + 1) + i]; the
     last column is the +Inf overflow bucket. *)
  h_counts : int Atomic.t array;
  h_sums : float Atomic.t array;
}

type kind = Kcounter of counter | Kgauge of gauge | Khistogram of histogram

type metric = {
  name : string;
  labels : (string * string) list;
  help : string;
  kind : kind;
}

(* Registration is rare (module initialization, pool worker spawn) and
   the only mutex in the module; recording never touches it. *)
(* lint: owner shared guarded-by reg_mutex *)
let registry : (string * (string * string) list, metric) Hashtbl.t = Hashtbl.create 64
let reg_mutex = Mutex.create ()

let kind_name = function
  | Kcounter _ -> "counter"
  | Kgauge _ -> "gauge"
  | Khistogram _ -> "histogram"

let register ~labels ~help name fresh project =
  Mutex.lock reg_mutex;
  let m =
    (* [fresh] allocates caller-supplied cells and may raise; do not
       leave the registry lock held if it does. *)
    Fun.protect
      ~finally:(fun () -> Mutex.unlock reg_mutex)
      (fun () ->
        match Hashtbl.find_opt registry (name, labels) with
        | Some m -> m
        | None ->
            let m = { name; labels; help; kind = fresh () } in
            Hashtbl.add registry (name, labels) m;
            m)
  in
  match project m.kind with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Obs: %s is already registered as a %s" name
           (kind_name m.kind))

module Counter = struct
  let make ?(labels = []) ?(help = "") name =
    register ~labels ~help name
      (fun () ->
        Kcounter
          {
            c_ints = Array.init shards (fun _ -> Atomic.make 0);
            c_floats = Array.init shards (fun _ -> Atomic.make 0.);
          })
      (function Kcounter c -> Some c | _ -> None)

  let incr c =
    if Atomic.get flag then
      ignore (Atomic.fetch_and_add (Array.unsafe_get c.c_ints (shard ())) 1)

  let add c n =
    if Atomic.get flag then
      ignore (Atomic.fetch_and_add (Array.unsafe_get c.c_ints (shard ())) n)

  let add_float c x =
    if Atomic.get flag then atomic_add_float (Array.unsafe_get c.c_floats (shard ())) x

  let value c =
    let acc = ref 0. in
    Array.iter (fun a -> acc := !acc +. float_of_int (Atomic.get a)) c.c_ints;
    Array.iter (fun a -> acc := !acc +. Atomic.get a) c.c_floats;
    !acc
end

module Gauge = struct
  let make ?(labels = []) ?(help = "") name =
    register ~labels ~help name
      (fun () -> Kgauge { g_cell = Atomic.make 0. })
      (function Kgauge g -> Some g | _ -> None)

  let set g x = if Atomic.get flag then Atomic.set g.g_cell x
  let set_max g x = if Atomic.get flag then atomic_max_float g.g_cell x
  let value g = Atomic.get g.g_cell
end

module Histogram = struct
  (* lint: allow R7 constant bucket table; written nowhere after initialization *)
  let default_latency_buckets =
    [|
      1e-6; 1e-5; 1e-4; 2.5e-4; 1e-3; 2.5e-3; 1e-2; 2.5e-2; 0.1; 0.25; 1.; 2.5;
      10.; 60.;
    |]

  let make ?(labels = []) ?(help = "") ?(buckets = default_latency_buckets) name =
    let nb = Array.length buckets in
    if nb = 0 then invalid_arg "Obs.Histogram.make: empty bucket list";
    for i = 1 to nb - 1 do
      if buckets.(i) <= buckets.(i - 1) then
        invalid_arg "Obs.Histogram.make: buckets must be strictly increasing"
    done;
    register ~labels ~help name
      (fun () ->
        Khistogram
          {
            h_uppers = Array.copy buckets;
            h_counts = Array.init (shards * (nb + 1)) (fun _ -> Atomic.make 0);
            h_sums = Array.init shards (fun _ -> Atomic.make 0.);
          })
      (function Khistogram h -> Some h | _ -> None)

  (* Smallest bucket whose (inclusive) upper bound holds [v]; the
     overflow index is [Array.length uppers].  Linear scan: the default
     bucket list has 14 entries and observations cluster low. *)
  let bucket_index h v =
    let uppers = h.h_uppers in
    let nb = Array.length uppers in
    let i = ref 0 in
    while !i < nb && v > Array.unsafe_get uppers !i do
      incr i
    done;
    !i

  let observe h v =
    if Atomic.get flag then begin
      let nb = Array.length h.h_uppers in
      let base = shard () * (nb + 1) in
      ignore
        (Atomic.fetch_and_add (Array.unsafe_get h.h_counts (base + bucket_index h v)) 1);
      atomic_add_float (Array.unsafe_get h.h_sums (base / (nb + 1))) v
    end

  let raw_bucket h i =
    (* Sum of shard cells for (non-cumulative) bucket [i]. *)
    let nb = Array.length h.h_uppers in
    let acc = ref 0 in
    for s = 0 to shards - 1 do
      acc := !acc + Atomic.get h.h_counts.((s * (nb + 1)) + i)
    done;
    !acc

  let count h =
    let nb = Array.length h.h_uppers in
    let acc = ref 0 in
    for i = 0 to nb do
      acc := !acc + raw_bucket h i
    done;
    !acc

  let sum h =
    let acc = ref 0. in
    Array.iter (fun a -> acc := !acc +. Atomic.get a) h.h_sums;
    !acc

  let bucket_counts h =
    let nb = Array.length h.h_uppers in
    let cum = ref 0 in
    Array.init (nb + 1) (fun i ->
        cum := !cum + raw_bucket h i;
        ((if i < nb then h.h_uppers.(i) else infinity), !cum))
end

module Span = struct
  let now_ns = now_ns_ext
  let start () = if Atomic.get flag then now_ns_ext () else 0

  let stop h t0 =
    if t0 <> 0 && Atomic.get flag then
      Histogram.observe h (float_of_int (now_ns_ext () - t0) *. 1e-9)
end

(* --- Export ------------------------------------------------------------- *)

let sorted_metrics () =
  Mutex.lock reg_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock reg_mutex)
    (fun () ->
      (* Sort at the collection point: the Hashtbl fold observes
         unspecified iteration order (R8), which must not reach the
         exported snapshot. *)
      List.sort
        (fun a b ->
          match compare a.name b.name with
          | 0 -> compare a.labels b.labels
          | c -> c)
        (Hashtbl.fold (fun _ m acc -> m :: acc) registry []))

(* %.17g-style shortest-exact is overkill here; %g is stable for equal
   inputs, which is all snapshot determinism needs. *)
let fmt_float x =
  (* lint: allow R3 magnitude guard for %.0f formatting, not an equality tolerance *)
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%g" x

let escape_label v =
  let b = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | ch -> Buffer.add_char b ch)
    v;
  Buffer.contents b

let render_labels = function
  | [] -> ""
  | labels ->
      (* Quotes concatenated by hand: %S would re-escape the backslashes
         escape_label just produced (and emit OCaml decimal escapes the
         exposition format does not define). *)
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> k ^ "=\"" ^ escape_label v ^ "\"") labels)
      ^ "}"

(* Labels merged with extras (histogram [le]), for the _bucket lines. *)
let render_labels_extra labels extra = render_labels (labels @ extra)

let prometheus () =
  let buf = Buffer.create 4096 in
  let last_family = ref "" in
  List.iter
    (fun m ->
      if m.name <> !last_family then begin
        last_family := m.name;
        if m.help <> "" then Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" m.name m.help);
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" m.name (kind_name m.kind))
      end;
      match m.kind with
      | Kcounter c ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" m.name (render_labels m.labels)
               (fmt_float (Counter.value c)))
      | Kgauge g ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" m.name (render_labels m.labels)
               (fmt_float (Gauge.value g)))
      | Khistogram h ->
          Array.iter
            (fun (upper, cum) ->
              let le = if Float.is_finite upper then fmt_float upper else "+Inf" in
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" m.name
                   (render_labels_extra m.labels [ ("le", le) ])
                   cum))
            (Histogram.bucket_counts h);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" m.name (render_labels m.labels)
               (fmt_float (Histogram.sum h)));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" m.name (render_labels m.labels)
               (Histogram.count h)))
    (sorted_metrics ());
  Buffer.contents buf

(* RFC 8259 string escaping.  OCaml's %S is close but wrong: it emits
   decimal escapes like \127 for control bytes, which no JSON parser
   accepts.  Control characters go out as \u00XX. *)
let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | ch when Char.code ch < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char b ch)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Atomic file replacement: write the full snapshot to a temporary file
   in the destination's directory, then rename it over the target.  A
   concurrent reader (a scraper, CI artifact collection) therefore sees
   either the previous complete snapshot or the new one, never a
   truncated file.  Same-directory placement keeps the rename on one
   filesystem, where POSIX guarantees it is atomic. *)
let write_file path contents =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir ("." ^ Filename.basename path) ".tmp" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      (try
         output_string oc contents;
         close_out oc
       with e ->
         close_out_noerr oc;
         raise e);
      Sys.rename tmp path)

let write dest =
  (* lint: allow R4 dest = "-" is the caller explicitly requesting a stdout dump *)
  if dest = "-" then print_string (prometheus ()) else write_file dest (prometheus ())

(* --- Flight recorder ---------------------------------------------------- *)

module Trace = struct
  (* lint: owner shared *)
  let tflag = Atomic.make false

  type phase = B | E | I | C

  (* One preallocated slot per ring position; emission mutates fields in
     place so the enabled path allocates nothing either.  The string
     fields receive static literals from the instrumentation sites —
     storing them is a pointer write. *)
  type slot = {
    mutable s_ts : int;
    mutable s_seq : int;
    mutable s_phase : phase;
    mutable s_name : string;
    mutable s_detail : string;
    mutable s_arg : int;
  }

  type ring = { slots : slot array; cursor : int Atomic.t }

  (* Per-shard rings, lazily allocated: the recorder costs nothing until
     tracing is first enabled.  With the shard = domain-id mapping every
     domain owns its ring exclusively, so slot writes are single-writer;
     the cursor is atomic so a (theoretical) shard collision still hands
     out distinct sequence numbers. *)
  (* lint: owner shared *)
  let rings : ring array option Atomic.t = Atomic.make None

  let default_capacity = 4096

  let alloc n =
    Array.init shards (fun _ ->
        {
          slots =
            Array.init n (fun _ ->
                { s_ts = 0; s_seq = 0; s_phase = I; s_name = ""; s_detail = ""; s_arg = 0 });
          cursor = Atomic.make 0;
        })

  let round_pow2 n =
    let r = ref 1 in
    while !r < n do
      r := !r * 2
    done;
    !r

  let ensure_rings () =
    match Atomic.get rings with
    | Some r -> r
    | None ->
        let r = alloc default_capacity in
        if Atomic.compare_and_set rings None (Some r) then r
        else (match Atomic.get rings with Some r -> r | None -> assert false)

  let set_capacity n =
    if n <= 0 then invalid_arg "Obs.Trace.set_capacity: capacity must be positive";
    Atomic.set rings (Some (alloc (round_pow2 n)))

  let enabled () = Atomic.get tflag

  let set_enabled b =
    if b then ignore (ensure_rings () : ring array);
    Atomic.set tflag b

  (* Environment opt-in must run after [ensure_rings] is in scope: the
     flag without the rings would silently drop every event. *)
  let () =
    match Sys.getenv_opt "DCL_TRACE" with
    | Some ("1" | "true" | "yes") -> set_enabled true
    | _ -> ()

  let clear () =
    match Atomic.get rings with
    | None -> ()
    | Some rs -> Array.iter (fun r -> Atomic.set r.cursor 0) rs

  let emit phase name detail arg ts =
    match Atomic.get rings with
    | None -> ()
    | Some rs ->
        let r = Array.unsafe_get rs (shard ()) in
        let n = Array.length r.slots in
        let idx = Atomic.fetch_and_add r.cursor 1 in
        let s = Array.unsafe_get r.slots (idx land (n - 1)) in
        s.s_ts <- ts;
        s.s_seq <- idx;
        s.s_phase <- phase;
        s.s_name <- name;
        s.s_detail <- detail;
        s.s_arg <- arg

  (* Emitters come in concrete variants instead of optional arguments:
     an optional argument would box a [Some] at every call site even
     when tracing is off, breaking the zero-allocation contract. *)
  let span_begin name arg = if Atomic.get tflag then emit B name "" arg (now_ns_ext ())

  let span_begin_at name arg ts = if Atomic.get tflag then emit B name "" arg ts
  let span_end name = if Atomic.get tflag then emit E name "" 0 (now_ns_ext ())
  let span_end_at name ts = if Atomic.get tflag then emit E name "" 0 ts
  let instant name arg = if Atomic.get tflag then emit I name "" arg (now_ns_ext ())

  let instant_d name detail arg =
    if Atomic.get tflag then emit I name detail arg (now_ns_ext ())

  let counter name arg = if Atomic.get tflag then emit C name "" arg (now_ns_ext ())

  let emitted () =
    match Atomic.get rings with
    | None -> 0
    | Some rs -> Array.fold_left (fun acc r -> acc + Atomic.get r.cursor) 0 rs

  let stored () =
    match Atomic.get rings with
    | None -> 0
    | Some rs ->
        Array.fold_left
          (fun acc r -> acc + min (Atomic.get r.cursor) (Array.length r.slots))
          0 rs

  type event = {
    ev_ts : int;
    ev_shard : int;
    ev_seq : int;
    ev_phase : phase;
    ev_name : string;
    ev_detail : string;
    ev_arg : int;
  }

  (* Snapshot the retained window of every ring, oldest first, and order
     the merge deterministically: timestamp, then shard, then sequence
     number.  Readers must be quiescent with respect to emitters (the
     driver reads between epochs; tests read after the pool job
     returns) — the ring is a forensic record, not a concurrent
     queue. *)
  let events () =
    match Atomic.get rings with
    | None -> []
    | Some rs ->
        let acc = ref [] in
        Array.iteri
          (fun sh r ->
            let n = Array.length r.slots in
            let total = Atomic.get r.cursor in
            let count = if total < n then total else n in
            for i = total - count to total - 1 do
              let s = r.slots.(i land (n - 1)) in
              acc :=
                {
                  ev_ts = s.s_ts;
                  ev_shard = sh;
                  ev_seq = s.s_seq;
                  ev_phase = s.s_phase;
                  ev_name = s.s_name;
                  ev_detail = s.s_detail;
                  ev_arg = s.s_arg;
                }
                :: !acc
            done)
          rs;
        List.sort
          (fun a b ->
            match compare a.ev_ts b.ev_ts with
            | 0 -> (
                match compare a.ev_shard b.ev_shard with
                | 0 -> compare a.ev_seq b.ev_seq
                | c -> c)
            | c -> c)
          !acc

  let phase_char = function B -> 'B' | E -> 'E' | I -> 'i' | C -> 'C'

  let dump () =
    let b = Buffer.create 4096 in
    List.iter
      (fun e ->
        Buffer.add_string b
          (Printf.sprintf "%d %d %d %c %s arg=%d%s\n" e.ev_ts e.ev_shard e.ev_seq
             (phase_char e.ev_phase) e.ev_name e.ev_arg
             (if e.ev_detail = "" then "" else " detail=" ^ e.ev_detail)))
      (events ());
    Buffer.contents b

  (* Chrome trace-event format (the JSON-object flavour Perfetto and
     chrome://tracing both load): ts is microseconds as a decimal, tid
     is the shard (= domain) id, span phases are "B"/"E", instants are
     thread-scoped "i", counter samples are "C". *)
  let chrome_event e =
    let common =
      Printf.sprintf "\"name\":%s,\"ts\":%.3f,\"pid\":0,\"tid\":%d"
        (json_string e.ev_name)
        (float_of_int e.ev_ts /. 1e3)
        e.ev_shard
    in
    let args =
      if e.ev_detail = "" then Printf.sprintf "{\"arg\":%d}" e.ev_arg
      else
        Printf.sprintf "{\"arg\":%d,\"detail\":%s}" e.ev_arg (json_string e.ev_detail)
    in
    match e.ev_phase with
    | B -> Printf.sprintf "{%s,\"ph\":\"B\",\"args\":%s}" common args
    | E -> Printf.sprintf "{%s,\"ph\":\"E\"}" common
    | I -> Printf.sprintf "{%s,\"ph\":\"i\",\"s\":\"t\",\"args\":%s}" common args
    | C -> Printf.sprintf "{%s,\"ph\":\"C\",\"args\":{\"value\":%d}}" common e.ev_arg

  let chrome_json () =
    "{\"traceEvents\":["
    ^ String.concat "," (List.map chrome_event (events ()))
    ^ "]}\n"

  let write dest =
    (* lint: allow R4 dest = "-" is the caller explicitly requesting a stdout dump *)
    if dest = "-" then print_string (dump ())
    else
      write_file dest
        (if Filename.check_suffix dest ".json" then chrome_json () else dump ())
end

(* --- Runtime self-telemetry --------------------------------------------- *)

module Runtime = struct
  let g_minor =
    Gauge.make ~help:"Minor words allocated since the previous sample"
      "dcl_runtime_minor_words_delta"

  let g_major =
    Gauge.make ~help:"Major words allocated since the previous sample"
      "dcl_runtime_major_words_delta"

  let g_minor_cols =
    Gauge.make ~help:"Minor collections since the previous sample"
      "dcl_runtime_minor_collections_delta"

  let g_major_cols =
    Gauge.make ~help:"Major collections since the previous sample"
      "dcl_runtime_major_collections_delta"

  let g_heap =
    Gauge.make ~help:"Major heap size in words at the last sample"
      "dcl_runtime_heap_words"

  (* Previous-sample state.  [sample] is documented driver-domain-only,
     so a plain mutable cell suffices. *)
  (* lint: owner driver *)
  let last = ref None

  let sample () =
    if Atomic.get flag then begin
      let s = Gc.quick_stat () in
      (match !last with
      | None -> ()
      | Some (mw, jw, mc, jc) ->
          Gauge.set g_minor (s.Gc.minor_words -. mw);
          Gauge.set g_major (s.Gc.major_words -. jw);
          Gauge.set g_minor_cols (float_of_int (s.Gc.minor_collections - mc));
          Gauge.set g_major_cols (float_of_int (s.Gc.major_collections - jc)));
      Gauge.set g_heap (float_of_int s.Gc.heap_words);
      last :=
        Some (s.Gc.minor_words, s.Gc.major_words, s.Gc.minor_collections, s.Gc.major_collections)
    end
end

(* --- Admin endpoint ----------------------------------------------------- *)

module Admin = struct
  (* Dependency-free blocking HTTP/1.1 server on its own domain.  Fast
     routes (healthz, metrics: data behind atomics) are answered on the
     server domain; everything else parks the connection on a pending
     queue that the driver drains once per epoch with [serve_pending],
     so driver-owned state (fleet, timelines, trace rings) is only ever
     read from the domain that mutates it. *)

  type pending = {
    p_path : string;
    p_mutex : Mutex.t;
    p_cond : Condition.t;
    mutable p_response : (int * string * string) option;
  }

  type t = {
    a_sock : Unix.file_descr;
    a_port : int;
    a_host : string;
    a_fast : string -> (string * string) option;
    a_q_mutex : Mutex.t;
    mutable a_queue : pending list;
    mutable a_accepting : bool;
    a_stopping : bool Atomic.t;
    mutable a_domain : unit Domain.t option;
  }

  let reason_of = function
    | 200 -> "OK"
    | 400 -> "Bad Request"
    | 404 -> "Not Found"
    | 405 -> "Method Not Allowed"
    | 500 -> "Internal Server Error"
    | 503 -> "Service Unavailable"
    | _ -> "Error"

  let http_response status content_type body =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
      status (reason_of status) content_type (String.length body) body

  let send_all fd s =
    let b = Bytes.unsafe_of_string s in
    let n = Bytes.length b in
    let off = ref 0 in
    try
      while !off < n do
        let k = Unix.write fd b !off (n - !off) in
        if k <= 0 then off := n else off := !off + k
      done
    with Unix.Unix_error _ -> ()

  (* Read until the header terminator; request bodies are ignored (all
     routes are GET).  Bounded so a hostile peer cannot balloon the
     buffer. *)
  let read_request fd =
    let buf = Buffer.create 256 in
    let chunk = Bytes.create 1024 in
    let rec has_terminator s i =
      if i + 3 >= String.length s then false
      else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
      then true
      else has_terminator s (i + 1)
    in
    let rec loop () =
      if Buffer.length buf > 16384 then None
      else
        let k = try Unix.read fd chunk 0 1024 with Unix.Unix_error _ -> 0 in
        if k <= 0 then None
        else begin
          Buffer.add_subbytes buf chunk 0 k;
          let s = Buffer.contents buf in
          if has_terminator s 0 then Some s else loop ()
        end
    in
    loop ()

  let parse_request s =
    match String.index_opt s '\r' with
    | None -> None
    | Some eol -> (
        match String.split_on_char ' ' (String.sub s 0 eol) with
        | [ meth; target; _version ] ->
            let path =
              match String.index_opt target '?' with
              | Some q -> String.sub target 0 q
              | None -> target
            in
            Some (meth, path)
        | _ -> None)

  let handle_conn t fd =
    let respond status content_type body =
      send_all fd (http_response status content_type body)
    in
    (try
       Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
       Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.
     with Unix.Unix_error _ -> ());
    (match read_request fd with
    | None -> respond 400 "text/plain" "bad request\n"
    | Some req -> (
        match parse_request req with
        | None -> respond 400 "text/plain" "bad request\n"
        | Some (meth, path) -> (
            if meth <> "GET" then respond 405 "text/plain" "method not allowed\n"
            else
              match t.a_fast path with
              | Some (ct, body) -> respond 200 ct body
              | None ->
                  let p =
                    {
                      p_path = path;
                      p_mutex = Mutex.create ();
                      p_cond = Condition.create ();
                      p_response = None;
                    }
                  in
                  Mutex.lock t.a_q_mutex;
                  let queued = t.a_accepting in
                  if queued then t.a_queue <- p :: t.a_queue;
                  Mutex.unlock t.a_q_mutex;
                  if not queued then respond 503 "text/plain" "shutting down\n"
                  else begin
                    Mutex.lock p.p_mutex;
                    let status, ct, body =
                      (* [Option.get] after the wait loop cannot raise
                         (the loop exits only once a response is set),
                         but keep the span protected so a future edit
                         cannot park the connection with the lock held. *)
                      Fun.protect
                        ~finally:(fun () -> Mutex.unlock p.p_mutex)
                        (fun () ->
                          while p.p_response = None do
                            Condition.wait p.p_cond p.p_mutex
                          done;
                          Option.get p.p_response)
                    in
                    respond status ct body
                  end)));
    try Unix.close fd with Unix.Unix_error _ -> ()

  let rec accept_loop t =
    if not (Atomic.get t.a_stopping) then begin
      (match try Some (Unix.accept t.a_sock) with Unix.Unix_error _ -> None with
      | Some (fd, _) ->
          if Atomic.get t.a_stopping then (
            try Unix.close fd with Unix.Unix_error _ -> ())
          else handle_conn t fd
      | None -> ());
      accept_loop t
    end

  let start ?(host = "127.0.0.1") ~port ~fast () =
    if port < 0 || port > 65535 then
      invalid_arg "Obs.Admin.start: port outside [0, 65535]";
    let addr = Unix.inet_addr_of_string host in
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt sock Unix.SO_REUSEADDR true;
       Unix.bind sock (Unix.ADDR_INET (addr, port));
       Unix.listen sock 16
     with e ->
       (try Unix.close sock with Unix.Unix_error _ -> ());
       raise e);
    let actual_port =
      match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> port
    in
    let t =
      {
        a_sock = sock;
        a_port = actual_port;
        a_host = host;
        a_fast = fast;
        a_q_mutex = Mutex.create ();
        a_queue = [];
        a_accepting = true;
        a_stopping = Atomic.make false;
        a_domain = None;
      }
    in
    t.a_domain <- Some (Domain.spawn (fun () -> accept_loop t));
    t

  let port t = t.a_port

  let serve_pending t ~handle =
    Mutex.lock t.a_q_mutex;
    let pend = List.rev t.a_queue in
    t.a_queue <- [];
    Mutex.unlock t.a_q_mutex;
    List.iter
      (fun p ->
        let resp =
          match try `Ok (handle p.p_path) with _ -> `Err with
          | `Ok (Some (ct, body)) -> (200, ct, body)
          | `Ok None -> (404, "text/plain", "not found\n")
          | `Err -> (500, "text/plain", "internal error\n")
        in
        Mutex.lock p.p_mutex;
        p.p_response <- Some resp;
        Condition.signal p.p_cond;
        Mutex.unlock p.p_mutex)
      pend;
    List.length pend

  let stop t =
    Mutex.lock t.a_q_mutex;
    t.a_accepting <- false;
    let leftover = List.rev t.a_queue in
    t.a_queue <- [];
    Mutex.unlock t.a_q_mutex;
    List.iter
      (fun p ->
        Mutex.lock p.p_mutex;
        p.p_response <- Some (503, "text/plain", "shutting down\n");
        Condition.signal p.p_cond;
        Mutex.unlock p.p_mutex)
      leftover;
    Atomic.set t.a_stopping true;
    (* Wake a server domain parked in accept(2) with a throwaway
       connection to our own listening socket; it observes the stopping
       flag and exits. *)
    (try
       let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string t.a_host, t.a_port))
        with Unix.Unix_error _ -> ());
       try Unix.close fd with Unix.Unix_error _ -> ()
     with Unix.Unix_error _ -> ());
    (match t.a_domain with
    | Some d ->
        Domain.join d;
        t.a_domain <- None
    | None -> ());
    try Unix.close t.a_sock with Unix.Unix_error _ -> ()
end
