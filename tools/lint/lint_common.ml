(* Shared substrate of the two-pass dcl-lint analyzer: the diagnostic
   type and rule table, the lexical comment scanner that recovers the
   lint directives the parser drops (suppressions, hot fences,
   ownership annotations, fixture paths, expectations), repository path
   classification, and the suppression filter.

   The parsetree pass (Lint_parse, rules R0-R6) and the typed-tree
   pass (Lint_typed over .cmt files, rules R7-R9 plus the
   type-resolved R3/R5 upgrades) both build on this module; the
   orchestration lives in Dcl_lint. *)

type diag = {
  d_file : string;
  d_line : int;
  d_col : int;
  d_rule : string; (* short id, e.g. "R3" *)
  d_id : string; (* long id, e.g. "float-cmp" *)
  d_message : string;
}

let rules =
  [
    ("R0", "bad-lint-comment");
    ("R1", "rng-containment");
    ("R2", "domain-containment");
    ("R3", "float-cmp");
    ("R4", "io-containment");
    ("R5", "hot-alloc");
    ("R6", "missing-mli");
    ("R7", "domain-ownership");
    ("R8", "determinism");
    ("R9", "lock-safety");
  ]

(* One-line rule summaries: shared by --help and the SARIF rule
   catalog, so CI annotations carry the same wording as the CLI. *)
let rule_help =
  [
    ("R0", "malformed lint directive (unsuppressible)");
    ("R1", "Random.* and wall-clock seeding only in lib/stats/rng.ml");
    ( "R2",
      "Domain/Mutex/Condition/Atomic only in pool.ml, par.ml, lib/obs/, \
       lib/fleet/" );
    ( "R3",
      "no =, <>, compare, Float.equal, Float.compare on floats; no hand-rolled \
       abs_float epsilon" );
    ("R4", "no exit / printf / prerr in lib/");
    ( "R5",
      "no allocating combinators or Bigarray create/sub inside (* lint: hot *) \
       fences; no unsafe Bigarray access, nor unsafe Array access in lib/em, \
       outside them" );
    ("R6", "lib/ modules must ship a .mli");
    ( "R7",
      "top-level mutable state in lib/fleet, lib/obs, lib/stats carries an \
       ownership annotation; driver-owned state is unreachable from pool-worker \
       closures" );
    ( "R8",
      "Hashtbl iteration order must be sorted at collection; no physical \
       equality on floats; no wall-clock reads outside rng.ml / lib/obs" );
    ( "R9",
      "every Mutex.lock dominates a Mutex.unlock on all paths, including \
       exceptional ones (Fun.protect or a no-raise span)" );
  ]

let long_id short = try List.assoc short rules with Not_found -> short

(* Accept either the short or the long spelling of a rule id. *)
let normalize_rule s =
  let s = String.lowercase_ascii s in
  let matches (short, long) =
    String.lowercase_ascii short = s || String.lowercase_ascii long = s
  in
  match List.find_opt matches rules with
  | Some (short, _) -> Some short
  | None -> None

let mk ~file ~line ~col ~rule message =
  { d_file = file; d_line = line; d_col = col; d_rule = rule; d_id = long_id rule; d_message = message }

let sort_diags diags =
  List.sort
    (fun a b ->
      match compare a.d_file b.d_file with
      | 0 ->
          if a.d_line <> b.d_line then compare a.d_line b.d_line
          else compare a.d_col b.d_col
      | c -> c)
    diags

(* ------------------------------------------------------------------ *)
(* Comment scanning.  The parser drops comments, and the suppression
   grammar, the hot fences and the ownership annotations all live in
   comments, so a small lexical pass recovers them: it tracks string
   literals, char literals and nested comments well enough for this
   codebase's surface syntax. *)

type comment = { c_line : int; c_text : string }

let scan_comments src =
  let n = String.length src in
  let out = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let buf = Buffer.create 64 in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
      let start_line = !line in
      Buffer.clear buf;
      let depth = ref 1 in
      i := !i + 2;
      while !depth > 0 && !i < n do
        if src.[!i] = '\n' then begin
          incr line;
          Buffer.add_char buf '\n';
          incr i
        end
        else if src.[!i] = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
          incr depth;
          Buffer.add_string buf "(*";
          i := !i + 2
        end
        else if src.[!i] = '*' && !i + 1 < n && src.[!i + 1] = ')' then begin
          decr depth;
          if !depth > 0 then Buffer.add_string buf "*)";
          i := !i + 2
        end
        else begin
          Buffer.add_char buf src.[!i];
          incr i
        end
      done;
      out := { c_line = start_line; c_text = Buffer.contents buf } :: !out
    end
    else if c = '"' then begin
      (* String literal: skip to the unescaped closing quote. *)
      incr i;
      let fin = ref false in
      while (not !fin) && !i < n do
        match src.[!i] with
        | '\\' -> i := !i + 2
        | '"' ->
            fin := true;
            incr i
        | '\n' ->
            incr line;
            incr i
        | _ -> incr i
      done
    end
    else if c = '\'' then
      (* Char literal ['x'] or ['\n']; anything else (a type variable)
         is just a quote. *)
      if !i + 2 < n && src.[!i + 1] <> '\\' && src.[!i + 2] = '\'' then i := !i + 3
      else if !i + 1 < n && src.[!i + 1] = '\\' then begin
        let j = ref (!i + 2) in
        while !j < n && !j <= !i + 5 && src.[!j] <> '\'' do
          incr j
        done;
        if !j < n && src.[!j] = '\'' then i := !j + 1 else incr i
      end
      else incr i
    else incr i
  done;
  List.rev !out

(* Ownership annotation grammar (R7, DESIGN.md §14):

     (* lint: owner driver *)                    driver-domain only
     (* lint: owner worker *)                    pool-worker local
     (* lint: owner shared *)                    Atomic-typed state
     (* lint: owner shared guarded-by MUTEX *)   mutex-protected state

   The annotation sits on the declaration's own line or the line
   directly above it.  [shared] without an Atomic/Mutex/Condition type
   must name its guard. *)
type owner_kind = Driver | Worker | Shared

let owner_kind_name = function
  | Driver -> "driver"
  | Worker -> "worker"
  | Shared -> "shared"

type directive =
  | Allow of { a_rule : string; a_line : int }
  | Hot_start of int
  | Hot_end of int
  | Owner of { o_line : int; o_kind : owner_kind; o_guard : string option }
  | Expect of { e_rule : string; e_line : int }
  | Fixture_path of string
  | Malformed of { m_line : int; m_message : string }

let split_words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\n')
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let strip_prefix ~prefix s =
  if String.length s >= String.length prefix
     && String.sub s 0 (String.length prefix) = prefix
  then Some (String.sub s (String.length prefix) (String.length s - String.length prefix))
  else None

let parse_owner c_line words =
  let malformed m = Some (Malformed { m_line = c_line; m_message = m }) in
  let kind_of = function
    | "driver" -> Some Driver
    | "worker" -> Some Worker
    | "shared" -> Some Shared
    | _ -> None
  in
  match words with
  | [] -> malformed "owner needs a kind: driver, worker or shared"
  | kind :: rest -> (
      match kind_of kind with
      | None ->
          malformed ("unknown owner kind " ^ kind ^ " (driver, worker or shared)")
      | Some k -> (
          match (k, rest) with
          | _, [] -> Some (Owner { o_line = c_line; o_kind = k; o_guard = None })
          | Shared, [ "guarded-by"; guard ] ->
              Some (Owner { o_line = c_line; o_kind = Shared; o_guard = Some guard })
          | Shared, [ "guarded-by" ] -> malformed "guarded-by needs a mutex name"
          | (Driver | Worker), "guarded-by" :: _ ->
              malformed "guarded-by only qualifies owner shared"
          | _, w :: _ -> malformed ("unexpected token after owner kind: " ^ w)))

let parse_directive { c_line; c_text } =
  let t = String.trim c_text in
  match strip_prefix ~prefix:"lint:" t with
  | Some rest -> (
      match split_words rest with
      | [ "hot" ] -> Some (Hot_start c_line)
      | [ "end-hot" ] -> Some (Hot_end c_line)
      | "owner" :: rest -> parse_owner c_line rest
      | "allow" :: rule :: _ :: _ -> (
          match normalize_rule rule with
          | Some "R0" | None ->
              Some (Malformed { m_line = c_line; m_message = "unknown rule in allow: " ^ rule })
          | Some r -> Some (Allow { a_rule = r; a_line = c_line }))
      | [ "allow"; rule ] ->
          Some
            (Malformed
               { m_line = c_line; m_message = "allow " ^ rule ^ " needs a reason" })
      | [ "allow" ] ->
          Some (Malformed { m_line = c_line; m_message = "allow needs a rule and a reason" })
      | _ ->
          Some (Malformed { m_line = c_line; m_message = "unrecognized lint directive: " ^ rest }))
  | None -> (
      match strip_prefix ~prefix:"expect:" t with
      | Some rest -> (
          match split_words rest with
          | [ rule ] -> (
              match normalize_rule rule with
              | Some r -> Some (Expect { e_rule = r; e_line = c_line })
              | None ->
                  Some
                    (Malformed { m_line = c_line; m_message = "unknown rule in expect: " ^ rule }))
          | _ -> Some (Malformed { m_line = c_line; m_message = "expect takes one rule id" }))
      | None -> (
          match strip_prefix ~prefix:"lint-fixture:" t with
          | Some rest -> Some (Fixture_path (String.trim rest))
          | None -> None))

(* Fold the fence directives into inclusive line ranges; unmatched
   fences are diagnostics, not crashes. *)
let hot_ranges ~file directives =
  let ranges = ref [] in
  let bad = ref [] in
  let open_start = ref None in
  List.iter
    (fun d ->
      match d with
      | Hot_start l -> (
          match !open_start with
          | None -> open_start := Some l
          | Some _ ->
              bad := mk ~file ~line:l ~col:0 ~rule:"R0" "nested (* lint: hot *) fence" :: !bad)
      | Hot_end l -> (
          match !open_start with
          | Some s ->
              ranges := (s, l) :: !ranges;
              open_start := None
          | None ->
              bad :=
                mk ~file ~line:l ~col:0 ~rule:"R0" "(* lint: end-hot *) without an open fence"
                :: !bad)
      | _ -> ())
    directives;
  (match !open_start with
  | Some s ->
      bad := mk ~file ~line:s ~col:0 ~rule:"R0" "unclosed (* lint: hot *) fence" :: !bad
  | None -> ());
  (List.rev !ranges, List.rev !bad)

let in_ranges ranges line = List.exists (fun (a, b) -> line >= a && line <= b) ranges

(* ------------------------------------------------------------------ *)
(* Path classification.  Files are judged by where they sit in the
   repository ([lib/] vs [bin/] vs [bench/]); fixture files declare a
   virtual location with [(* lint-fixture: lib/... *)] so every rule
   can be exercised from the fixture corpora. *)

let segments path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "" && s <> ".")

(* The repo-relative path: the suffix starting at the last [lib], [bin]
   or [bench] segment, so absolute paths classify the same way. *)
let rel_path path =
  let segs = segments path in
  let rec last_root acc rev =
    match rev with
    | [] -> None
    | s :: _ when s = "lib" || s = "bin" || s = "bench" -> Some (s :: acc)
    | s :: tl -> last_root (s :: acc) tl
  in
  match last_root [] (List.rev segs) with
  | Some suffix -> String.concat "/" suffix
  | None -> String.concat "/" segs

let in_lib rel = match segments rel with "lib" :: _ -> true | _ -> false

(* The EM library, whose sweep state lives in float arrays: there the
   R5 fence discipline covers [Array]'s unchecked accessors as well. *)
let in_em rel = match segments rel with "lib" :: "em" :: _ -> true | _ -> false

let rng_home rel = rel = "lib/stats/rng.ml"
let float_cmp_home rel = rel = "lib/stats/float_cmp.ml"

let concurrency_home rel =
  match rel with
  | "lib/stats/pool.ml" | "lib/stats/par.ml" -> true
  | _ -> (
      match segments rel with
      | "lib" :: "obs" :: _ -> true
      (* The fleet layer owns the pool fan-out over paths, so it is a
         legitimate home for domain primitives. *)
      | "lib" :: "fleet" :: _ -> true
      | _ -> false)

(* R7 ownership discipline applies where the concurrent actors live:
   the pool and its clients' shared state. *)
let ownership_home rel =
  match segments rel with
  | "lib" :: ("fleet" | "obs" | "stats") :: _ -> true
  | _ -> false

(* R8 wall-clock containment: the RNG module owns seeding, lib/obs owns
   monotonic timestamps (and translates them for export). *)
let wallclock_home rel =
  rng_home rel || (match segments rel with "lib" :: "obs" :: _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Suppression: an allow comment covers its own line and the next. *)

let apply_suppressions directives diags =
  let allows =
    List.filter_map (function Allow { a_rule; a_line } -> Some (a_rule, a_line) | _ -> None) directives
  in
  List.filter
    (fun d ->
      d.d_rule = "R0"
      || not
           (List.exists
              (fun (rule, line) -> rule = d.d_rule && (d.d_line = line || d.d_line = line + 1))
              allows))
    diags

(* ------------------------------------------------------------------ *)
(* Per-file front matter shared by both passes: source text, comments,
   directives, fixture-declared location, hot fences. *)

type file_info = {
  f_path : string; (* path as reported in diagnostics *)
  f_rel : string; (* repo-relative path used for classification *)
  f_src : string;
  f_directives : directive list;
  f_hot : (int * int) list;
  f_fence_diags : diag list; (* unmatched-fence R0s *)
  f_disk_path : string; (* "" when linting an in-memory source *)
}

let file_info ?(disk_path = "") ~path src =
  let comments = scan_comments src in
  let directives = List.filter_map parse_directive comments in
  let fixture_path =
    List.find_map (function Fixture_path p -> Some p | _ -> None) directives
  in
  let effective = match fixture_path with Some p -> p | None -> path in
  let hot, fence_diags = hot_ranges ~file:path directives in
  {
    f_path = path;
    f_rel = rel_path effective;
    f_src = src;
    f_directives = directives;
    f_hot = hot;
    f_fence_diags = fence_diags;
    f_disk_path = disk_path;
  }

let malformed_diags fi =
  List.filter_map
    (function
      | Malformed { m_line; m_message } ->
          Some (mk ~file:fi.f_path ~line:m_line ~col:0 ~rule:"R0" m_message)
      | _ -> None)
    fi.f_directives

(* ------------------------------------------------------------------ *)
(* Filesystem helpers. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let rec ml_files path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.concat_map (fun entry ->
           if entry = "_build" || entry.[0] = '.' then []
           else ml_files (Filename.concat path entry))
  else if Filename.check_suffix path ".ml" then [ path ]
  else []

(* The .cmt walker must descend into dune's dot-directories
   ([.stats.objs/byte/...]), so unlike [ml_files] it skips nothing. *)
let rec cmt_files path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.concat_map (fun entry -> cmt_files (Filename.concat path entry))
  else if Filename.check_suffix path ".cmt" then [ path ]
  else []

(* ------------------------------------------------------------------ *)
(* Output. *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 32 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let diag_to_json d =
  Printf.sprintf
    {|{"file":"%s","line":%d,"col":%d,"rule":"%s","id":"%s","message":"%s"}|}
    (json_escape d.d_file) d.d_line d.d_col d.d_rule d.d_id (json_escape d.d_message)

let print_diags ~json diags =
  if json then
    print_string ("[" ^ String.concat ",\n " (List.map diag_to_json diags) ^ "]\n")
  else
    List.iter
      (fun d ->
        Printf.printf "%s:%d:%d [%s/%s] %s\n" d.d_file d.d_line d.d_col d.d_rule d.d_id d.d_message)
      diags
