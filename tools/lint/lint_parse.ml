(* Pass 1: parsetree rules.  Every source is parsed with compiler-libs
   and walked with [Ast_iterator]; rules R1-R6 report a diagnostic
   (file:line:col, rule id, message) when a forbidden construct appears
   outside its sanctioned home.  This pass needs no build artifacts, so
   it runs on anything that parses — including sources that do not yet
   typecheck.  The typed-tree pass (Lint_typed) refines R3/R5 with real
   type information and owns R7-R9. *)

open Lint_common

let ident_name lid = try String.concat "." (Longident.flatten lid) with _ -> ""

let strip_stdlib name =
  match strip_prefix ~prefix:"Stdlib." name with Some r -> r | None -> name

let has_prefix ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* R1: references that reach for ambient randomness or wall-clock
   seeding.  [Random] covers the whole stdlib module; the [Unix] names
   are the classic seed sources. *)
let rng_banned name =
  has_prefix ~prefix:"Random." name
  || name = "Random"
  || name = "Unix.gettimeofday"
  || name = "Unix.time"

(* R2: multicore primitives. *)
let concurrency_banned name =
  List.exists
    (fun p -> has_prefix ~prefix:p name)
    [ "Domain."; "Mutex."; "Condition."; "Atomic." ]

(* R4: process control and stdout/stderr from library code. *)
let io_banned name =
  List.mem name
    [
      "exit";
      "print_string";
      "print_endline";
      "print_newline";
      "print_int";
      "print_float";
      "print_char";
      "prerr_endline";
      "prerr_string";
      "prerr_newline";
      "Printf.printf";
      "Printf.eprintf";
      "Format.printf";
      "Format.eprintf";
    ]

(* R5: combinators whose call (or partial application) allocates a
   closure or a fresh structure.  Array accessors that compile to loads
   and stores are whitelisted; everything else in [Array], all of
   [List], and any formatting is banned inside a hot fence. *)
let array_access_whitelist =
  [ "get"; "set"; "unsafe_get"; "unsafe_set"; "length"; "blit"; "fill"; "unsafe_blit"; "unsafe_fill" ]

let allocating name =
  match String.index_opt name '.' with
  | Some i -> (
      let m = String.sub name 0 i in
      let rest = String.sub name (i + 1) (String.length name - i - 1) in
      match m with
      | "List" | "Printf" | "Format" -> true
      | "Array" -> not (List.mem rest array_access_whitelist)
      | _ -> false)
  | None -> name = "@" || name = "^"

(* R5, Bigarray leg.  The EM hot state lives on [Bigarray.Array1]
   buffers, so fences must admit the accessors that compile to plain
   loads and stores — and nothing else: [create] maps fresh memory,
   [sub]/[slice] allocate proxy records.  [unsafe_*] accessors have the
   dual constraint: they skip bounds checks, so they are confined TO
   the fences, where the index arithmetic is audited; an unsafe access
   in ordinary code is a diagnostic even though it does not allocate. *)
(* R5, lib/em Array leg.  The EM sweep state is plain [float array]
   buffers, and the same bargain holds there: [Array.unsafe_*] in
   lib/em is confined to the hot fences. *)
let array_unsafe name = has_prefix ~prefix:"Array.unsafe_" name

let bigarray_access_whitelist =
  [ "get"; "set"; "unsafe_get"; "unsafe_set"; "dim"; "fill"; "blit"; "unsafe_fill"; "unsafe_blit" ]

let bigarray_path path = path = "Bigarray" || has_prefix ~prefix:"Bigarray." path

(* Member access through a [Bigarray] array-op submodule
   ([Bigarray.Array1.get]) or a registered top-level alias
   ([module Ba = Bigarray.Array1], so [Ba.get]).  Members of the bare
   [Bigarray] module itself — the kind and layout values [float64],
   [c_layout], ... — are plain constants and not array operations, so
   they are deliberately not captured. *)
let bigarray_member ~aliases name =
  match String.rindex_opt name '.' with
  | None -> None
  | Some i ->
      let path = String.sub name 0 i in
      let member = String.sub name (i + 1) (String.length name - i - 1) in
      let qualifies =
        has_prefix ~prefix:"Bigarray." path
        || List.exists (fun a -> a = path || has_prefix ~prefix:(a ^ ".") path) aliases
      in
      if qualifies then Some member else None

let bigarray_aliases str =
  let acc = ref [] in
  let open Ast_iterator in
  let module_binding self (mb : Parsetree.module_binding) =
    (match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
    | Some name, Parsetree.Pmod_ident { txt; _ } ->
        if bigarray_path (ident_name txt) then acc := name :: !acc
    | _ -> ());
    default_iterator.module_binding self mb
  in
  let it = { default_iterator with module_binding } in
  it.structure it str;
  !acc

(* R3: syntactic float-ness.  This is an approximation — pass 1 has no
   typer — but it is cheap, runs on sources that do not compile, and
   covers the overwhelmingly common literal/arithmetic shapes; the
   typed pass catches the rest from [Typedtree] types. *)
let float_arith = [ "+."; "-."; "*."; "/."; "**"; "~-."; "~+." ]

let float_returning =
  [
    "float_of_int";
    "float_of_string";
    "abs_float";
    "sqrt";
    "log";
    "log10";
    "exp";
    "ceil";
    "floor";
    "mod_float";
    "atan";
    "atan2";
    "cos";
    "sin";
    "tan";
    "min_float";
    "max_float";
  ]

let float_consts = [ "infinity"; "neg_infinity"; "nan"; "epsilon_float"; "max_float"; "min_float" ]

(* Project registry: idents that are floats wherever they appear in
   this codebase (quantile/threshold machinery of Theorems 1-2). *)
let known_float_idents =
  [ "threshold"; "tolerance"; "eps"; "log_likelihood"; "logl"; "mass_threshold"; "qdelay" ]

let float_module_non_float =
  [
    "Float.equal";
    "Float.compare";
    "Float.is_nan";
    "Float.is_finite";
    "Float.is_integer";
    "Float.to_int";
    "Float.to_string";
    "Float.sign_bit";
  ]

let rec is_floatish (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt; _ } ->
      let name = strip_stdlib (ident_name txt) in
      List.mem name float_consts || List.mem name known_float_idents
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      let name = strip_stdlib (ident_name txt) in
      List.mem name float_arith || List.mem name float_returning
      || (has_prefix ~prefix:"Float." name && not (List.mem name float_module_non_float))
  | Pexp_constraint (inner, { ptyp_desc = Ptyp_constr ({ txt; _ }, []); _ }) ->
      ident_name txt = "float" || is_floatish inner
  | _ -> false

let is_abs_application (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      let name = strip_stdlib (ident_name txt) in
      name = "abs_float" || name = "Float.abs"
  | _ -> false

(* ------------------------------------------------------------------ *)
(* One file. *)

type context = {
  x_file : string; (* path as reported in diagnostics *)
  x_rel : string; (* repo-relative path used for classification *)
  x_hot : (int * int) list;
  mutable x_ba_aliases : string list; (* top-level aliases of Bigarray.* *)
  mutable x_diags : diag list;
}

let report ctx ~loc ~rule message =
  let p = loc.Location.loc_start in
  ctx.x_diags <-
    mk ~file:ctx.x_file ~line:p.Lexing.pos_lnum
      ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol)
      ~rule message
    :: ctx.x_diags

let in_hot ctx line = in_ranges ctx.x_hot line

let check_ident ctx ~loc name =
  let name = strip_stdlib name in
  let line = loc.Location.loc_start.Lexing.pos_lnum in
  if rng_banned name && not (rng_home ctx.x_rel) then
    report ctx ~loc ~rule:"R1"
      (name
     ^ " breaks the pre-split RNG determinism contract; draw from a Stats.Rng stream (lib/stats/rng.ml is the only sanctioned home)");
  if concurrency_banned name && not (concurrency_home ctx.x_rel) then
    report ctx ~loc ~rule:"R2"
      (name
     ^ " outside lib/stats/pool.ml, lib/stats/par.ml, lib/obs/ or lib/fleet/; route parallelism through Stats.Pool");
  if in_lib ctx.x_rel && io_banned name then
    report ctx ~loc ~rule:"R4"
      (name ^ " in library code; binaries own process control and stdout");
  if in_hot ctx line && allocating name then
    report ctx ~loc ~rule:"R5"
      (name ^ " allocates inside a (* lint: hot *) region");
  if in_em ctx.x_rel && array_unsafe name && not (in_hot ctx line) then
    report ctx ~loc ~rule:"R5"
      (name
     ^ " skips bounds checks outside a (* lint: hot *) fence; unsafe Array access in lib/em belongs inside an audited hot region");
  match bigarray_member ~aliases:ctx.x_ba_aliases name with
  | None -> ()
  | Some member ->
      if in_hot ctx line then begin
        if not (List.mem member bigarray_access_whitelist) then
          report ctx ~loc ~rule:"R5"
            (name
           ^ " allocates inside a (* lint: hot *) region; only the load/store Bigarray accessors are fence-safe")
      end
      else if has_prefix ~prefix:"unsafe_" member then
        report ctx ~loc ~rule:"R5"
          (name
         ^ " skips bounds checks outside a (* lint: hot *) fence; unsafe Bigarray access belongs inside an audited hot region")

let comparison_ops = [ "="; "<>" ]
let ordered_ops = [ "<"; "<="; ">"; ">=" ]

let check_apply ctx ~loc fname (args : (Asttypes.arg_label * Parsetree.expression) list) =
  if float_cmp_home ctx.x_rel then ()
  else
    let operands = List.map snd args in
    let fname = strip_stdlib fname in
    if (List.mem fname comparison_ops || fname = "compare") && List.length operands >= 2
       && List.exists is_floatish operands
    then
      report ctx ~loc ~rule:"R3"
        ("float operand under polymorphic " ^ fname
       ^ "; exact float equality corrupts the F(2d*) threshold logic — use Stats.Float_cmp")
    else if List.mem fname ordered_ops && List.exists is_abs_application operands then
      report ctx ~loc ~rule:"R3"
        "hand-rolled abs_float epsilon test; use Stats.Float_cmp.approx_eq"

let walk_structure ctx str =
  let open Ast_iterator in
  let expr self (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> check_ident ctx ~loc:e.pexp_loc (ident_name txt)
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
        check_apply ctx ~loc:e.pexp_loc (ident_name txt) args
    | Pexp_construct ({ txt; _ }, _)
      when ident_name txt = "::"
           && in_hot ctx e.pexp_loc.Location.loc_start.Lexing.pos_lnum ->
        report ctx ~loc:e.pexp_loc ~rule:"R5" "list cons allocates inside a (* lint: hot *) region"
    | _ -> ());
    default_iterator.expr self e
  in
  let it = { default_iterator with expr } in
  it.structure it str

let parse_structure ~file src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf file;
  Parse.implementation lexbuf

(* The parse-pass diagnostics of one prepared file, unsorted and
   unsuppressed; [Dcl_lint] merges them with the typed pass and applies
   the suppressions once.  [mli_exists]: [None] checks the filesystem
   next to the file's disk path; tests pass [Some _] to pin the
   answer. *)
let check ?mli_exists (fi : file_info) =
  let ctx =
    { x_file = fi.f_path; x_rel = fi.f_rel; x_hot = fi.f_hot; x_ba_aliases = []; x_diags = [] }
  in
  let parse_diags =
    try
      let str = parse_structure ~file:fi.f_path fi.f_src in
      ctx.x_ba_aliases <- bigarray_aliases str;
      walk_structure ctx str;
      []
    with
    | Syntaxerr.Error _ ->
        [ mk ~file:fi.f_path ~line:1 ~col:0 ~rule:"R0" "syntax error; cannot lint" ]
    | e ->
        [ mk ~file:fi.f_path ~line:1 ~col:0 ~rule:"R0" ("parse failure: " ^ Printexc.to_string e) ]
  in
  (if in_lib fi.f_rel && Filename.check_suffix fi.f_rel ".ml" then
     let exists =
       match mli_exists with
       | Some b -> b
       | None ->
           fi.f_disk_path <> ""
           && Sys.file_exists (Filename.chop_suffix fi.f_disk_path ".ml" ^ ".mli")
     in
     if not exists then
       ctx.x_diags <-
         mk ~file:fi.f_path ~line:1 ~col:0 ~rule:"R6"
           ("module " ^ Filename.basename fi.f_rel ^ " exposes its full implementation; add a .mli")
         :: ctx.x_diags);
  ctx.x_diags @ fi.f_fence_diags @ malformed_diags fi @ parse_diags

(* Standalone parse-only lint of one source, as dcl-lint v1 behaved:
   used by the unit tests and anywhere no .cmt is available. *)
let lint_source ?(disk_path = "") ?mli_exists ~path src =
  let fi = file_info ~disk_path ~path src in
  apply_suppressions fi.f_directives (sort_diags (check ?mli_exists fi))
