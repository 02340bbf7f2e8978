(* R8 [determinism], plus the type-resolved upgrades of R3 and R5 that
   the parse pass approximates syntactically.

   R8 has three legs, all serving the bit-identical-fingerprint
   contract (ROADMAP items 1-3):

   - Hashtbl iteration order is unspecified, so any
     [Hashtbl.iter/fold/to_seq*] in library code must sit under a sort
     at the collection point.  "Under a sort" is judged on the typed
     tree: the iteration is fine anywhere inside the argument subtree
     of a [List.sort]/[Array.sort]-family application, including the
     data side of a [|>] / [@@] pipe whose function side sorts.

   - Physical equality ([==] / [!=]) on floats compares boxes, not
     values, and is never deterministic across allocators.

   - Wall-clock reads ([Sys.time], [Unix.gettimeofday], [Unix.time])
     outside the sanctioned homes (lib/stats/rng.ml seeds, lib/obs
     timestamps) smuggle nondeterminism into library results.

   Typed R3: polymorphic [=] / [<>] / [compare] whose first operand
   *types* as float — catches [let eq (a : float) b = a = b], which no
   syntactic heuristic can — and every applied [Float.equal] /
   [Float.compare], which are the same exact comparison by name.  Typed R5: a let-binding that aliases a
   Bigarray [unsafe_*] accessor (or, in lib/em, an [Array.unsafe_*]
   one) is tracked by its [Ident], and any use of the alias outside a
   (* lint: hot *) fence is flagged, closing the rename loophole of the
   name-based pass. *)

open Lint_common
open Lint_tast

let sort_heads =
  [
    "List.sort";
    "List.sort_uniq";
    "List.stable_sort";
    "List.fast_sort";
    "Array.sort";
    "Array.stable_sort";
    "Array.fast_sort";
  ]

let hashtbl_iteration = function
  | "Hashtbl.iter" | "Hashtbl.fold" | "Hashtbl.to_seq" | "Hashtbl.to_seq_keys"
  | "Hashtbl.to_seq_values" ->
      true
  | _ -> false

let wall_clock = function
  | "Sys.time" | "Unix.gettimeofday" | "Unix.time" -> true
  | _ -> false

let contains_sort (e : Typedtree.expression) =
  let found = ref false in
  let open Tast_iterator in
  let expr self (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> if List.mem (norm_path p) sort_heads then found := true
    | _ -> ());
    if not !found then default_iterator.expr self e
  in
  let it = { default_iterator with expr } in
  it.expr it e;
  !found

let first_arg_is_float args =
  match List.find_opt (fun (_, a) -> a <> None) args with
  | Some (_, Some (a : Typedtree.expression)) -> is_float_ty a.exp_type
  | _ -> false

(* Bigarray array-op [unsafe_*] accessors, post-normalization:
   "Array1.unsafe_get", "Genarray.unsafe_set", ... *)
let is_unsafe_bigarray name =
  match split_last name with
  | Some (parent, last) ->
      List.mem parent [ "Array1"; "Array2"; "Array3"; "Genarray" ]
      && strip_prefix ~prefix:"unsafe_" last <> None
  | None -> false

let check (u : unit_ctx) =
  let fi = u.u_fi in
  let diags = ref [] in
  let lib = in_lib fi.f_rel in
  let unsafe_accessor name =
    is_unsafe_bigarray name || (in_em fi.f_rel && Lint_parse.array_unsafe name)
  in
  (* Pass A: collect let-bound aliases of unsafe accessors, wherever
     they appear in the unit. *)
  let aliases = ref [] in
  let open Tast_iterator in
  let collect_vb self (vb : Typedtree.value_binding) =
    (match (pat_var vb.vb_pat, vb.vb_expr.exp_desc) with
    | Some (id, name_loc), Texp_ident (p, _, _) ->
        let target = norm_path p in
        if unsafe_accessor target then aliases := (id, name_loc.txt, target) :: !aliases
    | _ -> ());
    default_iterator.value_binding self vb
  in
  let it = { default_iterator with value_binding = collect_vb } in
  it.structure it u.u_str;
  (* Pass B: the sorted-context walk. *)
  let sorted = ref false in
  let with_sorted f =
    let saved = !sorted in
    sorted := true;
    f ();
    sorted := saved
  in
  let expr self (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_apply (head, args) -> (
        match curried_head head with
        | Some n when List.mem n sort_heads ->
            with_sorted (fun () -> default_iterator.expr self e)
        | Some ("|>" | "@@")
          when List.exists
                 (function _, Some a -> contains_sort a | _ -> false)
                 args ->
            with_sorted (fun () -> default_iterator.expr self e)
        | Some n when hashtbl_iteration n && lib && not !sorted ->
            report_at diags ~file:fi.f_path ~loc:e.exp_loc ~rule:"R8"
              (n
             ^ " observes unspecified iteration order; sort at the collection \
                point (List.sort under the same expression) so exported results \
                are deterministic");
            default_iterator.expr self e
        | Some (("==" | "!=") as op) when first_arg_is_float args ->
            report_at diags ~file:fi.f_path ~loc:e.exp_loc ~rule:"R8"
              ("physical equality " ^ op
             ^ " on floats compares boxes, not values; use Stats.Float_cmp");
            default_iterator.expr self e
        | Some (("=" | "<>" | "compare") as op)
          when first_arg_is_float args && not (float_cmp_home fi.f_rel) ->
            report_at diags ~file:fi.f_path ~loc:e.exp_loc ~rule:"R3"
              ("polymorphic " ^ op
             ^ " on operands that type as float; exact float equality corrupts \
                the F(2d*) threshold logic — use Stats.Float_cmp");
            default_iterator.expr self e
        | Some (("Float.equal" | "Float.compare") as op) when not (float_cmp_home fi.f_rel) ->
            report_at diags ~file:fi.f_path ~loc:e.exp_loc ~rule:"R3"
              (op
             ^ " is an exact float comparison; use Stats.Float_cmp, or mark a \
                deliberate exact test with a reasoned lint: allow R3");
            default_iterator.expr self e
        | _ -> default_iterator.expr self e)
    | Texp_ident (p, _, _) ->
        (let n = norm_path p in
         if wall_clock n && lib && not (wallclock_home fi.f_rel) then
           report_at diags ~file:fi.f_path ~loc:e.exp_loc ~rule:"R8"
             (n
            ^ " reads the wall clock in library code; seeding lives in \
               lib/stats/rng.ml and timestamps in lib/obs");
         match p with
         | Path.Pident id ->
             List.iter
               (fun (aid, aname, target) ->
                 if Ident.same id aid && not (in_ranges fi.f_hot (loc_line e.exp_loc))
                 then
                   report_at diags ~file:fi.f_path ~loc:e.exp_loc ~rule:"R5"
                     (aname ^ " aliases " ^ target
                    ^ "; unsafe access (even renamed) belongs inside an audited \
                       (* lint: hot *) fence"))
               !aliases
         | _ -> ());
        default_iterator.expr self e
    | _ -> default_iterator.expr self e
  in
  let it = { default_iterator with expr } in
  it.structure it u.u_str;
  !diags
