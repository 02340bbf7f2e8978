(* R7 [domain-ownership]: a static race detector tailored to this
   repository's concurrency contract (DESIGN.md §11-13).  Three
   sub-checks:

   1. Every top-level mutable binding (ref / Atomic.t / Hashtbl.t /
      array / ... as the outermost constructor) in the ownership trees
      — lib/fleet, lib/obs, lib/stats — must carry an ownership
      annotation on its own line or the line above:

        (* lint: owner driver *)
        (* lint: owner worker *)
        (* lint: owner shared [guarded-by MUTEX] *)

   2. [shared] state must synchronize: its outermost type is Atomic.t
      (or Mutex/Condition), or the annotation names its guard with
      [guarded-by].

   3. Closures handed to the pool submission function ([Pool.run])
      or to [Domain.spawn] run in worker context:
      any read or write of [driver]-owned state reachable from such a
      closure — directly, or through unit-local functions it calls
      (computed to a fixpoint) — is a diagnostic.  This is exactly the
      Scheduler/Admin parked-route contract: driver-owned state is
      only ever touched between epochs on the driver's domain.

   Cross-unit reachability is resolved through the annotation table
   (built over every unit in the run), but calls into functions of
   *other* units are not followed — a worker closure must not touch
   driver state through a helper either, and the helper's own unit is
   analyzed when it is linted. *)

open Lint_common
open Lint_tast

type owned = {
  w_kind : owner_kind;
  w_qual : string; (* display name, e.g. "Pool.current" *)
}

type table = (string * string, owned) Hashtbl.t

let create_table () : table = Hashtbl.create 32

(* Owner directives of one unit, with use tracking for the dangling
   check. *)
type pending_owner = {
  p_line : int;
  p_kind : owner_kind;
  p_guard : string option;
  mutable p_used : bool;
}

let lookup (table : table) ~modname name =
  match split_last name with
  | Some (parent, last) -> Hashtbl.find_opt table (parent, last)
  | None -> Hashtbl.find_opt table (modname, name)

(* Phase 1 over one unit: attach owner annotations to top-level mutable
   bindings, populate the global table, and report missing/unguarded
   annotations (only inside the ownership trees) and dangling ones
   (anywhere typed). *)
let collect (table : table) (u : unit_ctx) =
  let fi = u.u_fi in
  let diags = ref [] in
  let owners =
    List.filter_map
      (function
        | Owner { o_line; o_kind; o_guard } ->
            Some { p_line = o_line; p_kind = o_kind; p_guard = o_guard; p_used = false }
        | _ -> None)
      fi.f_directives
  in
  let owner_at line =
    List.find_opt (fun p -> p.p_line = line || p.p_line = line - 1) owners
  in
  iter_top_bindings u.u_str (fun submodule (vb : Typedtree.value_binding) ->
      match pat_var vb.vb_pat with
      | Some (_, name_loc) -> (
          let name = name_loc.txt in
          let loc = vb.vb_pat.pat_loc in
          let container = mutable_container vb.vb_pat.pat_type in
          match (container, owner_at (loc_line loc)) with
          | None, None -> ()
          | None, Some p ->
              p.p_used <- true;
              report_at diags ~file:fi.f_path ~loc ~rule:"R0"
                ("owner annotation on " ^ name
               ^ ", which is not top-level mutable state (ref/Atomic/Hashtbl/array/...)")
          | Some kind, None ->
              if ownership_home fi.f_rel then
                report_at diags ~file:fi.f_path ~loc ~rule:"R7"
                  ("top-level mutable state " ^ name ^ " (" ^ kind
                 ^ ") needs an ownership annotation: (* lint: owner \
                    driver|worker|shared *)")
          | Some _, Some p ->
              p.p_used <- true;
              (if p.p_kind = Shared && (not (self_guarded vb.vb_pat.pat_type))
                  && p.p_guard = None
               then
                 report_at diags ~file:fi.f_path ~loc ~rule:"R7"
                   ("shared state " ^ name
                  ^ " is not Atomic-typed; name its lock with (* lint: owner \
                     shared guarded-by MUTEX *)"));
              let qual =
                (if submodule = "" then u.u_modname else submodule) ^ "." ^ name
              in
              let entry = { w_kind = p.p_kind; w_qual = qual } in
              Hashtbl.replace table (u.u_modname, name) entry;
              if submodule <> "" then Hashtbl.replace table (submodule, name) entry)
      | None -> ());
  List.iter
    (fun p ->
      if not p.p_used then
        report_at diags ~file:fi.f_path
          ~loc:
            {
              Location.loc_start =
                { Lexing.pos_fname = fi.f_path; pos_lnum = p.p_line; pos_bol = 0; pos_cnum = 0 };
              loc_end =
                { Lexing.pos_fname = fi.f_path; pos_lnum = p.p_line; pos_bol = 0; pos_cnum = 0 };
              loc_ghost = false;
            }
          ~rule:"R0"
          ("owner annotation (" ^ owner_kind_name p.p_kind
         ^ ") is not attached to a top-level mutable binding"))
    owners;
  !diags

(* ------------------------------------------------------------------ *)
(* Phase 2: worker-context reachability. *)

let submission_function name =
  name = "Domain.spawn"
  ||
  match split_last name with
  | Some ("Pool", "run") -> true
  | _ -> false

(* Driver-owned accesses appearing syntactically inside [e]. *)
let direct_accesses (table : table) ~modname (e : Typedtree.expression) =
  let acc = ref [] in
  let open Tast_iterator in
  let expr self (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> (
        let name = norm_path p in
        match lookup table ~modname name with
        | Some { w_kind = Driver; w_qual } -> acc := (w_qual, e.exp_loc) :: !acc
        | _ -> ())
    | _ -> ());
    default_iterator.expr self e
  in
  let it = { default_iterator with expr } in
  it.expr it e;
  List.rev !acc

(* Bare (unit-local) function names called inside [e], with call
   locations. *)
let local_calls (e : Typedtree.expression) =
  let acc = ref [] in
  let open Tast_iterator in
  let expr self (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); exp_loc; _ }, _) ->
        let name = norm_path p in
        if not (String.contains name '.') then acc := (name, exp_loc) :: !acc
    | _ -> ());
    default_iterator.expr self e
  in
  let it = { default_iterator with expr } in
  it.expr it e;
  List.rev !acc

let check (table : table) (u : unit_ctx) =
  let fi = u.u_fi in
  let modname = u.u_modname in
  let diags = ref [] in
  (* Unit-local call graph over top-level functions: name -> (direct
     driver accesses, callees), closed to a fixpoint so a worker
     closure calling [f] which calls [g] which reads driver state is
     still caught. *)
  let funs = Hashtbl.create 16 in
  iter_top_bindings u.u_str (fun _submodule vb ->
      match (pat_var vb.vb_pat, vb.vb_expr.exp_desc) with
      | Some (_, name_loc), Texp_function _ ->
          Hashtbl.replace funs name_loc.txt
            ( direct_accesses table ~modname vb.vb_expr,
              List.map fst (local_calls vb.vb_expr) )
      | _ -> ());
  let reach = Hashtbl.create 16 in
  let rec reachable name visiting =
    match Hashtbl.find_opt reach name with
    | Some r -> r
    | None ->
        if List.mem name visiting then []
        else (
          match Hashtbl.find_opt funs name with
          | None -> []
          | Some (own, callees) ->
              let r =
                List.map fst own
                @ List.concat_map (fun c -> reachable c (name :: visiting)) callees
              in
              let r = List.sort_uniq compare r in
              Hashtbl.replace reach name r;
              r)
  in
  let flag_closure (closure : Typedtree.expression) =
    List.iter
      (fun (qual, loc) ->
        report_at diags ~file:fi.f_path ~loc ~rule:"R7"
          ("driver-owned " ^ qual
         ^ " accessed from worker context (closure passed to Pool.run / \
            Domain.spawn); only the driver domain may touch it"))
      (direct_accesses table ~modname closure);
    List.iter
      (fun (callee, loc) ->
        match reachable callee [] with
        | [] -> ()
        | quals ->
            report_at diags ~file:fi.f_path ~loc ~rule:"R7"
              ("worker context reaches driver-owned " ^ String.concat ", " quals
             ^ " via " ^ callee))
      (local_calls closure)
  in
  let open Tast_iterator in
  let expr self (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_apply (head, args) -> (
        match head_name head with
        | Some name when submission_function name ->
            List.iter
              (fun (_, arg) ->
                match arg with
                | Some ({ Typedtree.exp_desc = Texp_function _; _ } as closure) ->
                    flag_closure closure
                | Some ({ Typedtree.exp_desc = Texp_ident (p, _, _); exp_loc; _ }) -> (
                    (* A named local function submitted directly. *)
                    let n = norm_path p in
                    if not (String.contains n '.') then
                      match reachable n [] with
                      | [] -> ()
                      | quals ->
                          report_at diags ~file:fi.f_path ~loc:exp_loc ~rule:"R7"
                            ("worker context reaches driver-owned "
                           ^ String.concat ", " quals ^ " via " ^ n))
                | _ -> ())
              args
        | _ -> ())
    | _ -> ());
    default_iterator.expr self e
  in
  let it = { default_iterator with expr } in
  it.structure it u.u_str;
  !diags
