(* sia-lint configuration: rule parameters with repo-specific defaults,
   optionally overridden / extended by [tools/lint/allow.sexp].

   The allow file is a sequence of top-level forms:

     (canonical_types (Bigint.t Rat.t ...))   ; replace the R1 type list
     (session_modules (Simplex Theory))       ; replace the R2 module list
     (worker_roots (sia_pool sia_core))       ; replace the R4 root libraries
     (layering (sia_numeric ()))              ; add/replace an R3 edge rule
     (module_layering (lib/check Sia_smt (Formula Atom ...)))
     (allow (rule R1) (file lib/x.ml) (contains "substring") (note "why"))

   [allow] entries drop findings post-hoc; everything else parameterizes
   the rules themselves. Per-site suppressions live in the source as
   [(* lint: allow <rule-tag> <reason> *)] comments (see suppress.ml). *)

type allow_entry = {
  a_rule : string;
  a_file : string; (* path relative to repo root, exact match *)
  a_contains : string option; (* substring of the message, if given *)
  a_note : string;
}

type t = {
  canonical_types : string list;
  (* R1: functions whose *first argument type* must not transitively
     contain a canonical type. Full Stdlib paths as the typedtree
     resolves them. *)
  r1_compare_fns : string list;
  (* R1: generic-Hashtbl accessors; the *key* type parameter of the
     first argument must not contain a canonical type (the default hash
     and structural equality are both representation-dependent). *)
  r1_hashtbl_fns : string list;
  (* R2: modules exposing a push/pop session discipline. *)
  session_modules : string list;
  (* R4: libraries whose code runs inside forked Pool workers; the
     scanned set is the dune dependency closure of these roots. *)
  worker_roots : string list;
  (* R3: library -> exact allowed (libraries ...) dependency set. *)
  layering : (string * string list) list;
  (* R3: (source dir, target lib prefix, allowed modules). Code under
     [source dir] may reference only the listed modules of the target
     library. *)
  module_layering : (string * string * string list) list;
  disabled : string list; (* rule tags, e.g. ["R2"] *)
  allow : allow_entry list;
}

let default =
  {
    canonical_types =
      [
        "Bigint.t";
        "Rat.t";
        "Delta.t";
        "Linexpr.t";
        "Formula.t";
        "Atom.t";
        "Key.t";
        (* Owns a reverse-lookup hash table: structural equality and
           polymorphic hashing are representation-dependent; use
           Strdict.equal. *)
        "Strdict.t";
        (* The simplex kernel's numbers: a native fraction or a Rat
           fallback, so structural equality misses equal values held in
           different forms. Use Smallq.compare / Smallq.delta_compare. *)
        "Smallq.t";
        "Smallq.delta";
      ];
    r1_compare_fns =
      [
        "Stdlib.compare";
        "Stdlib.=";
        "Stdlib.<>";
        "Stdlib.<";
        "Stdlib.>";
        "Stdlib.<=";
        "Stdlib.>=";
        "Stdlib.min";
        "Stdlib.max";
        "Stdlib.Hashtbl.hash";
        "Stdlib.Hashtbl.seeded_hash";
        "Stdlib.Hashtbl.hash_param";
        "Stdlib.List.mem";
        "Stdlib.List.assoc";
        "Stdlib.List.assoc_opt";
        "Stdlib.List.mem_assoc";
        "Stdlib.List.remove_assoc";
      ];
    r1_hashtbl_fns =
      [
        "Stdlib.Hashtbl.find";
        "Stdlib.Hashtbl.find_opt";
        "Stdlib.Hashtbl.find_all";
        "Stdlib.Hashtbl.mem";
        "Stdlib.Hashtbl.add";
        "Stdlib.Hashtbl.replace";
        "Stdlib.Hashtbl.remove";
      ];
    (* Session and Mpool joined with the sample-generation ladder
       (DESIGN.md §20): neither exposes push/pop today — Session scopes
       enumeration state with activation literals and Mpool is
       append-only — but covering them here means any future scoped
       operation on either is checked from the day it appears. *)
    session_modules = [ "Simplex"; "Theory"; "Session"; "Mpool" ];
    worker_roots = [ "sia_pool"; "sia_core" ];
    layering =
      [
        (* The independent auditor must stay independent: only the term
           language of the solver, never solver internals. *)
        ("sia_numeric", []);
        ("sia_check", [ "sia_numeric"; "sia_smt" ]);
      ];
    module_layering =
      [
        (* lib/check may use the smt *types* (term language + certificate
           vocabulary) but none of the engines it is auditing. *)
        ("lib/check", "Sia_smt", [ "Formula"; "Atom"; "Linexpr"; "Cert" ]);
      ];
    disabled = [];
    allow = [];
  }

let rule_enabled t rule = not (List.mem rule t.disabled)

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

let parse_allow_entry rest =
  let get name =
    match Sexp_lite.field name rest with
    | Some [ Sexp_lite.Atom v ] -> Some v
    | _ -> None
  in
  match (get "rule", get "file") with
  | Some r, Some f ->
    {
      a_rule = r;
      a_file = f;
      a_contains = get "contains";
      a_note = (match get "note" with Some n -> n | None -> "");
    }
  | _ ->
    raise (Sexp_lite.Parse_error "allow entry needs (rule ...) and (file ...)")

let load_file path base =
  let forms = Sexp_lite.parse_file path in
  let list_field name current =
    match Sexp_lite.field name forms with
    | Some [ (Sexp_lite.List _ as l) ] -> Sexp_lite.atoms l
    | Some l -> List.map Sexp_lite.atom l
    | None -> current
  in
  let layering =
    match Sexp_lite.fields "layering" forms with
    | [] -> base.layering
    | entries ->
      List.map
        (function
          | [ Sexp_lite.Atom lib; (Sexp_lite.List _ as deps) ] ->
            (lib, Sexp_lite.atoms deps)
          | _ -> raise (Sexp_lite.Parse_error "layering entry: (lib (deps...))"))
        entries
  in
  let module_layering =
    match Sexp_lite.fields "module_layering" forms with
    | [] -> base.module_layering
    | entries ->
      List.map
        (function
          | [ Sexp_lite.Atom dir; Sexp_lite.Atom target; (Sexp_lite.List _ as mods) ] ->
            (dir, target, Sexp_lite.atoms mods)
          | _ ->
            raise
              (Sexp_lite.Parse_error "module_layering entry: (dir Target (mods...))"))
        entries
  in
  let allow = List.map parse_allow_entry (Sexp_lite.fields "allow" forms) in
  {
    base with
    canonical_types = list_field "canonical_types" base.canonical_types;
    session_modules = list_field "session_modules" base.session_modules;
    worker_roots = list_field "worker_roots" base.worker_roots;
    disabled = list_field "disabled" base.disabled;
    layering;
    module_layering;
    allow = base.allow @ allow;
  }

let load ?path () =
  match path with
  | Some p when Sys.file_exists p -> load_file p default
  | _ -> default

(* Does an allow entry cover this finding? *)
let allowlisted t (f : Finding.t) =
  List.exists
    (fun e ->
      String.equal e.a_rule f.rule
      && String.equal e.a_file f.file
      &&
      match e.a_contains with
      | None -> true
      | Some sub ->
        let n = String.length sub and m = String.length f.msg in
        let rec at i = i + n <= m && (String.equal (String.sub f.msg i n) sub || at (i + 1)) in
        n = 0 || at 0)
    t.allow
