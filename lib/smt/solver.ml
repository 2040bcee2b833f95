open Sia_numeric
module Trace = Sia_trace.Trace

(* Atom-keyed tables must hash/compare through Atom's own functions:
   atoms embed Rat coefficients, and the polymorphic hash would key on
   their physical representation. *)
module AtomTbl = Hashtbl.Make (Atom)

type model = (int * Rat.t) list

type result =
  | Sat of model
  | Unsat
  | Unknown

let result_label = function
  | Sat _ -> "sat"
  | Unsat -> "unsat"
  | Unknown -> "unknown"

let model_value m v = match List.assoc_opt v m with Some r -> r | None -> Rat.zero

(* Strict variant for call sites that require a total model (the
   certificate checker, countermodel extraction): a missing assignment is
   a bug, not a zero. *)
let model_value_strict m v =
  match List.assoc_opt v m with
  | Some r -> r
  | None ->
    invalid_arg
      (Printf.sprintf "Solver.model_value_strict: variable %d unassigned" v)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

type stats = {
  queries : int;
  sat_answers : int;
  unsat_answers : int;
  unknown_answers : int;
  cache_hits : int;
  encodings : int;
  instances : int;
  theory_rounds : int;
  conflicts : int;
  propagations : int;
  restarts : int;
  pivots : int;
  tableau_rebuilds : int;
  reused_rounds : int;
  extended_rounds : int;
  pool_hits : int;
  underapprox_solves : int;
  gen_fallbacks : int;
  cegqi_instantiations : int;
  encode_time : float;
  search_time : float;
  theory_time : float;
  cert_lemmas : int;
  cert_proofs : int;
  cert_models : int;
  cert_rejections : int;
  cert_time : float;
}

let stats_zero =
  {
    queries = 0;
    sat_answers = 0;
    unsat_answers = 0;
    unknown_answers = 0;
    cache_hits = 0;
    encodings = 0;
    instances = 0;
    theory_rounds = 0;
    conflicts = 0;
    propagations = 0;
    restarts = 0;
    pivots = 0;
    tableau_rebuilds = 0;
    reused_rounds = 0;
    extended_rounds = 0;
    pool_hits = 0;
    underapprox_solves = 0;
    gen_fallbacks = 0;
    cegqi_instantiations = 0;
    encode_time = 0.0;
    search_time = 0.0;
    theory_time = 0.0;
    cert_lemmas = 0;
    cert_proofs = 0;
    cert_models = 0;
    cert_rejections = 0;
    cert_time = 0.0;
  }

let totals = ref stats_zero
let stats () = !totals
let reset_stats () = totals := stats_zero

let stats_add a b =
  {
    queries = a.queries + b.queries;
    sat_answers = a.sat_answers + b.sat_answers;
    unsat_answers = a.unsat_answers + b.unsat_answers;
    unknown_answers = a.unknown_answers + b.unknown_answers;
    cache_hits = a.cache_hits + b.cache_hits;
    encodings = a.encodings + b.encodings;
    instances = a.instances + b.instances;
    theory_rounds = a.theory_rounds + b.theory_rounds;
    conflicts = a.conflicts + b.conflicts;
    propagations = a.propagations + b.propagations;
    restarts = a.restarts + b.restarts;
    pivots = a.pivots + b.pivots;
    tableau_rebuilds = a.tableau_rebuilds + b.tableau_rebuilds;
    reused_rounds = a.reused_rounds + b.reused_rounds;
    extended_rounds = a.extended_rounds + b.extended_rounds;
    pool_hits = a.pool_hits + b.pool_hits;
    underapprox_solves = a.underapprox_solves + b.underapprox_solves;
    gen_fallbacks = a.gen_fallbacks + b.gen_fallbacks;
    cegqi_instantiations = a.cegqi_instantiations + b.cegqi_instantiations;
    encode_time = a.encode_time +. b.encode_time;
    search_time = a.search_time +. b.search_time;
    theory_time = a.theory_time +. b.theory_time;
    cert_lemmas = a.cert_lemmas + b.cert_lemmas;
    cert_proofs = a.cert_proofs + b.cert_proofs;
    cert_models = a.cert_models + b.cert_models;
    cert_rejections = a.cert_rejections + b.cert_rejections;
    cert_time = a.cert_time +. b.cert_time;
  }

(* Merge a delta computed elsewhere — a worker process's [stats_since]
   over its lifetime — into this process's totals. The pool calls this
   once per worker so that [stats ()] in the parent reflects work done on
   its behalf in forked children. *)
let absorb_stats s = totals := stats_add !totals s

let stats_since s0 =
  let s = !totals in
  {
    queries = s.queries - s0.queries;
    sat_answers = s.sat_answers - s0.sat_answers;
    unsat_answers = s.unsat_answers - s0.unsat_answers;
    unknown_answers = s.unknown_answers - s0.unknown_answers;
    cache_hits = s.cache_hits - s0.cache_hits;
    encodings = s.encodings - s0.encodings;
    instances = s.instances - s0.instances;
    theory_rounds = s.theory_rounds - s0.theory_rounds;
    conflicts = s.conflicts - s0.conflicts;
    propagations = s.propagations - s0.propagations;
    restarts = s.restarts - s0.restarts;
    pivots = s.pivots - s0.pivots;
    tableau_rebuilds = s.tableau_rebuilds - s0.tableau_rebuilds;
    reused_rounds = s.reused_rounds - s0.reused_rounds;
    extended_rounds = s.extended_rounds - s0.extended_rounds;
    pool_hits = s.pool_hits - s0.pool_hits;
    underapprox_solves = s.underapprox_solves - s0.underapprox_solves;
    gen_fallbacks = s.gen_fallbacks - s0.gen_fallbacks;
    cegqi_instantiations = s.cegqi_instantiations - s0.cegqi_instantiations;
    encode_time = s.encode_time -. s0.encode_time;
    search_time = s.search_time -. s0.search_time;
    theory_time = s.theory_time -. s0.theory_time;
    cert_lemmas = s.cert_lemmas - s0.cert_lemmas;
    cert_proofs = s.cert_proofs - s0.cert_proofs;
    cert_models = s.cert_models - s0.cert_models;
    cert_rejections = s.cert_rejections - s0.cert_rejections;
    cert_time = s.cert_time -. s0.cert_time;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "queries=%d (sat=%d unsat=%d unknown=%d cached=%d) encodings=%d \
     instances=%d theory-rounds=%d (reused=%d extended=%d rebuilds=%d) \
     pool=%d underapprox=%d fallbacks=%d cegqi=%d \
     conflicts=%d propagations=%d restarts=%d \
     pivots=%d encode=%.3fs search=%.3fs (theory=%.3fs) certs=%d/%d/%d \
     rejected=%d cert=%.3fs"
    s.queries s.sat_answers s.unsat_answers s.unknown_answers s.cache_hits
    s.encodings s.instances s.theory_rounds s.reused_rounds s.extended_rounds
    s.tableau_rebuilds s.pool_hits
    s.underapprox_solves s.gen_fallbacks s.cegqi_instantiations s.conflicts
    s.propagations s.restarts s.pivots s.encode_time s.search_time
    s.theory_time s.cert_lemmas s.cert_proofs s.cert_models s.cert_rejections
    s.cert_time

(* Sample-generation fast-path counters. The ladder itself lives above
   the solver (Mpool / Samples); the counters live here so the existing
   per-phase snapshot and fork-pool absorption plumbing covers them. *)
let note_pool_hits n = totals := { !totals with pool_hits = !totals.pool_hits + n }

let note_underapprox_solve () =
  totals := { !totals with underapprox_solves = !totals.underapprox_solves + 1 }

let note_gen_fallback () =
  totals := { !totals with gen_fallbacks = !totals.gen_fallbacks + 1 }

let note_cegqi_instantiation () =
  totals :=
    { !totals with cegqi_instantiations = !totals.cegqi_instantiations + 1 }

let bump_query () = totals := { !totals with queries = !totals.queries + 1 }

let bump_cache_hit () =
  totals := { !totals with cache_hits = !totals.cache_hits + 1 }

let bump_encoding dt =
  totals :=
    {
      !totals with
      encodings = !totals.encodings + 1;
      encode_time = !totals.encode_time +. dt;
    }

let count_answer r =
  (totals :=
     match r with
     | Sat _ -> { !totals with sat_answers = !totals.sat_answers + 1 }
     | Unsat -> { !totals with unsat_answers = !totals.unsat_answers + 1 }
     | Unknown -> { !totals with unknown_answers = !totals.unknown_answers + 1 });
  r

(* ------------------------------------------------------------------ *)
(* Certificate auditing                                                *)
(* ------------------------------------------------------------------ *)

(* The solver produces certificates; checking them lives in [lib/check],
   which must not be a dependency of this library (it would invert the
   trust relationship: the checker depends on the formula/atom types
   only, not on solver internals). The checker therefore injects itself
   here as an [auditor] factory; in paranoid mode every new instance gets
   its own auditor, which receives the full proof-event stream, every
   theory lemma with its certificate, and every model before it is
   returned. Auditors raise {!Cert.Certificate_error} on a bad
   certificate — verdicts never silently pass unaudited. *)
type auditor = {
  on_sat_event : Cert.sat_event -> unit;
  on_lemma : is_int:(int -> bool) -> Theory.lit list -> Cert.theory_cert -> unit;
  on_model : (int -> Rat.t) -> Formula.t list -> unit;
}

let paranoid_flag = ref false
let set_paranoid b = paranoid_flag := b
let paranoid () = !paranoid_flag

let auditor_factory : (unit -> auditor) option ref = ref None
let set_auditor_factory f = auditor_factory := Some f

let new_auditor () =
  if !paranoid_flag then
    match !auditor_factory with Some f -> Some (f ()) | None -> None
  else None

let bump_cert_time dt =
  totals := { !totals with cert_time = !totals.cert_time +. dt }

(* Run one audit step, timing it and counting the outcome. Certificate
   rejections propagate to the caller: a rejection means either a solver
   soundness bug or a checker bug, and both must be loud. *)
let audited kind f =
  let t0 = Sys.time () in
  match f () with
  | () -> (
    bump_cert_time (Sys.time () -. t0);
    match kind with
    | `Event -> ()
    | `Proof -> totals := { !totals with cert_proofs = !totals.cert_proofs + 1 }
    | `Lemma -> totals := { !totals with cert_lemmas = !totals.cert_lemmas + 1 }
    | `Model -> totals := { !totals with cert_models = !totals.cert_models + 1 })
  | exception e ->
    bump_cert_time (Sys.time () -. t0);
    (match e with
     | Cert.Certificate_error _ ->
       totals := { !totals with cert_rejections = !totals.cert_rejections + 1 }
     | _ -> ());
    raise e

let traced aud ev =
  audited
    (match ev with Cert.Final _ -> `Proof | Cert.Given _ | Cert.Learnt _ -> `Event)
    (fun () -> aud.on_sat_event ev)

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

(* Tseitin encoding, implication direction only (sufficient for
   satisfiability): the formula is in NNF, so it is monotone in its
   literals, except for Dvd atoms which may occur under both polarities and
   whose assignments are therefore always passed to the theory.

   The implication-only direction is also what makes the returned root
   literal usable as an activation literal: assuming the root turns the
   formula on, while leaving it unassumed makes its clauses vacuous. *)
let encode sat atom_var f =
  let rec enc f =
    match f with
    | Formula.True ->
      let p = Sat.new_var sat in
      Sat.pos p
    | Formula.False ->
      let p = Sat.new_var sat in
      Sat.add_clause sat [ Sat.neg_lit p ];
      Sat.pos p
    | Formula.Atom a -> Sat.pos (atom_var a)
    | Formula.Not (Formula.Atom (Atom.Dvd _ as a)) -> Sat.neg_lit (atom_var a)
    | Formula.Not _ -> invalid_arg "Solver.encode: formula not in NNF"
    | Formula.And fs ->
      let p = Sat.new_var sat in
      List.iter (fun g -> Sat.add_clause sat [ Sat.neg_lit p; enc g ]) fs;
      Sat.pos p
    | Formula.Or fs ->
      let p = Sat.new_var sat in
      let lits = List.map enc fs in
      Sat.add_clause sat (Sat.neg_lit p :: lits);
      Sat.pos p
  in
  enc f

type instance = {
  sat : Sat.t;
  atom_tbl : int AtomTbl.t;
  mutable atoms : (Atom.t * int) list;
  mutable max_atom_var : int; (* max theory var over [atoms]; -1 if none *)
  fvars : int list;
  formula : Formula.t; (* NNF *)
  aud : auditor option;
  (* Theory session kept across runs on this instance. The simplex layer
     guarantees every check is bit-identical to one-shot solving
     regardless of tableau history, so reuse only changes cost, never
     answers. Recreated when a new atom's variable reaches the session's
     witness range. *)
  mutable tsess : Theory.session option;
}

let atom_var inst a =
  match AtomTbl.find_opt inst.atom_tbl a with
  | Some v -> v
  | None ->
    let v = Sat.new_var inst.sat in
    AtomTbl.add inst.atom_tbl a v;
    inst.atoms <- (a, v) :: inst.atoms;
    inst.max_atom_var <- List.fold_left max inst.max_atom_var (Atom.vars a);
    v

let make_instance f =
  Trace.span "smt.encode"
  @@ fun () ->
  let t0 = Sys.time () in
  let sat = Sat.create () in
  (* The tracer must be live before the first clause of the encoding, or
     the replayed clause set would be incomplete. *)
  let aud = new_auditor () in
  (match aud with Some a -> Sat.set_tracer sat (traced a) | None -> ());
  let inst =
    {
      sat;
      atom_tbl = AtomTbl.create 64;
      atoms = [];
      max_atom_var = -1;
      fvars = Formula.vars f;
      formula = f;
      aud;
      tsess = None;
    }
  in
  let root = encode sat (atom_var inst) f in
  Sat.add_clause sat [ root ];
  totals := { !totals with instances = !totals.instances + 1 };
  bump_encoding (Sys.time () -. t0);
  inst

let default_max_rounds = 50_000
let default_node_limit = 4000 (* Theory.check_cert's default *)

(* One DPLL(T) run on the current clause set, optionally under assumption
   literals. [check] lists extra formulas (beyond [inst.formula]) that the
   caller asserted via assumptions: their variables join the model padding
   and the returned model is validated against them too.

   [theory_atoms], when given, restricts which atoms are passed to the
   theory solver. On a long-lived session only the atoms of the base
   formula, of the current assumptions, and of the model-blocking clauses
   are relevant to the query; stale atoms from earlier queries stay
   boolean-assigned (phase saving) but constraining the arithmetic model
   with them would make every simplex call grow with session age — and
   their values are free as far as this query's formulas are concerned.
   Soundness is unchanged: the encoding is monotone NNF, so root truth
   only rests on the checked atoms, and the model is still validated
   against the full formulas below. *)
let run_instance ?(max_rounds = 50_000) ?node_limit ?(assumptions = [])
    ?(check = []) ?fvars ?theory_atoms ~is_int inst =
  if Trace.enabled () then
    Trace.begin_span "smt.solve"
      ~args:
        [
          ("atoms", Trace.Int (List.length inst.atoms));
          ("assumptions", Trace.Int (List.length assumptions));
        ];
  let t0 = Sys.time () in
  let c0 = Sat.n_conflicts inst.sat in
  let p0 = Sat.n_propagations inst.sat in
  let r0 = Sat.n_restarts inst.sat in
  let pv0 = Simplex.pivot_count () in
  let ru0 = Theory.reused_round_count () in
  let ex0 = Theory.extended_round_count () in
  let rb0 = Theory.rebuild_count () in
  (* Model-padding variables: everything the validated formulas mention.
     Sessions precompute this once per query ([fvars]) — walking every
     check formula again on each enumeration step is pure waste. *)
  let fvars =
    match (fvars, check) with
    | Some fv, _ -> fv
    | None, [] -> inst.fvars
    | None, _ ->
      List.sort_uniq Stdlib.compare
        (List.rev_append (List.concat_map Formula.vars check) inst.fvars)
  in
  let atoms = match theory_atoms with Some l -> l | None -> inst.atoms in
  (* The theory session lives on the instance and is shared across runs:
     consecutive theory rounds — and consecutive runs of a long-lived
     session — share the incremental tableau, diffing each round's
     literal set against the previous one. The session's witness
     range starts above every atom variable of the instance (a superset
     of any run's [atoms]); when a later query encodes an atom whose
     variable reaches that range, the session is recreated one size up.
     Witness ids shift across recreations, which is unobservable: models
     are filtered to input variables and certificates are phrased over
     literal positions. *)
  let max_var = max 0 inst.max_atom_var in
  let tsession =
    match inst.tsess with
    | Some ts when Theory.session_fresh_base ts > max_var ->
      Theory.set_session_node_limit ts
        (Option.value node_limit ~default:default_node_limit);
      ts
    | _ ->
      let ts = Theory.create_session ~is_int ?node_limit ~max_var () in
      inst.tsess <- Some ts;
      ts
  in
  let rec loop round =
    if round > max_rounds then Unknown
    else if
      not
        (Trace.span "sat.search" (fun () ->
             Sat.solve ~assumptions inst.sat))
    then Unsat
    else begin
      (* Theory literals from the boolean model: positive Lin atoms, and
         Dvd atoms under either polarity. *)
      let lits =
        List.filter_map
          (fun (a, v) ->
            let value = Sat.value inst.sat v in
            match a with
            | Atom.Lin _ -> if value then Some (a, true) else None
            | Atom.Dvd _ -> Some (a, value))
          atoms
      in
      let tt0 = Sys.time () in
      if Trace.enabled () then
        Trace.begin_span "theory.check"
          ~args:
            [ ("round", Trace.Int round); ("lits", Trace.Int (List.length lits)) ];
      let verdict, cert =
        match Theory.check_cert_session tsession lits with
        | vc -> vc
        | exception e ->
          if Trace.enabled () then
            Trace.end_span "theory.check"
              ~args:[ ("exn", Trace.String (Printexc.to_string e)) ];
          raise e
      in
      if Trace.enabled () then
        Trace.end_span "theory.check"
          ~args:
            [
              ( "verdict",
                Trace.String
                  (match verdict with
                   | Theory.Sat _ -> "sat"
                   | Theory.Unsat _ -> "unsat"
                   | Theory.Unknown -> "unknown") );
            ];
      totals :=
        {
          !totals with
          theory_rounds = !totals.theory_rounds + 1;
          theory_time = !totals.theory_time +. (Sys.time () -. tt0);
        };
      match verdict with
      | Theory.Unknown -> Unknown
      | Theory.Sat m ->
        let assigned = Hashtbl.create 64 in
        List.iter (fun (v, _) -> Hashtbl.replace assigned v ()) m;
        let m =
          List.fold_left
            (fun acc v ->
              if Hashtbl.mem assigned v then acc
              else begin
                Hashtbl.replace assigned v ();
                (v, Rat.zero) :: acc
              end)
            m fvars
        in
        (* The model is padded over every variable of the formulas below,
           so the strict lookup cannot raise on a correct model — and a
           model that misses one of their variables is exactly the bug the
           strict lookup exists to expose. *)
        let lookup = model_value_strict m in
        let vformulas = inst.formula :: check in
        (match inst.aud with
         | Some a ->
           (* Paranoid: the independent evaluator replaces the inline
              backstop (it checks the same formulas with its own atom
              semantics and raises {!Cert.Certificate_error}). *)
           audited `Model (fun () -> a.on_model lookup vformulas)
         | None ->
           if not (List.for_all (fun f -> Formula.eval f lookup) vformulas)
           then
             failwith "Solver.solve: internal error, model does not satisfy formula");
        Sat m
      | Theory.Unsat core ->
        (match inst.aud with
         | Some a ->
           let cert =
             match cert with
             | Some c -> c
             | None ->
               raise (Cert.Certificate_error "theory Unsat without certificate")
           in
           audited `Lemma (fun () -> a.on_lemma ~is_int core cert)
         | None -> ());
        let blocking =
          List.map
            (fun (a, polarity) ->
              let v = AtomTbl.find inst.atom_tbl a in
              if polarity then Sat.neg_lit v else Sat.pos v)
            core
        in
        Sat.add_clause inst.sat blocking;
        loop (round + 1)
    end
  in
  let r =
    match loop 0 with
    | r -> r
    | exception e ->
      if Trace.enabled () then
        Trace.end_span "smt.solve"
          ~args:[ ("exn", Trace.String (Printexc.to_string e)) ];
      raise e
  in
  totals :=
    {
      !totals with
      search_time = !totals.search_time +. (Sys.time () -. t0);
      conflicts = !totals.conflicts + (Sat.n_conflicts inst.sat - c0);
      propagations = !totals.propagations + (Sat.n_propagations inst.sat - p0);
      restarts = !totals.restarts + (Sat.n_restarts inst.sat - r0);
      pivots = !totals.pivots + (Simplex.pivot_count () - pv0);
      reused_rounds = !totals.reused_rounds + (Theory.reused_round_count () - ru0);
      extended_rounds =
        !totals.extended_rounds + (Theory.extended_round_count () - ex0);
      tableau_rebuilds = !totals.tableau_rebuilds + (Theory.rebuild_count () - rb0);
    };
  if Trace.enabled () then
    Trace.end_span "smt.solve"
      ~args:
        [
          ("result", Trace.String (result_label r));
          ("conflicts", Trace.Int (Sat.n_conflicts inst.sat - c0));
          ("pivots", Trace.Int (Simplex.pivot_count () - pv0));
        ];
  r

(* ------------------------------------------------------------------ *)
(* Memoized one-shot solving                                           *)
(* ------------------------------------------------------------------ *)

(* Verdicts are memoized on a *canonical* key so that the syntactically
   different ways CEGIS asks the same question coincide:

   - the formula is order-normalized ({!Formula.canon}: And/Or children
     sorted and deduplicated), so [base ∧ p ∧ q] and [q ∧ base ∧ p] share
     an entry regardless of how a session interleaved its assertions;
   - variables are alpha-renamed to 0,1,2,... in first-occurrence order
     over the canonical formula, so fresh-variable numbering (per-attempt
     [Encode] environments allocate from a moving counter) does not split
     otherwise identical queries;
   - the [is_int] fingerprint of the canonical variables joins the key
     (the only part of [is_int] the answer can depend on);
   - the resource limits ([max_rounds], theory [node_limit]) join the key,
     so a cached verdict is always one the same call would have computed —
     without them a warm-session Sat could answer for a colder query that
     would itself have returned Unknown, which would make cached and
     recomputed runs observably different (the parallel pool relies on
     hit ≡ recompute for its determinism guarantee).

   Only Sat/Unsat verdicts are cached — Unknown is a resource artifact,
   not a truth. Models are stored in canonical variable space and
   translated back through the renaming on a hit. The cache has no
   invalidation rule by construction: a query's answer depends on nothing
   but the key. *)
module Memo = Hashtbl.Make (struct
  type t = Formula.t * bool list * int * int

  let equal (f1, b1, r1, n1) (f2, b2, r2, n2) =
    r1 = r2 && n1 = n2 && b1 = b2 && Formula.equal f1 f2

  let hash = Key.id_hash
end)

let memo : result Memo.t = Memo.create 1024

(* Bound the cache; wholesale reset on overflow keeps it O(1) amortized
   and is plenty for the CEGIS workloads (a run rarely exceeds a few
   thousand distinct formulas). *)
let memo_limit = 16_384

(* Canonical-key construction lives in {!Key}. *)
let memo_key = Key.canonical

let memo_find (k : Key.canonical) =
  match Memo.find_opt memo k.Key.id with
  | None | Some Unknown -> None
  | Some Unsat -> Some Unsat
  | Some (Sat m) -> Some (Sat (List.map (fun (cv, r) -> (k.Key.back.(cv), r)) m))

let memo_store (k : Key.canonical) r =
  match r with
  | Unknown -> ()
  | Unsat | Sat _ ->
    let r =
      match r with
      | Sat m ->
        (* Store in canonical space. Variables outside the key (none in
           practice: the theory already filters its Dvd witnesses, and
           padding covers exactly the formula's variables) are dropped
           rather than corrupting the entry. *)
        Sat
          (List.filter_map
             (fun (v, value) ->
               match Hashtbl.find_opt k.Key.fwd v with
               | Some cv -> Some (cv, value)
               | None -> None)
             m)
      | r -> r
    in
    if Memo.length memo >= memo_limit then Memo.reset memo;
    Memo.replace memo k.Key.id r

module FTbl = Hashtbl.Make (Formula)

(* Downstream layers (the serve-mode rewrite cache) hold derived state
   that must not outlive the solver caches it was computed from; they
   register a flush here rather than the solver depending on them. *)
let reset_hooks : (unit -> unit) list ref = ref []
let on_reset_caches f = reset_hooks := f :: !reset_hooks

let reset_caches () =
  Memo.reset memo;
  List.iter (fun f -> f ()) !reset_hooks

let solve ?(max_rounds = default_max_rounds) ~is_int f =
  let f = Formula.nnf f in
  bump_query ();
  match f with
  | Formula.True ->
    count_answer (Sat (List.map (fun v -> (v, Rat.zero)) (Formula.vars f)))
  | Formula.False -> count_answer Unsat
  | _ -> (
    let k = memo_key ~is_int ~max_rounds ~node_limit:default_node_limit f in
    match memo_find k with
    | Some r ->
      bump_cache_hit ();
      if Trace.enabled () then
        Trace.instant "memo.hit"
          ~args:[ ("key", Trace.Int (Key.id_hash k.Key.id)) ];
      count_answer r
    | None -> (
      if Trace.enabled () then
        Trace.instant "memo.miss"
          ~args:[ ("key", Trace.Int (Key.id_hash k.Key.id)) ];
      let r = run_instance ~max_rounds ~is_int (make_instance f) in
      memo_store k r;
      count_answer r))

(* Unmemoized one-shot solve: in paranoid mode a memo hit replays the
   answer of an earlier (audited) computation without re-auditing, so
   callers that must certify {e this} verdict — [Rewrite.audit], the fuzz
   suite — bypass the cache. *)
let solve_fresh ?max_rounds ?node_limit ~is_int f =
  let f = Formula.nnf f in
  bump_query ();
  match f with
  | Formula.True ->
    count_answer (Sat (List.map (fun v -> (v, Rat.zero)) (Formula.vars f)))
  | Formula.False -> count_answer Unsat
  | _ ->
    count_answer (run_instance ?max_rounds ?node_limit ~is_int (make_instance f))

(* Exclude the model (on [distinct_on]) from later queries while the
   [guard] literal is assumed. Returns the fresh disequality atoms, which
   join the abstraction and must be theory-checked by every query the
   clause is live for. *)
let block_model ~guard inst ~distinct_on m =
  let pairs =
    List.concat_map
      (fun v ->
        let value = Linexpr.const (model_value m v) in
        let lt = Atom.mk_lt (Linexpr.var v) value in
        let gt = Atom.mk_gt (Linexpr.var v) value in
        [ (lt, atom_var inst lt); (gt, atom_var inst gt) ])
      distinct_on
  in
  let lits = List.map (fun (_, v) -> Sat.pos v) pairs in
  Sat.add_clause inst.sat (guard :: lits);
  pairs

(* ------------------------------------------------------------------ *)
(* Persistent sessions                                                 *)
(* ------------------------------------------------------------------ *)

module Session = struct
  type session = {
    inst : instance;
    is_int : int -> bool;
    (* NNF formula -> activation literal and the formula's atoms *)
    lits : (Sat.lit * (Atom.t * int) list) FTbl.t;
    base_atoms : (Atom.t * int) list;
  }

  type t = session

  let create ~is_int base =
    let base = Formula.nnf base in
    let inst = make_instance base in
    { inst; is_int; lits = FTbl.create 64; base_atoms = inst.atoms }

  (* Activation literal for a formula: encoded once per session, then
     reused by every later query that assumes it. Because the
     encoding is implication-only, an unassumed activation literal leaves
     its clauses vacuously satisfiable. *)
  let lit t f =
    let f = Formula.nnf f in
    match FTbl.find_opt t.lits f with
    | Some entry -> entry
    | None ->
      let t0 = Sys.time () in
      let l = Trace.span "smt.encode" (fun () -> encode t.inst.sat (atom_var t.inst) f) in
      bump_encoding (Sys.time () -. t0);
      let entry =
        (l, List.map (fun a -> (a, atom_var t.inst a)) (Formula.atoms f))
      in
      FTbl.add t.lits f entry;
      entry

  (* Atoms the theory must check for this query: base, current
     assumptions, and (during enumeration) the
     current call's model-blocking clauses, deduplicated. Stale atoms
     from other queries are deliberately left out — see [run_instance]. *)
  let relevant_atoms t query_atoms =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun (_, v) ->
        if Hashtbl.mem seen v then false
        else begin
          Hashtbl.add seen v ();
          true
        end)
      (t.base_atoms @ query_atoms)

  (* [extra_lits]/[extra_atoms] carry raw per-call state (the enumeration
     guard and its blocking atoms) that has no formula counterpart.

     Queries without per-call state are answered through the global memo
     cache: the key is the full conjunction base ∧ assumptions,
     canonicalized (see the memo above), so a threshold probe repeated on
     the sibling session of another column subset — or by a one-shot
     [solve] of the same conjunction — costs a table lookup. Enumeration
     calls ([extra_lits ≠ []]) bypass the cache: their answer depends on
     blocking clauses that exist only inside that call. *)
  (* Per-query state that is invariant across the steps of one
     enumeration: NNF'd assumptions (also the model-validation formula
     list), their activation literals and atoms, and the variable closure. Computed
     once by [prep]; [solve_many_under] re-uses it for every model of the
     call instead of re-walking hundreds of exclusion formulas per step. *)
  type prepped = {
    p_assumptions : Formula.t list; (* NNF *)
    p_lits : Sat.lit list;
    p_atoms : (Atom.t * int) list;
    p_fvars : int list;
  }

  let prep t assumptions =
    let assumptions = List.map Formula.nnf assumptions in
    let encoded = List.map (lit t) assumptions in
    let fvars =
      match assumptions with
      | [] -> t.inst.fvars
      | _ ->
        List.sort_uniq Stdlib.compare
          (List.rev_append (List.concat_map Formula.vars assumptions) t.inst.fvars)
    in
    {
      p_assumptions = assumptions;
      p_lits = List.map fst encoded;
      p_atoms = List.concat_map snd encoded;
      p_fvars = fvars;
    }

  let run_prepped ?(max_rounds = default_max_rounds) ?node_limit
      ?(extra_lits = []) ?(extra_atoms = []) t p =
    bump_query ();
    let memo_k =
      if extra_lits = [] && extra_atoms = [] then
        Some
          (memo_key ~is_int:t.is_int ~max_rounds
             ~node_limit:(Option.value node_limit ~default:default_node_limit)
             (Formula.nnf
                (Formula.and_ (t.inst.formula :: p.p_assumptions))))
      else None
    in
    match Option.bind memo_k memo_find with
    | Some r ->
      bump_cache_hit ();
      (if Trace.enabled () then
         match memo_k with
         | Some k ->
           Trace.instant "memo.hit"
             ~args:[ ("key", Trace.Int (Key.id_hash k.Key.id)) ]
         | None -> ());
      count_answer r
    | None -> (
      (if Trace.enabled () then
         match memo_k with
         | Some k ->
           Trace.instant "memo.miss"
             ~args:[ ("key", Trace.Int (Key.id_hash k.Key.id)) ]
         | None -> ());
      let r =
        run_instance ~max_rounds ?node_limit
          ~assumptions:(extra_lits @ p.p_lits)
          ~check:p.p_assumptions ~fvars:p.p_fvars
          ~theory_atoms:(relevant_atoms t (extra_atoms @ p.p_atoms))
          ~is_int:t.is_int t.inst
      in
      (match memo_k with Some k -> memo_store k r | None -> ());
      count_answer r)

  let solve_under ?max_rounds ?node_limit ?(assumptions = []) t =
    run_prepped ?max_rounds ?node_limit t (prep t assumptions)

  (* Model-blocking clauses are scoped to this call by a fresh activation
     literal: assumed while enumerating, vacuous afterwards. The session's
     later theory checks therefore do not pay for past enumerations;
     callers that need earlier models excluded again pass explicit
     exclusion assumptions. *)
  let solve_many_under ?max_rounds ?(assumptions = []) ~count ~distinct_on t =
    if count <= 0 then ([], false)
    else begin
      let p = prep t assumptions in
      let guard = Sat.new_var t.inst.sat in
      let blocked = ref [] in
      let models = ref [] in
      let n = ref 0 in
      let exhausted = ref false in
      while !n < count && not !exhausted do
        match
          run_prepped ?max_rounds ~extra_lits:[ Sat.pos guard ]
            ~extra_atoms:!blocked t p
        with
        | Unsat | Unknown -> exhausted := true
        | Sat m ->
          models := m :: !models;
          incr n;
          if distinct_on = [] then exhausted := true
          else
            blocked :=
              List.rev_append
                (block_model ~guard:(Sat.neg_lit guard) t.inst ~distinct_on m)
                !blocked
      done;
      (* Retire the guard: its blocking clauses are satisfied at level 0
         from now on and never constrain another query. *)
      Sat.add_clause t.inst.sat [ Sat.neg_lit guard ];
      (List.rev !models, !exhausted)
    end
end
