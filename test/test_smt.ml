(* Tests for the SMT substrate: formulas, SAT, simplex, theory (integer
   branch and bound), the DPLL(T) solver, and quantifier elimination. *)

open Sia_numeric
open Sia_smt

let q = Rat.of_ints
let qi = Rat.of_int
let v = Linexpr.var
let c = Linexpr.of_int
let ( +% ) = Linexpr.add
let all_int = fun _ -> true
let all_real = fun _ -> false

(* [p] entails [q] iff [p /\ not q] is unsat; [None] on a resource limit. *)
let entails p q =
  match Solver.solve ~is_int:all_int (Formula.and_ [ p; Formula.not_ q ]) with
  | Solver.Sat _ -> Some false
  | Solver.Unsat -> Some true
  | Solver.Unknown -> None

(* Shorthand: a*x with integer coefficient. *)
let sv coeff x = Linexpr.var ~coeff:(qi coeff) x

(* --- SAT solver --- *)

let test_sat_trivial () =
  let s = Sat.create () in
  let a = Sat.new_var s in
  Sat.add_clause s [ Sat.pos a ];
  Alcotest.(check bool) "single unit" true (Sat.solve s);
  Alcotest.(check bool) "value" true (Sat.value s a)

let test_sat_unsat () =
  let s = Sat.create () in
  let a = Sat.new_var s in
  Sat.add_clause s [ Sat.pos a ];
  Sat.add_clause s [ Sat.neg_lit a ];
  Alcotest.(check bool) "contradiction" false (Sat.solve s)

let test_sat_3sat () =
  (* (a | b) & (!a | b) & (a | !b) is satisfied only by a=b=true *)
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ Sat.pos a; Sat.pos b ];
  Sat.add_clause s [ Sat.neg_lit a; Sat.pos b ];
  Sat.add_clause s [ Sat.pos a; Sat.neg_lit b ];
  Alcotest.(check bool) "sat" true (Sat.solve s);
  Alcotest.(check bool) "a" true (Sat.value s a);
  Alcotest.(check bool) "b" true (Sat.value s b)

let test_sat_incremental () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ Sat.pos a; Sat.pos b ];
  Alcotest.(check bool) "sat 1" true (Sat.solve s);
  Sat.add_clause s [ Sat.neg_lit a ];
  Alcotest.(check bool) "sat 2" true (Sat.solve s);
  Alcotest.(check bool) "b forced" true (Sat.value s b);
  Sat.add_clause s [ Sat.neg_lit b ];
  Alcotest.(check bool) "unsat 3" false (Sat.solve s)

let test_sat_pigeonhole () =
  (* 4 pigeons, 3 holes: classic small unsat instance exercising learning. *)
  let s = Sat.create () in
  let var = Array.init 4 (fun _ -> Array.init 3 (fun _ -> Sat.new_var s)) in
  for p = 0 to 3 do
    Sat.add_clause s (List.init 3 (fun h -> Sat.pos var.(p).(h)))
  done;
  for h = 0 to 2 do
    for p1 = 0 to 3 do
      for p2 = p1 + 1 to 3 do
        Sat.add_clause s [ Sat.neg_lit var.(p1).(h); Sat.neg_lit var.(p2).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "php(4,3) unsat" false (Sat.solve s)

let test_sat_random_models () =
  (* Random 3-CNF at low clause density must be sat and models must check. *)
  let rand = Random.State.make [| 42 |] in
  for _ = 1 to 20 do
    let n = 20 in
    let s = Sat.create () in
    let vars = Array.init n (fun _ -> Sat.new_var s) in
    let clauses = ref [] in
    for _ = 1 to 40 do
      let lit () =
        let vi = Random.State.int rand n in
        if Random.State.bool rand then Sat.pos vars.(vi) else Sat.neg_lit vars.(vi)
      in
      let cl = [ lit (); lit (); lit () ] in
      clauses := cl :: !clauses;
      Sat.add_clause s cl
    done;
    if Sat.solve s then
      List.iter
        (fun cl ->
          let ok =
            List.exists
              (fun l -> Sat.value s (Sat.var_of l) = Sat.lit_sign l)
              cl
          in
          Alcotest.(check bool) "model satisfies clause" true ok)
        !clauses
  done

(* --- Simplex --- *)

let test_simplex_feasible () =
  (* x >= 1, y >= 1, x + y <= 4 *)
  let atoms = [ Atom.mk_ge (v 0) (c 1); Atom.mk_ge (v 1) (c 1); Atom.mk_le (v 0 +% v 1) (c 4) ] in
  match Simplex.solve atoms with
  | Simplex.Unsat _ -> Alcotest.fail "expected sat"
  | Simplex.Sat m ->
    let get x = match List.assoc_opt x m with Some r -> r | None -> Rat.zero in
    List.iter
      (fun a -> Alcotest.(check bool) "atom holds" true (Atom.eval a get))
      atoms

let test_simplex_infeasible () =
  (* x >= 3, x <= 2 *)
  let atoms = [ Atom.mk_ge (v 0) (c 3); Atom.mk_le (v 0) (c 2) ] in
  match Simplex.solve atoms with
  | Simplex.Unsat core ->
    Alcotest.(check bool) "core nonempty" true (core <> [])
  | Simplex.Sat _ -> Alcotest.fail "expected unsat"

let test_simplex_strict () =
  (* x < 5 and x > 4 has rational solutions only strictly inside. *)
  let atoms = [ Atom.mk_lt (v 0) (c 5); Atom.mk_gt (v 0) (c 4) ] in
  match Simplex.solve atoms with
  | Simplex.Unsat _ -> Alcotest.fail "expected sat"
  | Simplex.Sat m ->
    let x = List.assoc 0 m in
    Alcotest.(check bool) "4 < x" true (Rat.compare (qi 4) x < 0);
    Alcotest.(check bool) "x < 5" true (Rat.compare x (qi 5) < 0)

let test_simplex_strict_unsat () =
  (* x < 5 and x > 5 *)
  let atoms = [ Atom.mk_lt (v 0) (c 5); Atom.mk_gt (v 0) (c 5) ] in
  (match Simplex.solve atoms with
   | Simplex.Unsat _ -> ()
   | Simplex.Sat _ -> Alcotest.fail "expected unsat");
  (* x < 5 and x >= 5 *)
  match Simplex.solve [ Atom.mk_lt (v 0) (c 5); Atom.mk_ge (v 0) (c 5) ] with
  | Simplex.Unsat _ -> ()
  | Simplex.Sat _ -> Alcotest.fail "expected unsat"

let test_simplex_equalities () =
  (* x + y = 10, x - y = 4  =>  x = 7, y = 3 *)
  let atoms = [ Atom.mk_eq (v 0 +% v 1) (c 10); Atom.mk_eq (Linexpr.sub (v 0) (v 1)) (c 4) ] in
  match Simplex.solve atoms with
  | Simplex.Unsat _ -> Alcotest.fail "expected sat"
  | Simplex.Sat m ->
    Alcotest.(check bool) "x = 7" true (Rat.equal (List.assoc 0 m) (qi 7));
    Alcotest.(check bool) "y = 3" true (Rat.equal (List.assoc 1 m) (qi 3))

let test_simplex_chain () =
  (* Chain x0 <= x1 <= ... <= x9, x9 <= x0 - 1: unsat. *)
  let atoms =
    List.init 9 (fun i -> Atom.mk_le (v i) (v (i + 1)))
    @ [ Atom.mk_le (v 9) (Linexpr.sub (v 0) (c 1)) ]
  in
  match Simplex.solve atoms with
  | Simplex.Unsat _ -> ()
  | Simplex.Sat _ -> Alcotest.fail "expected unsat"

let prop_simplex_sound =
  (* Random small systems: when simplex says sat, the model must satisfy
     every atom; when unsat, the core must itself be infeasible (checked
     by the fact that removing it from the instance keeps… we check core
     is a subset that simplex also reports unsat). *)
  let gen =
    QCheck.list_of_size (QCheck.Gen.int_range 1 8)
      (QCheck.quad (QCheck.int_range (-5) 5) (QCheck.int_range (-5) 5)
         (QCheck.int_range (-10) 10) (QCheck.int_range 0 2))
  in
  QCheck.Test.make ~name:"simplex sound on random systems" ~count:300 gen
    (fun rows ->
      let atoms =
        List.map
          (fun (a, b, k, rel) ->
            let e = sv a 0 +% sv b 1 in
            match rel with
            | 0 -> Atom.mk_le e (c k)
            | 1 -> Atom.mk_ge e (c k)
            | _ -> Atom.mk_eq e (c k))
          rows
      in
      match Simplex.solve atoms with
      | Simplex.Sat m ->
        let get x = match List.assoc_opt x m with Some r -> r | None -> Rat.zero in
        List.for_all (fun a -> Atom.eval a get) atoms
      | Simplex.Unsat core ->
        core <> []
        && begin
          let sub = List.map (List.nth atoms) core in
          match Simplex.solve sub with
          | Simplex.Unsat _ -> true
          | Simplex.Sat _ -> false
        end)

(* --- Theory: integers --- *)

let test_theory_int_rounding () =
  (* 2x = 3 is rationally sat but integer unsat (gcd test). *)
  let lits = [ (Atom.mk_eq (sv 2 0) (c 3), true) ] in
  (match Theory.check ~is_int:all_int lits with
   | Theory.Unsat _ -> ()
   | Theory.Sat _ | Theory.Unknown -> Alcotest.fail "expected unsat");
  (* Same over the reals: sat. *)
  match Theory.check ~is_int:all_real lits with
  | Theory.Sat m -> Alcotest.(check bool) "x=3/2" true (Rat.equal (List.assoc 0 m) (q 3 2))
  | Theory.Unsat _ | Theory.Unknown -> Alcotest.fail "expected sat"

let test_theory_branch_bound () =
  (* 4 < 2x < 6 over Z: unsat (x would be 2.5); over R: sat. *)
  let lits = [ (Atom.mk_gt (sv 2 0) (c 4), true); (Atom.mk_lt (sv 2 0) (c 6), true) ] in
  (match Theory.check ~is_int:all_int lits with
   | Theory.Unsat _ -> ()
   | Theory.Sat _ | Theory.Unknown -> Alcotest.fail "expected int unsat");
  match Theory.check ~is_int:all_real lits with
  | Theory.Sat _ -> ()
  | Theory.Unsat _ | Theory.Unknown -> Alcotest.fail "expected real sat"

let test_theory_int_model () =
  (* 1 <= 3x <= 8 over Z: x in {1, 2}. *)
  let lits = [ (Atom.mk_ge (sv 3 0) (c 1), true); (Atom.mk_le (sv 3 0) (c 8), true) ] in
  match Theory.check ~is_int:all_int lits with
  | Theory.Sat m ->
    let x = List.assoc 0 m in
    Alcotest.(check bool) "integral" true (Rat.is_integer x);
    Alcotest.(check bool) "in range" true (Rat.compare x Rat.one >= 0 && Rat.compare x (qi 2) <= 0)
  | Theory.Unsat _ | Theory.Unknown -> Alcotest.fail "expected sat"

let test_theory_dvd () =
  (* 3 | x, 5 <= x <= 7 => x = 6 *)
  let lits =
    [
      (Atom.mk_dvd (Bigint.of_int 3) (v 0), true);
      (Atom.mk_ge (v 0) (c 5), true);
      (Atom.mk_le (v 0) (c 7), true);
    ]
  in
  (match Theory.check ~is_int:all_int lits with
   | Theory.Sat m -> Alcotest.(check bool) "x=6" true (Rat.equal (List.assoc 0 m) (qi 6))
   | Theory.Unsat _ | Theory.Unknown -> Alcotest.fail "expected sat");
  (* not (3 | x), 6 <= x <= 6: unsat *)
  let lits =
    [
      (Atom.mk_dvd (Bigint.of_int 3) (v 0), false);
      (Atom.mk_eq (v 0) (c 6), true);
    ]
  in
  match Theory.check ~is_int:all_int lits with
  | Theory.Unsat _ -> ()
  | Theory.Sat _ | Theory.Unknown -> Alcotest.fail "expected unsat"

(* --- Solver (DPLL(T)) --- *)

let fm_atom a = Formula.atom a

let test_solver_conjunction () =
  let f =
    Formula.and_
      [ fm_atom (Atom.mk_ge (v 0) (c 1)); fm_atom (Atom.mk_le (v 0) (c 3)) ]
  in
  match Solver.solve ~is_int:all_int f with
  | Solver.Sat m ->
    Alcotest.(check bool) "model" true (Formula.eval f (Solver.model_value m))
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "expected sat"

let test_solver_disjunction_boolean_conflict () =
  (* (x <= 0 or x >= 10) and x = 5: needs boolean search + theory conflicts. *)
  let f =
    Formula.and_
      [
        Formula.or_ [ fm_atom (Atom.mk_le (v 0) (c 0)); fm_atom (Atom.mk_ge (v 0) (c 10)) ];
        fm_atom (Atom.mk_eq (v 0) (c 5));
      ]
  in
  (match Solver.solve ~is_int:all_int f with
   | Solver.Unsat -> ()
   | Solver.Sat _ | Solver.Unknown -> Alcotest.fail "expected unsat");
  let f2 =
    Formula.and_
      [
        Formula.or_ [ fm_atom (Atom.mk_le (v 0) (c 0)); fm_atom (Atom.mk_ge (v 0) (c 10)) ];
        fm_atom (Atom.mk_eq (v 0) (c 12));
      ]
  in
  match Solver.solve ~is_int:all_int f2 with
  | Solver.Sat m -> Alcotest.(check bool) "x=12" true (Rat.equal (Solver.model_value m 0) (qi 12))
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "expected sat"

let test_solver_negation_eq () =
  (* not (x = 0) and -1 <= x <= 1: x is 1 or -1 over Z. *)
  let f =
    Formula.and_
      [
        Formula.not_ (fm_atom (Atom.mk_eq (v 0) (c 0)));
        fm_atom (Atom.mk_ge (v 0) (c (-1)));
        fm_atom (Atom.mk_le (v 0) (c 1));
      ]
  in
  match Solver.solve ~is_int:all_int f with
  | Solver.Sat m ->
    let x = Solver.model_value m 0 in
    Alcotest.(check bool) "|x| = 1" true (Rat.equal (Rat.abs x) Rat.one)
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "expected sat"

let test_solver_entails () =
  (* x >= 2 entails x >= 1; x >= 1 does not entail x >= 2. *)
  let p = fm_atom (Atom.mk_ge (v 0) (c 2)) in
  let p' = fm_atom (Atom.mk_ge (v 0) (c 1)) in
  Alcotest.(check (option bool)) "p => p'" (Some true) (entails p p');
  Alcotest.(check (option bool)) "p' /=> p" (Some false) (entails p' p)

let test_solver_motivating () =
  (* The paper's motivating predicate: a2 - b1 < 20 and
     a1 - a2 < a2 - b1 + 10 and b1 < 0, with the claim that it entails
     a1 - a2 < 29 (date arithmetic flattened to ints). *)
  let a1 = 0 and a2 = 1 and b1 = 2 in
  let p =
    Formula.and_
      [
        fm_atom (Atom.mk_lt (Linexpr.sub (v a2) (v b1)) (c 20));
        fm_atom
          (Atom.mk_lt (Linexpr.sub (v a1) (v a2)) (Linexpr.sub (v a2) (v b1) +% c 10));
        fm_atom (Atom.mk_lt (v b1) (c 0));
      ]
  in
  let learned = fm_atom (Atom.mk_lt (Linexpr.sub (v a1) (v a2)) (c 29)) in
  Alcotest.(check (option bool)) "p => a1 - a2 < 29" (Some true)
    (entails p learned);
  (* But not the tighter a1 - a2 < 28 (witness a1=28+a2 etc. exists). *)
  let tight = fm_atom (Atom.mk_lt (Linexpr.sub (v a1) (v a2)) (c 28)) in
  Alcotest.(check (option bool)) "p /=> a1 - a2 < 28" (Some false)
    (entails p tight)

let prop_solver_models_satisfy =
  (* Random formulas over 3 int vars: every Sat answer must satisfy. *)
  let gen_atom =
    QCheck.Gen.(
      let* a = int_range (-4) 4 in
      let* b = int_range (-4) 4 in
      let* k = int_range (-12) 12 in
      let* rel = int_range 0 3 in
      let e = Linexpr.add (sv a 0) (sv b 1) in
      return
        (match rel with
         | 0 -> Atom.mk_le e (c k)
         | 1 -> Atom.mk_ge e (c k)
         | 2 -> Atom.mk_lt e (c k)
         | _ -> Atom.mk_eq e (c k)))
  in
  let gen_formula =
    QCheck.Gen.(
      let* n = int_range 1 4 in
      let* m = int_range 1 3 in
      let* cubes =
        list_size (return n) (list_size (return m) (map Formula.atom gen_atom))
      in
      return (Formula.or_ (List.map Formula.and_ cubes)))
  in
  QCheck.Test.make ~name:"solver models satisfy formula" ~count:200
    (QCheck.make gen_formula)
    (fun f ->
      match Solver.solve ~is_int:all_int f with
      | Solver.Sat m -> Formula.eval f (Solver.model_value m)
      | Solver.Unsat | Solver.Unknown -> true)

(* --- Quantifier elimination --- *)

let test_fm_basic () =
  (* exists y. x <= y /\ y <= 5  ==>  x <= 5 *)
  let atoms = [ Atom.mk_le (v 0) (v 1); Atom.mk_le (v 1) (c 5) ] in
  match Fourier_motzkin.eliminate [ 1 ] atoms with
  | None -> Alcotest.fail "fm failed"
  | Some out ->
    let f = Formula.and_ (List.map Formula.atom out) in
    let holds x = Formula.eval f (fun _ -> qi x) in
    Alcotest.(check bool) "x=5 ok" true (holds 5);
    Alcotest.(check bool) "x=6 rejected" false (holds 6)

let test_fm_strict_combination () =
  (* exists y. x < y /\ y < 5  ==>  x < 5 over R *)
  let atoms = [ Atom.mk_lt (v 0) (v 1); Atom.mk_lt (v 1) (c 5) ] in
  match Fourier_motzkin.eliminate [ 1 ] atoms with
  | None -> Alcotest.fail "fm failed"
  | Some out ->
    let f = Formula.and_ (List.map Formula.atom out) in
    Alcotest.(check bool) "x=4.9 ok" true
      (Formula.eval f (fun _ -> q 49 10));
    Alcotest.(check bool) "x=5 rejected" false (Formula.eval f (fun _ -> qi 5))

let test_fm_equality_subst () =
  (* exists y. y = x + 2 /\ y <= 10  ==>  x <= 8 *)
  let atoms = [ Atom.mk_eq (v 1) (v 0 +% c 2); Atom.mk_le (v 1) (c 10) ] in
  match Fourier_motzkin.eliminate [ 1 ] atoms with
  | None -> Alcotest.fail "fm failed"
  | Some out ->
    let f = Formula.and_ (List.map Formula.atom out) in
    Alcotest.(check bool) "x=8 ok" true (Formula.eval f (fun _ -> qi 8));
    Alcotest.(check bool) "x=9 rejected" false (Formula.eval f (fun _ -> qi 9))

let test_cooper_parity () =
  (* exists x. y = 2x  ==>  2 | y. Check via equivalence on samples. *)
  let cube = [ (Atom.mk_eq (v 1) (sv 2 0), true) ] in
  match Cooper.eliminate_cube 0 cube with
  | None -> Alcotest.fail "cooper failed"
  | Some f ->
    let holds y = Formula.eval f (fun i -> if i = 1 then qi y else Rat.zero) in
    Alcotest.(check bool) "y=4 ok" true (holds 4);
    Alcotest.(check bool) "y=-2 ok" true (holds (-2));
    Alcotest.(check bool) "y=3 rejected" false (holds 3)

let test_cooper_bounded () =
  (* exists x in Z. y <= x /\ x <= y: always true (x = y). *)
  let cube = [ (Atom.mk_le (v 1) (v 0), true); (Atom.mk_le (v 0) (v 1), true) ] in
  match Cooper.eliminate_cube 0 cube with
  | None -> Alcotest.fail "cooper failed"
  | Some f ->
    List.iter
      (fun y ->
        Alcotest.(check bool) "always true" true
          (Formula.eval f (fun i -> if i = 1 then qi y else Rat.zero)))
      [ -3; 0; 7 ]

let test_cooper_gap () =
  (* exists x in Z. 2y < 2x /\ 2x < 2y + 2: no integer strictly between
     y and y+1 when x,y integers. Expect identically false. *)
  let cube =
    [ (Atom.mk_lt (sv 2 1) (sv 2 0), true); (Atom.mk_lt (sv 2 0) (sv 2 1 +% c 2), true) ]
  in
  match Cooper.eliminate_cube 0 cube with
  | None -> Alcotest.fail "cooper failed"
  | Some f ->
    List.iter
      (fun y ->
        Alcotest.(check bool) "no gap integer" false
          (Formula.eval f (fun i -> if i = 1 then qi y else Rat.zero)))
      [ -2; 0; 5 ]

let prop_qe_cooper_matches_solver =
  (* For random cubes over (x, y), Cooper's projection onto y must agree
     with solver-decided satisfiability of the cube at sampled y values. *)
  let gen_cube =
    QCheck.Gen.(
      let gen_atom =
        let* a = int_range (-3) 3 in
        let* b = int_range (-3) 3 in
        let* k = int_range (-8) 8 in
        let* rel = int_range 0 2 in
        let e = Linexpr.add (sv a 0) (sv b 1) in
        return
          (match rel with
           | 0 -> Atom.mk_le e (c k)
           | 1 -> Atom.mk_lt e (c k)
           | _ -> Atom.mk_eq e (c k))
      in
      list_size (int_range 1 3) gen_atom)
  in
  QCheck.Test.make ~name:"cooper projection matches solver" ~count:100
    (QCheck.make gen_cube)
    (fun atoms ->
      match Cooper.eliminate_cube 0 (List.map (fun a -> (a, true)) atoms) with
      | None -> true
      | Some proj ->
        List.for_all
          (fun y ->
            let proj_holds =
              Formula.eval proj (fun i -> if i = 1 then qi y else Rat.zero)
            in
            let cube_with_y =
              Formula.and_
                (fm_atom (Atom.mk_eq (v 1) (c y))
                 :: List.map fm_atom atoms)
            in
            let solver_sat =
              match Solver.solve ~is_int:all_int cube_with_y with
              | Solver.Sat _ -> true
              | Solver.Unsat -> false
              | Solver.Unknown -> proj_holds (* don't fail on unknown *)
            in
            proj_holds = solver_sat)
          [ -4; -1; 0; 2; 5 ])

let prop_qe_fm_overapproximates =
  (* FM projection over R contains the integer projection: whenever the
     cube is int-satisfiable at y, FM's projection must hold at y. *)
  let gen_cube =
    QCheck.Gen.(
      let gen_atom =
        let* a = int_range (-3) 3 in
        let* b = int_range (-3) 3 in
        let* k = int_range (-8) 8 in
        let* rel = int_range 0 1 in
        let e = Linexpr.add (sv a 0) (sv b 1) in
        return (if rel = 0 then Atom.mk_le e (c k) else Atom.mk_lt e (c k))
      in
      list_size (int_range 1 4) gen_atom)
  in
  QCheck.Test.make ~name:"fm projection over-approximates Z" ~count:100
    (QCheck.make gen_cube)
    (fun atoms ->
      match Fourier_motzkin.eliminate [ 0 ] atoms with
      | None -> true
      | Some out ->
        let proj = Formula.and_ (List.map fm_atom out) in
        List.for_all
          (fun y ->
            let cube_with_y =
              Formula.and_ (fm_atom (Atom.mk_eq (v 1) (c y)) :: List.map fm_atom atoms)
            in
            match Solver.solve ~is_int:all_int cube_with_y with
            | Solver.Sat _ ->
              Formula.eval proj (fun i -> if i = 1 then qi y else Rat.zero)
            | Solver.Unsat | Solver.Unknown -> true)
          [ -4; -1; 0; 2; 5 ])

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  (* Run the whole suite with the independent certificate checker
     auditing every verdict. *)
  Sia_check.Check.enable ();
  Alcotest.run "smt"
    [
      ( "sat",
        [
          Alcotest.test_case "trivial" `Quick test_sat_trivial;
          Alcotest.test_case "unsat" `Quick test_sat_unsat;
          Alcotest.test_case "3sat" `Quick test_sat_3sat;
          Alcotest.test_case "incremental" `Quick test_sat_incremental;
          Alcotest.test_case "pigeonhole" `Quick test_sat_pigeonhole;
          Alcotest.test_case "random models" `Quick test_sat_random_models;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "feasible" `Quick test_simplex_feasible;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "strict" `Quick test_simplex_strict;
          Alcotest.test_case "strict unsat" `Quick test_simplex_strict_unsat;
          Alcotest.test_case "equalities" `Quick test_simplex_equalities;
          Alcotest.test_case "chain" `Quick test_simplex_chain;
        ] );
      ("simplex-props", qsuite [ prop_simplex_sound ]);
      ( "theory",
        [
          Alcotest.test_case "gcd" `Quick test_theory_int_rounding;
          Alcotest.test_case "branch and bound" `Quick test_theory_branch_bound;
          Alcotest.test_case "int model" `Quick test_theory_int_model;
          Alcotest.test_case "divisibility" `Quick test_theory_dvd;
        ] );
      ( "solver",
        [
          Alcotest.test_case "conjunction" `Quick test_solver_conjunction;
          Alcotest.test_case "disjunction" `Quick test_solver_disjunction_boolean_conflict;
          Alcotest.test_case "negated equality" `Quick test_solver_negation_eq;
          Alcotest.test_case "entails" `Quick test_solver_entails;
          Alcotest.test_case "motivating example" `Quick test_solver_motivating;
        ] );
      ("solver-props", qsuite [ prop_solver_models_satisfy ]);
      ( "qe",
        [
          Alcotest.test_case "fm basic" `Quick test_fm_basic;
          Alcotest.test_case "fm strict" `Quick test_fm_strict_combination;
          Alcotest.test_case "fm equality" `Quick test_fm_equality_subst;
          Alcotest.test_case "cooper parity" `Quick test_cooper_parity;
          Alcotest.test_case "cooper bounded" `Quick test_cooper_bounded;
          Alcotest.test_case "cooper gap" `Quick test_cooper_gap;
        ] );
      ("qe-props", qsuite [ prop_qe_cooper_matches_solver; prop_qe_fm_overapproximates ]);
    ]
