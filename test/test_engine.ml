(* Tests for the execution engine: tables, TPC-H generator invariants,
   predicate compilation, hash join, plan execution. *)

module Ast = Sia_sql.Ast
module Parser = Sia_sql.Parser
module Date = Sia_sql.Date
module Table = Sia_engine.Table
module Tpch = Sia_engine.Tpch
module Eval = Sia_engine.Eval
module Exec = Sia_engine.Exec
module Schema = Sia_relalg.Schema
module Planner = Sia_relalg.Planner

let small () = Tpch.generate ~sf:0.001 ~seed:5 ()

(* --- Table --- *)

let test_table_create () =
  let t =
    Table.create ~name:"t" ~col_names:[ "a"; "b" ]
      ~rows:[ [| 1; 10 |]; [| 2; 20 |]; [| 3; 30 |] ] ()
  in
  Alcotest.(check int) "rows" 3 t.Table.nrows;
  Alcotest.(check (array int)) "column a" [| 1; 2; 3 |] (Table.column t "a");
  Alcotest.(check (array int)) "column b" [| 10; 20; 30 |] (Table.column t "b");
  Alcotest.check_raises "unknown column" Not_found (fun () ->
      ignore (Table.column t "c"))

let test_table_gather () =
  let t =
    Table.of_columns ~name:"t"
      ~nulls:[ ("a", [| false; true; false; false |]) ]
      [ ("a", [| 1; 0; 3; 4 |]) ]
  in
  let t' = Table.gather t [| 1; 3 |] in
  Alcotest.(check (array int)) "rows 1 and 3, in order" [| 0; 4 |] (Table.column t' "a");
  Alcotest.(check (option (array bool)))
    "null mask gathered" (Some [| true; false |]) (Table.null_mask t' "a")

(* --- TPC-H generator --- *)

let test_tpch_invariants () =
  let li, ord = small () in
  Alcotest.(check bool) "lineitem nonempty" true (li.Table.nrows > 0);
  Alcotest.(check bool) "1-7 lineitems per order" true
    (li.Table.nrows >= ord.Table.nrows && li.Table.nrows <= 7 * ord.Table.nrows);
  let odate_of =
    let keys = Table.column ord "o_orderkey" in
    let dates = Table.column ord "o_orderdate" in
    let tbl = Hashtbl.create 64 in
    Array.iteri (fun i k -> Hashtbl.replace tbl k dates.(i)) keys;
    fun k -> Hashtbl.find tbl k
  in
  let lkeys = Table.column li "l_orderkey" in
  let ship = Table.column li "l_shipdate" in
  let commit = Table.column li "l_commitdate" in
  let receipt = Table.column li "l_receiptdate" in
  for i = 0 to li.Table.nrows - 1 do
    let o = odate_of lkeys.(i) in
    assert (ship.(i) >= o + 1 && ship.(i) <= o + 121);
    assert (commit.(i) >= o + 30 && commit.(i) <= o + 90);
    assert (receipt.(i) >= ship.(i) + 1 && receipt.(i) <= ship.(i) + 30)
  done;
  let lo = Date.to_days (Date.of_ymd 1992 1 1) in
  let hi = Date.to_days (Date.of_ymd 1998 8 2) in
  Array.iter (fun d -> assert (d >= lo && d <= hi)) (Table.column ord "o_orderdate")

let test_tpch_deterministic () =
  let li1, _ = Tpch.generate ~sf:0.001 ~seed:9 () in
  let li2, _ = Tpch.generate ~sf:0.001 ~seed:9 () in
  Alcotest.(check int) "same size" li1.Table.nrows li2.Table.nrows;
  Alcotest.(check (array int)) "same shipdates" (Table.column li1 "l_shipdate")
    (Table.column li2 "l_shipdate")

let test_tpch_generate_all () =
  let tables = Tpch.generate_all ~sf:0.002 ~seed:5 () in
  Alcotest.(check (list string))
    "8 tables in catalog order"
    [
      "lineitem"; "orders"; "customer"; "part"; "partsupp"; "supplier";
      "nation"; "region";
    ]
    (List.map fst tables);
  let table n = List.assoc n tables in
  Alcotest.(check int) "nation fixed" 25 (table "nation").Table.nrows;
  Alcotest.(check int) "region fixed" 5 (table "region").Table.nrows;
  List.iter
    (fun (n, t) ->
      Alcotest.(check bool) (n ^ " nonempty") true (t.Table.nrows > 0))
    tables;
  (* every string column of the catalog is interned with a dictionary,
     and the decoded codes stay inside the dictionary's domain *)
  List.iter
    (fun (tname, t) ->
      List.iter
        (fun { Schema.cname; ctype; _ } ->
          match ctype with
          | Schema.Tstring _ ->
            (match Table.dict t cname with
             | None -> Alcotest.fail (tname ^ "." ^ cname ^ " has no dict")
             | Some d ->
               let n = Sia_sql.Strdict.size d in
               Array.iter
                 (fun code -> assert (code >= 0 && code < n))
                 (Table.column t cname))
          | _ ->
            (* no structural equality on [Strdict.t option] (lint R1) *)
            (match Table.dict t cname with
             | None -> ()
             | Some _ ->
               Alcotest.fail (tname ^ "." ^ cname ^ " numeric column has a dict")))
        (Schema.table Schema.tpch tname).Schema.columns)
    tables;
  (* the nullable account balances carry a sparse null mask (~3%) *)
  List.iter
    (fun (tname, cname) ->
      match Table.null_mask (table tname) cname with
      | None -> Alcotest.fail (cname ^ " should be nullable")
      | Some mask ->
        let nulls = Array.fold_left (fun a b -> if b then a + 1 else a) 0 mask in
        let frac = float_of_int nulls /. float_of_int (Array.length mask) in
        (* ~3% of rows; only demand a hit when the table is big enough
           for that to be near-certain (supplier has ~20 rows here) *)
        Alcotest.(check bool)
          (cname ^ " null fraction plausible")
          true
          (frac < 0.10 && (Array.length mask < 200 || nulls > 0)))
    [ ("customer", "c_acctbal"); ("supplier", "s_acctbal") ];
  (* deterministic per seed, including the small tables *)
  let again = Tpch.generate_all ~sf:0.002 ~seed:5 () in
  List.iter2
    (fun (n1, t1) (n2, t2) ->
      Alcotest.(check string) "same order" n1 n2;
      Alcotest.(check (array int))
        (n1 ^ " first column deterministic")
        t1.Table.cols.(0) t2.Table.cols.(0))
    tables again

(* --- Eval --- *)

let test_eval_filter () =
  let li, _ = small () in
  let p = Parser.parse_predicate "l_shipdate < DATE '1995-01-01'" in
  let filtered = Eval.filter li p in
  let cutoff = Date.to_days (Date.of_string "1995-01-01") in
  Alcotest.(check bool) "all below cutoff" true
    (Array.for_all (fun d -> d < cutoff) (Table.column filtered "l_shipdate"));
  let sel = Eval.selectivity li p in
  Alcotest.(check (float 1e-9)) "selectivity consistent"
    (float_of_int filtered.Table.nrows /. float_of_int li.Table.nrows)
    sel

let test_eval_arith () =
  let li, _ = small () in
  let p = Parser.parse_predicate "l_receiptdate - l_shipdate <= 30" in
  Alcotest.(check (float 0.0)) "generator guarantees receipt within 30 days" 1.0
    (Eval.selectivity li p);
  let p2 = Parser.parse_predicate "l_receiptdate - l_shipdate > 30" in
  Alcotest.(check (float 0.0)) "complement" 0.0 (Eval.selectivity li p2)

let test_eval_logic () =
  let t =
    Table.create ~name:"t" ~col_names:[ "a" ] ~rows:[ [| 1 |]; [| 5 |]; [| 9 |] ] ()
  in
  let p = Parser.parse_predicate "a < 3 OR NOT a < 7" in
  let filtered = Eval.filter t p in
  Alcotest.(check (array int)) "1 and 9 pass" [| 1; 9 |] (Table.column filtered "a")

let test_eval_null_string () =
  (* A NULL string compares UNKNOWN, so neither a test nor its negation
     keeps the row; its padding code 0 ('A') must not leak through. *)
  let t =
    Table.of_columns ~name:"t"
      ~nulls:[ ("s", [| false; true; false |]) ]
      ~dicts:[ ("s", Sia_sql.Strdict.make [ "A"; "B" ]) ]
      [ ("id", [| 0; 1; 2 |]); ("s", [| 0; 0; 1 |]) ]
  in
  List.iter
    (fun (p, expected) ->
      Alcotest.(check (array int)) p expected
        (Table.column (Eval.filter t (Parser.parse_predicate p)) "id"))
    [
      ("s = 'A'", [| 0 |]);
      ("NOT s = 'A'", [| 2 |]);
      ("s LIKE 'A%' OR NOT s LIKE 'A%'", [| 0; 2 |]);
      ("s IS NULL", [| 1 |]);
    ]

let test_eval_and_short_circuit () =
  (* The right conjunct never runs on a row the left one rejects, so the
     a = 0 row is rejected instead of raising Division_by_zero. *)
  let t =
    Table.create ~name:"t" ~col_names:[ "a"; "b" ]
      ~rows:[ [| 0; 5 |]; [| 2; 5 |]; [| 5; 1 |] ] ()
  in
  let p = Parser.parse_predicate "a <> 0 AND b / a > 1" in
  Alcotest.(check (array int)) "filter keeps a = 2" [| 2 |]
    (Table.column (Eval.filter t p) "a");
  Alcotest.(check bool) "per-row evaluator: FALSE on a = 0" true
    (Eval.compile_pred3 t p 0 = Eval.Tv_false);
  Alcotest.check_raises "both sides evaluated would divide by zero"
    Division_by_zero (fun () ->
      ignore (Eval.filter t (Parser.parse_predicate "b / a > 1 AND a <> 0")))

(* --- Join and plan execution --- *)

let test_hash_join_fk () =
  let li, ord = small () in
  let joined =
    Exec.hash_join ~left:li ~right:ord ~left_key:"l_orderkey" ~right_key:"o_orderkey"
  in
  (* Every lineitem matches exactly its one order. *)
  Alcotest.(check int) "FK join preserves lineitem count" li.Table.nrows joined.Table.nrows;
  let lk = Table.column joined "l_orderkey" in
  let ok = Table.column joined "o_orderkey" in
  Array.iteri (fun i k -> assert (ok.(i) = k)) lk

let test_hash_join_null_keys () =
  (* Each side's NULL key pads a 0 that the other side also holds as a
     real key; NULL = NULL and NULL = 0 are UNKNOWN, so only 1=1 and 0=0
     match. *)
  let l =
    Table.of_columns ~name:"l"
      ~nulls:[ ("lk", [| false; true; false |]) ]
      [ ("lk", [| 1; 0; 0 |]); ("lv", [| 10; 11; 12 |]) ]
  in
  let r =
    Table.of_columns ~name:"r"
      ~nulls:[ ("rk", [| true; false; false; true |]) ]
      [ ("rk", [| 0; 1; 0; 0 |]); ("rv", [| 20; 21; 22; 23 |]) ]
  in
  let pairs (t : Table.t) =
    List.sort compare
      (List.init t.Table.nrows (fun i ->
           ((Table.column t "lv").(i), (Table.column t "rv").(i))))
  in
  (* the smaller side builds, so the two orders swap build and probe *)
  List.iter
    (fun joined ->
      Alcotest.(check (list (pair int int)))
        "NULL keys match nothing" [ (10, 21); (12, 22) ] (pairs joined))
    [
      Exec.hash_join ~left:l ~right:r ~left_key:"lk" ~right_key:"rk";
      Exec.hash_join ~left:r ~right:l ~left_key:"rk" ~right_key:"lk";
    ]

let test_plan_execution_equivalence () =
  (* Join-then-filter equals filter-then-join (pushdown preserves
     semantics in the engine, not only in the solver). *)
  let li, ord = small () in
  let tables = [ ("lineitem", li); ("orders", ord) ] in
  let q =
    Parser.parse_query
      "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey AND \
       l_shipdate - o_orderdate < 40 AND o_orderdate < DATE '1996-01-01'"
  in
  let naive = Planner.naive_plan Schema.tpch q in
  let pushed = Planner.plan Schema.tpch q in
  let out1 = Exec.run ~tables naive in
  let out2 = Exec.run ~tables pushed in
  let rows1, rows2 = Qcheck_support.row_multisets out1 out2 in
  Alcotest.(check bool) "nonempty" true (rows1 <> []);
  Alcotest.(check (list (list (option int)))) "same rows" rows1 rows2;
  Alcotest.(check bool) "pushed plan differs from naive" true (not (Sia_relalg.Plan.equal naive pushed))

(* --- Three-valued NULL semantics (examples/null_semantics.ml, asserted) --- *)

(* The example's walkthrough as hard assertions: over nullable columns,
   Verify must use SQL's trivalent semantics. A value-level tautology like
   (b > -100 OR b <= -100) evaluates to NULL when b is NULL, so it would
   drop the tuple (a=1, b=NULL) that p = (a > 0 OR b > 0) accepts. *)

let nullable_cat : Schema.catalog =
  [
    {
      Schema.tname = "t";
      row_estimate = 1000;
      columns =
        [
          { Schema.cname = "a"; ctype = Schema.Tint; nullable = true };
          { Schema.cname = "b"; ctype = Schema.Tint; nullable = true };
        ];
    };
  ]

let implies_verdict p_str p1_str =
  let p = Parser.parse_predicate p_str in
  let p1 = Parser.parse_predicate p1_str in
  let env = Sia_core.Encode.build_env nullable_cat [ "t" ] (Ast.And (p, p1)) in
  Sia_core.Verify.implies env ~p ~p1

let test_null_tautology_trap () =
  (* Valid over non-null data, invalid under SQL semantics. *)
  Alcotest.(check bool) "value-level tautology rejected" true
    (implies_verdict "a > 0 OR b > 0" "b > -100 OR b <= -100"
     = Sia_core.Verify.Invalid)

let test_null_self_implication () =
  Alcotest.(check bool) "p implies itself under NULLs" true
    (implies_verdict "a > 0 OR b > 0" "a > 0 OR b > 0" = Sia_core.Verify.Valid)

let test_null_conjunction_forces_nonnull () =
  (* p TRUE requires b > 0 TRUE, which requires b non-NULL: the one-sided
     weakening survives the trivalent encoding. *)
  Alcotest.(check bool) "AND branch forces b non-null" true
    (implies_verdict "a > 0 AND b > 0" "b > 0" = Sia_core.Verify.Valid)

let test_null_disjunction_leaks_null () =
  (* The same weakening under OR does not: (a=1, b=NULL) makes p TRUE but
     b > 0 NULL. *)
  Alcotest.(check bool) "OR branch can leave b NULL" true
    (implies_verdict "a > 0 OR b > 0" "b > 0" = Sia_core.Verify.Invalid)

let prop_filter_join_commute =
  QCheck.Test.make ~name:"filter commutes with join on one-sided predicates" ~count:20
    (QCheck.int_range 10 100)
    (fun days ->
      let li, ord = small () in
      let tables = [ ("lineitem", li); ("orders", ord) ] in
      let q =
        Parser.parse_query
          (Printf.sprintf
             "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey AND \
              l_receiptdate - l_commitdate < %d" days)
      in
      let naive = Planner.naive_plan Schema.tpch q in
      let pushed = Planner.plan Schema.tpch q in
      (Exec.run ~tables naive).Table.nrows = (Exec.run ~tables pushed).Table.nrows)

(* --- Filter kernel vs per-row evaluator (QCheck differential) --- *)

(* [Exec]'s filters run the narrowing kernel of [Eval.select]; the
   per-row evaluator [Eval.compile_pred3] is the oracle. Random tables
   carry null masks and string dictionaries, random predicates use the
   whole grammar, and a filter must keep exactly the TRUE rows, in
   order. *)

let words = [ ""; "A"; "AB"; "AIR"; "B"; "BA"; "MAIL"; "REG AIR" ]

(* Columns [<p>id] (the row number), [<p>a] (nullable, also the join
   key), [<p>b] and the nullable dictionary string [<p>s]. *)
let gen_table p =
  QCheck.Gen.(
    let* n = int_range 0 30 in
    let* dict = list_size (int_range 1 5) (oneofl words) in
    let d = Sia_sql.Strdict.make dict in
    let maybe_null = array_repeat n (frequency [ (3, return false); (1, return true) ]) in
    let* a = array_repeat n (int_range (-3) 3) in
    let* a_null = maybe_null in
    let* b = array_repeat n (int_range (-3) 3) in
    let* s = array_repeat n (int_range 0 (Sia_sql.Strdict.size d - 1)) in
    let* s_null = maybe_null in
    return
      (Table.of_columns ~name:p
         ~nulls:[ (p ^ "a", a_null); (p ^ "s", s_null) ]
         ~dicts:[ (p ^ "s", d) ]
         [ (p ^ "id", Array.init n Fun.id); (p ^ "a", a); (p ^ "b", b); (p ^ "s", s) ]))

let gen_pred ~ints ~strs =
  QCheck.Gen.(
    let lit = map Ast.int_ (int_range (-4) 4) in
    let cmp = oneofl [ Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Eq; Ast.Ne ] in
    let scol = map Ast.col (oneofl strs) in
    let rec expr d =
      if d = 0 then frequency [ (2, map Ast.col (oneofl ints)); (1, lit) ]
      else
        frequency
          [
            (3, expr 0);
            (1, map2 Ast.( +! ) (expr (d - 1)) (expr (d - 1)));
            (1, map2 Ast.( -! ) (expr (d - 1)) (expr (d - 1)));
            (1, map (fun e -> Ast.(e *! int_ 2)) (expr (d - 1)));
            (1, map (fun e -> Ast.(e /! int_ 2)) (expr (d - 1)));
            ( 1,
              map3 (fun c v e -> Ast.Case ([ (c, v) ], e)) (atom 0) (expr (d - 1)) (expr (d - 1)) );
          ]
    and atom d =
      frequency
        [
          (4, map3 (fun op a b -> Ast.Cmp (op, a, b)) cmp (expr d) (expr d));
          (2, map3 (fun op c w -> Ast.Cmp (op, c, Ast.str w)) cmp scol (oneofl words));
          (1, map2 (fun c w -> Ast.Cmp (Ast.Eq, Ast.str w, c)) scol (oneofl words));
          ( 1,
            let* w = oneofl words in
            let* k = int_range 0 (String.length w) in
            let* prefix = bool in
            let* c = scol in
            return (Ast.Like (c, if prefix then String.sub w 0 k ^ "%" else w)) );
          ( 1,
            map2 (fun e ns -> Ast.In (e, List.map (fun n -> Ast.Cint n) ns)) (expr d)
              (list_size (int_range 1 3) (int_range (-4) 4)) );
          ( 1,
            map2 (fun c ws -> Ast.In (c, List.map (fun w -> Ast.Cstring w) ws)) scol
              (list_size (int_range 1 3) (oneofl words)) );
          (1, map3 (fun e lo hi -> Ast.Between (e, lo, hi)) (expr d) lit lit);
          (1, map (fun e -> Ast.IsNull e) (oneof [ expr d; scol ]));
        ]
    in
    let rec pred d =
      if d = 0 then atom 1
      else
        frequency
          [
            (2, atom 1);
            (2, map2 (fun a b -> Ast.And (a, b)) (pred (d - 1)) (pred (d - 1)));
            (2, map2 (fun a b -> Ast.Or (a, b)) (pred (d - 1)) (pred (d - 1)));
            (1, map (fun a -> Ast.Not a) (pred (d - 1)));
          ]
    in
    int_range 0 3 >>= pred)

(* The values of columns [cols] on the rows [compile_pred3] finds TRUE,
   and on the rows of [out]; equal when the filter kept exactly them. *)
let kept_vs_expected (input : Table.t) p cols (out : Table.t) =
  let tv = Eval.compile_pred3 input p in
  let pick (t : Table.t) rows =
    List.map (fun r -> List.map (fun c -> (Table.column t c).(r)) cols) rows
  in
  ( pick out (List.init out.Table.nrows Fun.id),
    pick input
      (List.filter (fun r -> tv r = Eval.Tv_true) (List.init input.Table.nrows Fun.id)) )

let print_case (p, tables) =
  Printf.sprintf "%s over %s" (Sia_sql.Printer.string_of_pred p)
    (String.concat ", "
       (List.map (fun (t : Table.t) -> Printf.sprintf "%s(%d rows)" t.Table.name t.Table.nrows)
          tables))

let prop_kernel_filter =
  QCheck.Test.make ~name:"filter kernel = per-row evaluator (scan)" ~count:500
    (QCheck.make ~print:(fun (p, t) -> print_case (p, [ t ]))
       QCheck.Gen.(pair (gen_pred ~ints:[ "ta"; "tb" ] ~strs:[ "ts" ]) (gen_table "t")))
    (fun (p, t) ->
      let out = Exec.run ~tables:[ ("t", t) ] (Sia_relalg.Plan.Filter (p, Sia_relalg.Plan.Scan "t")) in
      let got, expected = kept_vs_expected t p [ "tid" ] out in
      got = expected)

let prop_kernel_filter_join =
  QCheck.Test.make ~name:"filter kernel = per-row evaluator (above a join)" ~count:300
    (QCheck.make
       ~print:(fun (p, t, u) -> print_case (p, [ t; u ]))
       QCheck.Gen.(
         triple
           (gen_pred ~ints:[ "ta"; "tb"; "ub" ] ~strs:[ "ts"; "us" ])
           (gen_table "t") (gen_table "u")))
    (fun (p, t, u) ->
      let module Plan = Sia_relalg.Plan in
      let tables = [ ("t", t); ("u", u) ] in
      let join =
        Plan.Join
          ( {
              Plan.left_key = { Ast.table = None; name = "ta" };
              right_key = { Ast.table = None; name = "ua" };
              residual = None;
            },
            Plan.Scan "t",
            Plan.Scan "u" )
      in
      let joined = Exec.run ~tables join in
      let out = Exec.run ~tables (Plan.Filter (p, join)) in
      let got, expected = kept_vs_expected joined p [ "tid"; "uid" ] out in
      got = expected)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [
      ( "table",
        [
          Alcotest.test_case "create" `Quick test_table_create;
          Alcotest.test_case "gather" `Quick test_table_gather;
        ] );
      ( "tpch",
        [
          Alcotest.test_case "invariants" `Quick test_tpch_invariants;
          Alcotest.test_case "deterministic" `Quick test_tpch_deterministic;
          Alcotest.test_case "generate_all" `Quick test_tpch_generate_all;
        ] );
      ( "eval",
        [
          Alcotest.test_case "filter" `Quick test_eval_filter;
          Alcotest.test_case "date arithmetic" `Quick test_eval_arith;
          Alcotest.test_case "boolean logic" `Quick test_eval_logic;
          Alcotest.test_case "NULL strings" `Quick test_eval_null_string;
          Alcotest.test_case "AND short-circuit" `Quick test_eval_and_short_circuit;
        ] );
      ( "exec",
        [
          Alcotest.test_case "hash join FK" `Quick test_hash_join_fk;
          Alcotest.test_case "hash join NULL keys" `Quick test_hash_join_null_keys;
          Alcotest.test_case "plan equivalence" `Quick test_plan_execution_equivalence;
        ] );
      ("exec-props", qsuite [ prop_filter_join_commute ]);
      ("kernel-props", qsuite [ prop_kernel_filter; prop_kernel_filter_join ]);
      ( "null-semantics",
        [
          Alcotest.test_case "tautology trap" `Quick test_null_tautology_trap;
          Alcotest.test_case "self implication" `Quick test_null_self_implication;
          Alcotest.test_case "AND forces non-null" `Quick
            test_null_conjunction_forces_nonnull;
          Alcotest.test_case "OR leaks NULL" `Quick test_null_disjunction_leaks_null;
        ] );
    ]
