(** Compile predicates to closures over table rows.

    Dates evaluate to day counts and intervals to day spans, so the date
    arithmetic in predicates reduces to integer arithmetic, exactly as in
    Sia's encoding. Division is SQL-style integer division (truncation).
    String comparisons and prefix LIKE are decided once per dictionary
    code, on the decoded string ([String.compare] and the LIKE matcher
    on [Strdict.value]); each row then reads its code's answer. That is
    deliberately independent of the SMT rank encoding, so the
    differential suite in [test/test_grammar.ml] checks two separate
    implementations of the same semantics (DESIGN.md §21.4).

    Evaluation order: AND and OR evaluate their left operand first and
    skip the right one where the left settles the result, and the filter
    ({!select}) runs an AND's right conjunct only on rows where its left
    one is TRUE; so [a <> 0 AND b / a > 1] rejects a row with [a = 0]
    instead of raising [Division_by_zero]. *)

exception Unsupported of string

(** SQL's three truth values (DESIGN.md §21.3). *)
type tv = Tv_true | Tv_false | Tv_null

val tv_and : tv -> tv -> tv
(** Kleene strong conjunction. *)

val tv_or : tv -> tv -> tv
(** Kleene strong disjunction. *)

val tv_not : tv -> tv
(** Swaps TRUE/FALSE, preserves UNKNOWN. *)

val compile_pred3 : Table.t -> Sia_sql.Ast.pred -> int -> tv
(** [compile_pred3 table p] resolves every column of [p] against [table]
    once, returning a per-row three-valued evaluator.
    @raise Unsupported for float constants (the engine stores ints),
    non-prefix LIKE patterns, and string operations on dictionary-less
    columns; @raise Not_found for unresolvable columns. *)

val select : Table.t -> Sia_sql.Ast.pred -> int array option -> int array
(** [select table p rows] is the rows of [rows] (all rows, ascending, when
    [None]) where [p] is TRUE, in input order. UNKNOWN rejects, matching
    SQL filter semantics; the rows are exactly those where
    {!compile_pred3} answers [Tv_true]. Raises as {!compile_pred3}. *)

val filter : Table.t -> Sia_sql.Ast.pred -> Table.t
val selectivity : Table.t -> Sia_sql.Ast.pred -> float
(** Fraction of rows accepted. *)
