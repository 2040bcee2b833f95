module Ast = Sia_sql.Ast
module Date = Sia_sql.Date
module Strdict = Sia_sql.Strdict

exception Unsupported of string

type tv = Tv_true | Tv_false | Tv_null

(* Kleene strong three-valued connectives (DESIGN.md §21.3). *)
let tv_and a b =
  match (a, b) with
  | Tv_false, _ | _, Tv_false -> Tv_false
  | Tv_true, Tv_true -> Tv_true
  | _ -> Tv_null

let tv_or a b =
  match (a, b) with
  | Tv_true, _ | _, Tv_true -> Tv_true
  | Tv_false, Tv_false -> Tv_false
  | _ -> Tv_null

let tv_not = function Tv_true -> Tv_false | Tv_false -> Tv_true | Tv_null -> Tv_null
let tv_of_bool b = if b then Tv_true else Tv_false

(* A compiled int expression. Nullability is static: [null] is [None]
   when the expression can never be NULL, so a mask-free column compiles
   to a plain array read. [get row] is only called where [null row] is
   false, so a NULL operand's padding never reaches an operator (no
   division by a padding zero). *)
type expr = Const of int | Dyn of { get : int -> int; null : (int -> bool) option }

(* A compiled predicate: its per-row three-valued value, and its is-TRUE
   projection, which is what a filter runs. *)
type pred = { tv : int -> tv; holds : int -> bool }

let getter = function Const k -> fun _ -> k | Dyn d -> d.get
let value e row = match e with Const k -> k | Dyn d -> d.get row
let nullable = function Const _ -> None | Dyn d -> d.null

let is_null e row =
  match nullable e with None -> false | Some null -> null row

let either_null a b =
  match (nullable a, nullable b) with
  | None, n | n, None -> n
  | Some f, Some g -> Some (fun row -> f row || g row)

(* An atom: NULL where [null] says so, otherwise [test]'s verdict; [test]
   runs on non-NULL rows only. *)
let atom null test =
  match null with
  | None -> { holds = test; tv = (fun row -> tv_of_bool (test row)) }
  | Some null ->
    {
      holds = (fun row -> (not (null row)) && test row);
      tv = (fun row -> if null row then Tv_null else tv_of_bool (test row));
    }

(* Resolution ignores the qualifier: joined tables keep distinct column
   names (TPC-H prefixes), and single tables are unambiguous. *)
let column table name =
  let col = Table.column table name in
  let null =
    match Table.null_mask table name with
    | None -> None
    | Some mask -> Some (fun row -> mask.(row))
  in
  Dyn { get = (fun row -> col.(row)); null }

(* Operators are chosen at compile time, with a constant right operand
   folded into the closure. *)
let arith op a b =
  let fa = getter a in
  let get =
    match (op, b) with
    | Ast.Add, Const k -> fun row -> fa row + k
    | Ast.Sub, Const k -> fun row -> fa row - k
    | Ast.Mul, Const k -> fun row -> fa row * k
    | Ast.Div, Const k -> fun row -> fa row / k
    | Ast.Add, Dyn { get = fb; _ } -> fun row -> fa row + fb row
    | Ast.Sub, Dyn { get = fb; _ } -> fun row -> fa row - fb row
    | Ast.Mul, Dyn { get = fb; _ } -> fun row -> fa row * fb row
    | Ast.Div, Dyn { get = fb; _ } -> fun row -> fa row / fb row
  in
  Dyn { get; null = either_null a b }

let rec int_cmp op a b =
  match (a, b) with
  | Const _, Dyn _ -> int_cmp (Ast.cmp_flip op) b a
  | _ ->
    let fa = getter a in
    let test =
      match (op, b) with
      | Ast.Lt, Const k -> fun row -> fa row < k
      | Ast.Le, Const k -> fun row -> fa row <= k
      | Ast.Gt, Const k -> fun row -> fa row > k
      | Ast.Ge, Const k -> fun row -> fa row >= k
      | Ast.Eq, Const k -> fun row -> fa row = k
      | Ast.Ne, Const k -> fun row -> fa row <> k
      | Ast.Lt, Dyn { get = fb; _ } -> fun row -> fa row < fb row
      | Ast.Le, Dyn { get = fb; _ } -> fun row -> fa row <= fb row
      | Ast.Gt, Dyn { get = fb; _ } -> fun row -> fa row > fb row
      | Ast.Ge, Dyn { get = fb; _ } -> fun row -> fa row >= fb row
      | Ast.Eq, Dyn { get = fb; _ } -> fun row -> fa row = fb row
      | Ast.Ne, Dyn { get = fb; _ } -> fun row -> fa row <> fb row
    in
    atom (either_null a b) test

(* A string test on a string column, decided once per dictionary code on
   the decoded value (independent of the SMT rank encoding); each row
   then reads its code's answer. *)
let string_test table (c : Ast.column) (f : string -> bool) =
  match Table.dict table c.Ast.name with
  | None -> raise (Unsupported ("string comparison on non-string column " ^ c.Ast.name))
  | Some d ->
    let answer = Array.init (Strdict.size d) (fun code -> f (Strdict.value d code)) in
    let codes = Table.column table c.Ast.name in
    atom (nullable (column table c.Ast.name)) (fun row -> answer.(codes.(row)))

let string_cmp op s v =
  let cmp = String.compare v s in
  match op with
  | Ast.Lt -> cmp < 0
  | Ast.Le -> cmp <= 0
  | Ast.Gt -> cmp > 0
  | Ast.Ge -> cmp >= 0
  | Ast.Eq -> cmp = 0
  | Ast.Ne -> cmp <> 0

let like_matcher pat =
  if String.contains pat '_' then
    raise (Unsupported "LIKE pattern with '_' wildcard");
  match String.index_opt pat '%' with
  | None -> fun s -> String.equal s pat
  | Some i when i = String.length pat - 1 ->
    let p = String.sub pat 0 i in
    let np = String.length p in
    fun s -> String.length s >= np && String.equal (String.sub s 0 np) p
  | Some _ -> raise (Unsupported "LIKE pattern with interior '%'")

(* NULL-propagating expressions: any NULL operand makes the result NULL;
   a CASE takes the first arm whose condition is TRUE (UNKNOWN does not
   select, §21.3), the mandatory ELSE otherwise. *)
let rec compile_expr table e =
  match e with
  | Ast.Col c -> column table c.Ast.name
  | Ast.Const (Ast.Cint n | Ast.Cinterval n) -> Const n
  | Ast.Const (Ast.Cdate d) -> Const (Date.to_days d)
  | Ast.Const (Ast.Cfloat _) -> raise (Unsupported "float constant in engine predicate")
  | Ast.Const (Ast.Cstring _) ->
    raise (Unsupported "string literal outside a string comparison")
  | Ast.Binop (op, a, b) -> arith op (compile_expr table a) (compile_expr table b)
  | Ast.Case (arms, els) ->
    let arms = List.map (fun (p, v) -> ((compile table p).holds, compile_expr table v)) arms in
    let els = compile_expr table els in
    let rec pick row = function
      | [] -> els
      | (holds, v) :: rest -> if holds row then v else pick row rest
    in
    let null =
      if List.for_all (fun e -> Option.is_none (nullable e)) (els :: List.map snd arms)
      then None
      else Some (fun row -> is_null (pick row arms) row)
    in
    Dyn { get = (fun row -> value (pick row arms) row); null }

(* AND and OR decide on their left operand alone where it settles the
   result, so the right one is not evaluated there. *)
and compile table p : pred =
  match p with
  | Ast.Cmp (op, Ast.Col c, Ast.Const (Ast.Cstring s))
    when Table.dict table c.Ast.name <> None -> string_test table c (string_cmp op s)
  | Ast.Cmp (op, Ast.Const (Ast.Cstring s), Ast.Col c)
    when Table.dict table c.Ast.name <> None ->
    string_test table c (string_cmp (Ast.cmp_flip op) s)
  | Ast.Cmp (op, a, b) -> int_cmp op (compile_expr table a) (compile_expr table b)
  | Ast.In (e, cs) ->
    compile table (Ast.disj (List.map (fun c -> Ast.Cmp (Ast.Eq, e, Ast.Const c)) cs))
  | Ast.Between (e, lo, hi) ->
    compile table (Ast.And (Ast.Cmp (Ast.Ge, e, lo), Ast.Cmp (Ast.Le, e, hi)))
  | Ast.Like (Ast.Col c, pat) -> string_test table c (like_matcher pat)
  | Ast.Like _ -> raise (Unsupported "LIKE operand must be a string column")
  | Ast.IsNull e ->
    atom None (match nullable (compile_expr table e) with None -> (fun _ -> false) | Some n -> n)
  | Ast.And (a, b) ->
    let a = compile table a and b = compile table b in
    {
      holds = (fun row -> a.holds row && b.holds row);
      tv = (fun row -> match a.tv row with Tv_false -> Tv_false | va -> tv_and va (b.tv row));
    }
  | Ast.Or (a, b) ->
    let a = compile table a and b = compile table b in
    {
      holds = (fun row -> a.holds row || b.holds row);
      tv = (fun row -> match a.tv row with Tv_true -> Tv_true | va -> tv_or va (b.tv row));
    }
  | Ast.Not a ->
    let a = compile table a in
    {
      holds = (fun row -> match a.tv row with Tv_false -> true | Tv_true | Tv_null -> false);
      tv = (fun row -> tv_not (a.tv row));
    }
  | Ast.Ptrue -> atom None (fun _ -> true)
  | Ast.Pfalse -> atom None (fun _ -> false)

let compile_pred3 table p = (compile table p).tv

(* The filter kernel: [kernel table p sel n] keeps, in order, the rows
   among the first [n] of [sel] where [p] is TRUE, moving them to the
   front of [sel], and returns their count. An AND narrows: its right
   conjunct runs only on the rows its left one kept. That is exact
   because a filter keeps only TRUE rows (UNKNOWN rejects, the
   discipline Verify's Unknown-never-valid rule assumes), and
   TRUE(a AND b) = TRUE(a) ∩ TRUE(b). *)
let rec kernel table p : int array -> int -> int =
  match p with
  | Ast.And (a, b) ->
    let ka = kernel table a and kb = kernel table b in
    fun sel n -> kb sel (ka sel n)
  | _ ->
    let holds = (compile table p).holds in
    fun sel n ->
      let k = ref 0 in
      for i = 0 to n - 1 do
        let row = sel.(i) in
        if holds row then begin
          sel.(!k) <- row;
          incr k
        end
      done;
      !k

(* Rows go through the kernel a chunk at a time, so a filter's scratch
   space is one chunk, whatever its input's size. *)
let chunk = 4096

let select table p rows =
  let run = kernel table p in
  let n = match rows with Some r -> Array.length r | None -> table.Table.nrows in
  let sel = Array.make (Stdlib.min chunk n) 0 in
  let kept = ref [] in
  let lo = ref 0 in
  while !lo < n do
    let m = Stdlib.min chunk (n - !lo) in
    (match rows with
     | None -> for i = 0 to m - 1 do sel.(i) <- !lo + i done
     | Some r -> Array.blit r !lo sel 0 m);
    kept := Array.sub sel 0 (run sel m) :: !kept;
    lo := !lo + m
  done;
  Array.concat (List.rev !kept)

let filter table p = Table.gather table (select table p None)

let selectivity table p =
  if table.Table.nrows = 0 then 1.0
  else
    float_of_int (Array.length (select table p None)) /. float_of_int table.Table.nrows
