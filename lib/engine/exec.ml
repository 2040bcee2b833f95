module Plan = Sia_relalg.Plan

exception Unsupported of string

(* Selection-vector execution: filters narrow an index set over their
   input instead of copying columns, and joins build/probe only selected
   rows. Materialization happens once, at join outputs and at the root —
   this is what makes predicate pushdown pay off the way it does in a
   pipelined engine (the experiment Fig 9 reproduces). *)
type cursor = { tbl : Table.t; rows : int array option }

let cursor_nrows c =
  match c.rows with Some r -> Array.length r | None -> c.tbl.Table.nrows

let materialize c =
  match c.rows with None -> c.tbl | Some r -> Table.gather c.tbl r

let filter_cursor c pred = { c with rows = Some (Eval.select c.tbl pred c.rows) }

let iter_rows c f =
  match c.rows with
  | None -> for row = 0 to c.tbl.Table.nrows - 1 do f row done
  | Some rows -> Array.iter f rows

(* A NULL key matches nothing (NULL = NULL is UNKNOWN), so rows whose key
   is NULL take part on neither side. *)
let key_rows c key f =
  let k = Table.column c.tbl key in
  match Table.null_mask c.tbl key with
  | None -> iter_rows c (fun row -> f k.(row) row)
  | Some null -> iter_rows c (fun row -> if not null.(row) then f k.(row) row)

let join_cursors lc rc ~left_key ~right_key =
  (* Build on the smaller selected side, probe with the larger. *)
  let build, probe, build_key, probe_key, build_is_left =
    if cursor_nrows lc <= cursor_nrows rc then (lc, rc, left_key, right_key, true)
    else (rc, lc, right_key, left_key, false)
  in
  let ht = Hashtbl.create (Stdlib.max 16 (cursor_nrows build)) in
  key_rows build build_key (fun k i -> Hashtbl.add ht k i);
  let bi = ref [] and pi = ref [] in
  key_rows probe probe_key (fun k j ->
      List.iter
        (fun i ->
          bi := i :: !bi;
          pi := j :: !pi)
        (Hashtbl.find_all ht k));
  let bi = Array.of_list (List.rev !bi) and pi = Array.of_list (List.rev !pi) in
  let name = lc.tbl.Table.name ^ "_" ^ rc.tbl.Table.name in
  let joined =
    if build_is_left then Table.concat_columns ~name build.tbl probe.tbl bi pi
    else Table.concat_columns ~name probe.tbl build.tbl pi bi
  in
  { tbl = joined; rows = None }

let hash_join ~left ~right ~left_key ~right_key =
  (join_cursors { tbl = left; rows = None } { tbl = right; rows = None } ~left_key
     ~right_key)
    .tbl

let rec run_cursor ~tables plan =
  match plan with
  | Plan.Scan t -> begin
    match List.assoc_opt t tables with
    | Some tbl -> { tbl; rows = None }
    | None -> raise (Unsupported ("unknown table " ^ t))
  end
  | Plan.Filter (p, sub) -> filter_cursor (run_cursor ~tables sub) p
  | Plan.Project (_, sub) ->
    (* The engine is columnar; projection is free and kept only for plan
       shape fidelity. *)
    run_cursor ~tables sub
  | Plan.Join (info, l, r) ->
    let lc = run_cursor ~tables l and rc = run_cursor ~tables r in
    let joined =
      join_cursors lc rc ~left_key:info.Plan.left_key.Sia_sql.Ast.name
        ~right_key:info.Plan.right_key.Sia_sql.Ast.name
    in
    (match info.Plan.residual with
     | Some p -> filter_cursor joined p
     | None -> joined)

let run ~tables plan = materialize (run_cursor ~tables plan)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)
