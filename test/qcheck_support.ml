(* Shared helpers for property tests across suites. *)

let gen_queries ~seed ~count =
  List.map
    (fun g -> g.Sia_workload.Qgen.pred)
    (Sia_workload.Qgen.generate ~seed ~count ())

(* The rows of [a] and of [b] over their common columns, each sorted
   (NULL reads as [None]): equal exactly when the two tables hold the
   same row multiset there. *)
let row_multisets (a : Sia_engine.Table.t) (b : Sia_engine.Table.t) =
  let module Table = Sia_engine.Table in
  let cols =
    List.filter (fun c -> Array.mem c b.Table.col_names) (Array.to_list a.Table.col_names)
  in
  if cols = [] then invalid_arg "row_multisets: no common columns";
  let rows (t : Table.t) =
    let cols = List.map (fun c -> (Table.column t c, Table.null_mask t c)) cols in
    List.init t.Table.nrows (fun r ->
        List.map
          (fun (col, mask) ->
            match mask with Some m when m.(r) -> None | _ -> Some col.(r))
          cols)
    |> List.sort compare
  in
  (rows a, rows b)
