module Strdict = Sia_sql.Strdict

type t = {
  name : string;
  col_names : string array;
  cols : int array array;
  nrows : int;
  null_masks : bool array option array;
  dicts : Strdict.t option array;
}

let side_arrays ~col_names ?(nulls = []) ?(dicts = []) () =
  let n = List.length col_names in
  let names = Array.of_list col_names in
  let lookup assoc what =
    List.iter
      (fun (name, _) ->
        if not (Array.exists (String.equal name) names) then
          invalid_arg (Printf.sprintf "Table: %s for unknown column %s" what name))
      assoc;
    Array.init n (fun i -> List.assoc_opt names.(i) assoc)
  in
  (lookup nulls "null mask", lookup dicts "dictionary")

let create ~name ~col_names ?nulls ?dicts ~rows () =
  let ncols = List.length col_names in
  let nrows = List.length rows in
  let cols = Array.init ncols (fun _ -> Array.make nrows 0) in
  List.iteri
    (fun r row ->
      if Array.length row <> ncols then invalid_arg "Table.create: ragged row";
      Array.iteri (fun c v -> cols.(c).(r) <- v) row)
    rows;
  let null_masks, dicts = side_arrays ~col_names ?nulls ?dicts () in
  Array.iter
    (function
      | Some m when Array.length m <> nrows ->
        invalid_arg "Table.create: null mask length mismatch"
      | _ -> ())
    null_masks;
  { name; col_names = Array.of_list col_names; cols; nrows; null_masks; dicts }

let of_columns ~name ?nulls ?dicts cols =
  let nrows = match cols with [] -> 0 | (_, c) :: _ -> Array.length c in
  List.iter
    (fun (_, c) -> if Array.length c <> nrows then invalid_arg "Table.of_columns: ragged")
    cols;
  let col_names = List.map fst cols in
  let null_masks, dicts = side_arrays ~col_names ?nulls ?dicts () in
  Array.iter
    (function
      | Some m when Array.length m <> nrows ->
        invalid_arg "Table.of_columns: null mask length mismatch"
      | _ -> ())
    null_masks;
  {
    name;
    col_names = Array.of_list col_names;
    cols = Array.of_list (List.map snd cols);
    nrows;
    null_masks;
    dicts;
  }

let col_index t name =
  let rec go i =
    if i >= Array.length t.col_names then raise Not_found
    else if t.col_names.(i) = name then i
    else go (i + 1)
  in
  go 0

let column t name = t.cols.(col_index t name)
let null_mask t name = t.null_masks.(col_index t name)
let dict t name = t.dicts.(col_index t name)

let gather t rows =
  let n = Array.length rows in
  {
    t with
    cols = Array.map (fun col -> Array.init n (fun k -> col.(rows.(k)))) t.cols;
    null_masks =
      Array.map
        (Option.map (fun m -> Array.init n (fun k -> m.(rows.(k)))))
        t.null_masks;
    nrows = n;
  }

let concat_columns ~name l r li ri =
  let n = Array.length li in
  let gather (src : int array) idx = Array.init n (fun k -> src.(idx.(k))) in
  let gather_mask (src : bool array) idx = Array.init n (fun k -> src.(idx.(k))) in
  let lcols = Array.map (fun c -> gather c li) l.cols in
  let rcols = Array.map (fun c -> gather c ri) r.cols in
  let lmasks = Array.map (Option.map (fun m -> gather_mask m li)) l.null_masks in
  let rmasks = Array.map (Option.map (fun m -> gather_mask m ri)) r.null_masks in
  {
    name;
    col_names = Array.append l.col_names r.col_names;
    cols = Array.append lcols rcols;
    nrows = n;
    null_masks = Array.append lmasks rmasks;
    dicts = Array.append l.dicts r.dicts;
  }
