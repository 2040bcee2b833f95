(* The benchmark's own arithmetic, kept apart from the workloads so the
   self-test can check it on hand-made inputs. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least a share
   [q] of all samples at or below it. *)
let percentile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 1 (min n rank) - 1)

(* The usual median: the middle sample, or the mean of the middle two. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Percentiles the tail rule may pick, highest first. *)
let tail_ladder = [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]

(* The highest ladder percentile whose nearest rank leaves at least ten
   samples above it, with its value. With fewer than twenty samples no
   percentile qualifies and the median stands in. *)
let tail xs =
  let n = List.length xs in
  let q =
    match
      List.find_opt
        (fun q -> int_of_float (Float.ceil (q *. float_of_int n)) <= n - 10)
        tail_ladder
    with
    | Some q -> q
    | None -> 0.5
  in
  (q, percentile q xs)

let geomean = function
  | [] -> Float.nan
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
      /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0.0 xs

let compare_rows (a : int array) (b : int array) =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i = n then Int.compare (Array.length a) (Array.length b)
    else
      let c = Int.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* Whether two row lists hold the same rows with the same multiplicities,
   in any order. The error names the first difference found. *)
let same_multiset (a : int array array) (b : int array array) =
  if Array.length a <> Array.length b then
    Error
      (Printf.sprintf "%d rows vs %d rows" (Array.length a) (Array.length b))
  else begin
    let a = Array.copy a and b = Array.copy b in
    Array.sort compare_rows a;
    Array.sort compare_rows b;
    let n = Array.length a in
    let rec go i =
      if i = n then Ok ()
      else if compare_rows a.(i) b.(i) <> 0 then
        Error (Printf.sprintf "sorted row %d differs" i)
      else go (i + 1)
    in
    go 0
  end

module Trace = Sia_trace.Trace

(* Per span name: how many spans closed and their summed self time in
   seconds, where a span's self time is its duration minus the time its
   direct children cover. Spans nest strictly per lane, so one stack per
   lane pairs each End with its Begin. *)
let self_times (events : Trace.event list) =
  let stacks : (int, (string * float * float ref) list) Hashtbl.t =
    Hashtbl.create 4
  in
  let totals : (string, int * float) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      let stack =
        Option.value (Hashtbl.find_opt stacks e.Trace.tid) ~default:[]
      in
      match e.Trace.ph with
      | Trace.Begin ->
        Hashtbl.replace stacks e.Trace.tid
          ((e.Trace.name, e.Trace.ts, ref 0.0) :: stack)
      | Trace.End -> (
        match stack with
        | (name, t0, children) :: rest ->
          let dur = e.Trace.ts -. t0 in
          (match rest with
           | (_, _, parent) :: _ -> parent := !parent +. dur
           | [] -> ());
          Hashtbl.replace stacks e.Trace.tid rest;
          let c, s =
            match Hashtbl.find_opt totals name with
            | Some v -> v
            | None ->
              order := name :: !order;
              (0, 0.0)
          in
          Hashtbl.replace totals name
            (c + 1, s +. ((dur -. !children) /. 1e6))
        | [] -> ())
      | Trace.Instant | Trace.Counter | Trace.Meta -> ())
    events;
  List.rev_map (fun name -> (name, Hashtbl.find totals name)) !order
