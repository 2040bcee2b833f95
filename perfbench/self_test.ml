(* Checks the benchmark's own arithmetic on hand-made inputs. *)

open Perfbench
module Trace = Sia_trace.Trace

let check name ok =
  if not ok then begin
    prerr_endline ("self_test FAILED: " ^ name);
    exit 1
  end

let near a b = Float.abs (a -. b) < 1e-9

let () =
  let xs = List.init 100 (fun i -> float_of_int (100 - i)) in
  (* Nearest rank: the p-th percentile of 1..100 is p itself. *)
  check "p50 of 1..100" (near (Stats.percentile 0.5 xs) 50.0);
  check "p99 of 1..100" (near (Stats.percentile 0.99 xs) 99.0);
  check "p100 of 1..100" (near (Stats.percentile 1.0 xs) 100.0);
  check "p0 is the minimum" (near (Stats.percentile 0.0 xs) 1.0);
  check "p50 of 4 samples is the lower middle"
    (near (Stats.percentile 0.5 [ 4.0; 1.0; 3.0; 2.0 ]) 2.0);
  check "median of 3 samples" (near (Stats.median [ 3.0; 1.0; 2.0 ]) 2.0);
  check "median of 4 samples averages the middle two"
    (near (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]) 2.5);
  check "median of nothing is nan" (Float.is_nan (Stats.median []));
  (* Tail rule: the highest ladder percentile with >= 10 samples above
     its rank. n = 100: p90 has rank 90, 10 above; p95 has 5 above. *)
  check "tail of 100 is p90"
    (let q, v = Stats.tail xs in
     near q 0.9 && near v 90.0);
  (* n = 280: p95 has rank 266, 14 above; p99 has rank 278, 2 above. *)
  check "tail of 280 is p95"
    (let q, _ = Stats.tail (List.init 280 float_of_int) in
     near q 0.95);
  check "tail of 72 is p75"
    (let q, _ = Stats.tail (List.init 72 float_of_int) in
     near q 0.75);
  check "tail of 15 falls back to the median"
    (let q, _ = Stats.tail (List.init 15 float_of_int) in
     near q 0.5);
  check "geomean" (near (Stats.geomean [ 1.0; 4.0; 16.0 ]) 4.0);
  check "geomean of ratios around 1"
    (near (Stats.geomean [ 2.0; 0.5 ]) 1.0);
  check "geomean of nothing is nan" (Float.is_nan (Stats.geomean []));
  (* Row multisets. *)
  let rows = [| [| 1; 2 |]; [| 3; 4 |]; [| 1; 2 |]; [| 5; 6 |] |] in
  let reordered = [| [| 5; 6 |]; [| 1; 2 |]; [| 3; 4 |]; [| 1; 2 |] |] in
  let dropped = [| [| 5; 6 |]; [| 1; 2 |]; [| 3; 4 |] |] in
  let duplicated = [| [| 5; 6 |]; [| 1; 2 |]; [| 3; 4 |]; [| 3; 4 |] |] in
  let changed = [| [| 5; 6 |]; [| 1; 2 |]; [| 3; 4 |]; [| 1; 3 |] |] in
  check "reordered rows match" (Stats.same_multiset rows reordered = Ok ());
  check "a dropped row is caught"
    (Result.is_error (Stats.same_multiset rows dropped));
  check "a duplicated row is caught (same row count)"
    (Result.is_error (Stats.same_multiset rows duplicated));
  check "a changed value is caught"
    (Result.is_error (Stats.same_multiset rows changed));
  check "the inputs are not reordered" (rows.(0) = [| 1; 2 |] && rows.(1) = [| 3; 4 |]);
  (* Span self time: outer [0, 100] us holds a [10, 40] and b [50, 90];
     b holds c [60, 70]. Lane 1 runs d [0, 30] concurrently. *)
  let ev name ph ts tid =
    { Trace.name; cat = "sia"; ph; ts; tid; args = [] }
  in
  let events =
    [
      ev "outer" Trace.Begin 0.0 0;
      ev "d" Trace.Begin 0.0 1;
      ev "a" Trace.Begin 10.0 0;
      ev "x" Trace.Instant 20.0 0;
      ev "d" Trace.End 30.0 1;
      ev "a" Trace.End 40.0 0;
      ev "b" Trace.Begin 50.0 0;
      ev "c" Trace.Begin 60.0 0;
      ev "c" Trace.End 70.0 0;
      ev "b" Trace.End 90.0 0;
      ev "outer" Trace.End 100.0 0;
      ev "a" Trace.Begin 100.0 0;
      ev "a" Trace.End 105.0 0;
    ]
  in
  let self = Stats.self_times events in
  let get name = List.assoc name self in
  check "outer self = 100 - 30 - 40" (fst (get "outer") = 1 && near (snd (get "outer")) 30e-6);
  check "a counted twice, self 30 + 5" (fst (get "a") = 2 && near (snd (get "a")) 35e-6);
  check "b self = 40 - 10" (near (snd (get "b")) 30e-6);
  check "c is a leaf" (near (snd (get "c")) 10e-6);
  check "lanes do not nest into each other" (near (snd (get "d")) 30e-6);
  check "instants are not spans" (not (List.mem_assoc "x" self));
  (* The JSON emitter. *)
  check "json"
    (Json.to_string
       (Json.Obj
          [
            ("a", Json.List [ Json.Int 1; Json.Float 0.5; Json.Null ]);
            ("b\"", Json.String "x\ny");
            ("c", Json.Float Float.nan);
            ("d", Json.Bool true);
          ])
    = {|{"a":[1,0.5,null],"b\"":"x\ny","c":null,"d":true}|});
  check "json floats keep all digits"
    (float_of_string (Json.to_string (Json.Float 0.1)) = 0.1);
  check "json int field"
    (Json.int_field {|{"requests":12,"cache_hits":7,"x":-3}|} "cache_hits" = Some 7
    && Json.int_field {|{"x":-3}|} "x" = Some (-3)
    && Json.int_field {|{"x":1}|} "y" = None);
  print_endline "perfbench self_test: ok"
