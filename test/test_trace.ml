(* The structured tracing subsystem (lib/trace) and its three contracts:
   spans nest strictly per lane, a disabled trace is a true no-op (same
   rewrites, zero events), and a jobs=2 batch reassembles worker events
   into one merged trace whose per-worker lanes partition the task set.
   A mini JSON parser validates the Chrome trace-event export without a
   JSON dependency. *)

module Trace = Sia_trace.Trace
module Ast = Sia_sql.Ast
module Parser = Sia_sql.Parser
module Printer = Sia_sql.Printer
module Schema = Sia_relalg.Schema
open Sia_core

let cat = Schema.tpch
let from2 = [ "lineitem"; "orders" ]

let motivating_pred =
  Parser.parse_predicate
    "l_shipdate - o_orderdate < 20 AND o_orderdate < DATE '1993-06-01' AND \
     l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10"

(* Each test starts from a clean, disabled trace. The epoch is fixed at
   process start, so every test after the first is a late enabler, as
   in production. *)
let fresh () =
  Trace.disable ();
  Trace.reset ()

let synth ~trace target_cols =
  let cfg = { Config.default with Config.trace = trace } in
  Synthesize.synthesize ~cfg cat ~from:from2 ~pred:motivating_pred ~target_cols

let render st =
  match Synthesize.predicate st with
  | Some p -> Printer.string_of_pred p
  | None -> "-"

(* ------------------------------------------------------------------ *)
(* Span nesting                                                        *)
(* ------------------------------------------------------------------ *)

(* Every lane's Begin/End events must form a well-formed bracket
   sequence with matching names; returns the number of violations. *)
let check_nesting evs =
  let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 4 in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.add stacks tid s;
      s
  in
  let bad = ref 0 in
  List.iter
    (fun (ev : Trace.event) ->
      match ev.Trace.ph with
      | Trace.Begin -> (
        let s = stack ev.Trace.tid in
        s := ev.Trace.name :: !s)
      | Trace.End -> (
        let s = stack ev.Trace.tid in
        match !s with
        | top :: rest when top = ev.Trace.name -> s := rest
        | _ -> incr bad)
      | Trace.Instant | Trace.Counter | Trace.Meta -> ())
    evs;
  Hashtbl.iter (fun _ s -> bad := !bad + List.length !s) stacks;
  !bad

let test_nesting () =
  fresh ();
  let st = synth ~trace:true [ "l_shipdate" ] in
  Alcotest.(check bool) "synthesis succeeded" true
    (Synthesize.is_valid_outcome st);
  let evs = Trace.events () in
  Alcotest.(check bool) "events were emitted" true (evs <> []);
  Alcotest.(check int) "well-formed nesting" 0 (check_nesting evs);
  let names =
    List.sort_uniq compare (List.map (fun e -> e.Trace.name) evs)
  in
  List.iter
    (fun expected ->
      Alcotest.(check bool) ("span " ^ expected) true (List.mem expected names))
    [
      "synthesize"; "cegis.iteration"; "gen"; "learn"; "verify"; "prune";
      "smt.solve"; "sat.search"; "theory.check";
    ]

(* ------------------------------------------------------------------ *)
(* Disabled = no-op                                                    *)
(* ------------------------------------------------------------------ *)

let test_disabled_noop () =
  fresh ();
  let off = synth ~trace:false [ "l_shipdate"; "l_commitdate" ] in
  Alcotest.(check int) "no events while disabled" 0
    (List.length (Trace.events ()));
  let on = synth ~trace:true [ "l_shipdate"; "l_commitdate" ] in
  Alcotest.(check bool) "traced run emitted events" true (Trace.events () <> []);
  Alcotest.(check string) "identical rendered predicate" (render off) (render on);
  Alcotest.(check bool) "identical outcome class" true
    (Synthesize.is_optimal_outcome off = Synthesize.is_optimal_outcome on)

(* ------------------------------------------------------------------ *)
(* jobs=2: one merged trace with per-worker lanes                      *)
(* ------------------------------------------------------------------ *)

let test_jobs2_merged_trace () =
  fresh ();
  (* Two structurally different queries: the batch must contain at least
     two shard groups, or the effective-jobs cap (fewer groups than
     workers) would correctly refuse to fork. The cap also consults the
     detected core count, so force it to 2 for this single-core-safe
     test. *)
  Unix.putenv "SIA_ONLINE_CORES" "2";
  let second_pred =
    Parser.parse_predicate
      "l_shipdate - o_orderdate < 20 AND o_orderdate < DATE '1993-06-01'"
  in
  let tasks =
    List.map
      (fun (pred, cols) ->
        ({ Ast.select = [ Ast.Star ]; from = from2; where = Some pred }, cols))
      [
        (motivating_pred, [ "l_shipdate" ]);
        (motivating_pred, [ "l_commitdate" ]);
        (second_pred, [ "l_shipdate"; "l_commitdate" ]);
        (second_pred, [ "o_orderdate" ]);
      ]
  in
  let render_all =
    List.map (fun (r : Rewrite.rewrite_result) -> render r.Rewrite.stats)
  in
  let cfg2 = { Config.default with Config.jobs = 2; Config.trace = true } in
  let r2 = Rewrite.rewrite_all ~cfg:cfg2 cat tasks in
  let evs = Trace.events () in
  Alcotest.(check int) "well-formed nesting across lanes" 0 (check_nesting evs);
  let lanes =
    List.sort_uniq compare
      (List.filter_map
         (fun (e : Trace.event) ->
           if e.Trace.ph = Trace.Meta then None else Some e.Trace.tid)
         evs)
  in
  Alcotest.(check (list int)) "parent lane plus one lane per worker"
    [ 0; 1; 2 ] lanes;
  (* The pool.task spans on the worker lanes partition the submitted
     indices: each task traced exactly once, on exactly one lane. *)
  let task_idxs =
    List.filter_map
      (fun (e : Trace.event) ->
        if e.Trace.name = "pool.task" && e.Trace.ph = Trace.Begin then
          match List.assoc_opt "idx" e.Trace.args with
          | Some (Trace.Int i) -> Some (e.Trace.tid, i)
          | _ -> None
        else None)
      evs
  in
  Alcotest.(check (list int)) "task indices partition the batch"
    [ 0; 1; 2; 3 ]
    (List.sort compare (List.map snd task_idxs));
  List.iter
    (fun (tid, _) ->
      Alcotest.(check bool) "tasks live on worker lanes" true
        (tid = 1 || tid = 2))
    task_idxs;
  (* Per-worker solver attribution: one worker.solver counter sample on
     each worker lane, and every worker asked the solver something. *)
  let worker_counters =
    List.filter_map
      (fun (e : Trace.event) ->
        if e.Trace.name = "worker.solver" && e.Trace.ph = Trace.Counter then
          Some (e.Trace.tid, List.assoc_opt "queries" e.Trace.args)
        else None)
      evs
  in
  Alcotest.(check (list int)) "one worker.solver counter per worker lane"
    [ 1; 2 ]
    (List.sort compare (List.map fst worker_counters));
  List.iter
    (fun (tid, queries) ->
      match queries with
      | Some (Trace.Float q) when q > 0.0 -> ()
      | _ -> Alcotest.failf "worker %d: worker.solver queries not > 0" tid)
    worker_counters;
  (* And the parallel results are the sequential ones. *)
  fresh ();
  let r1 =
    Rewrite.rewrite_all
      ~cfg:{ cfg2 with Config.jobs = 1; Config.trace = false }
      cat tasks
  in
  Alcotest.(check (list string)) "jobs=2 results = jobs=1 results"
    (render_all r1) (render_all r2)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)
(* ------------------------------------------------------------------ *)

(* Minimal JSON parser: objects, arrays, strings (with escapes),
   numbers, booleans. Enough to establish the export is valid JSON of
   the Chrome trace-event shape. *)
type json =
  | Obj of (string * json) list
  | Arr of json list
  | Str of string
  | Num of float
  | Bool of bool

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = Alcotest.failf "JSON parse error at %d: %s" !pos msg in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some '"' -> Buffer.add_char b '"'; advance ()
         | Some '\\' -> Buffer.add_char b '\\'; advance ()
         | Some 'n' -> Buffer.add_char b '\n'; advance ()
         | Some 'r' -> Buffer.add_char b '\r'; advance ()
         | Some 't' -> Buffer.add_char b '\t'; advance ()
         | Some 'u' ->
           advance ();
           if !pos + 4 > n then fail "bad \\u escape";
           Buffer.add_string b (String.sub s !pos 4);
           pos := !pos + 4
         | _ -> fail "bad escape");
        go ()
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then (advance (); Obj [])
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((k, v) :: acc)
          | Some '}' -> advance (); List.rev ((k, v) :: acc)
          | _ -> fail "expected , or }"
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then (advance (); Arr [])
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elems (v :: acc)
          | Some ']' -> advance (); List.rev (v :: acc)
          | _ -> fail "expected , or ]"
        in
        Arr (elems [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> pos := !pos + 4; Bool true
    | Some 'f' -> pos := !pos + 5; Bool false
    | Some _ ->
      let start = !pos in
      while
        !pos < n
        && (match s.[!pos] with
            | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
            | _ -> false)
      do
        advance ()
      done;
      (match float_of_string_opt (String.sub s start (!pos - start)) with
       | Some f -> Num f
       | None -> fail "bad number")
    | None -> fail "unexpected end"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let test_chrome_export () =
  fresh ();
  Trace.enable ();
  Trace.span "outer" ~args:[ ("k", Trace.String "v\"with\\escapes\n") ]
    (fun () -> Trace.instant "tick" ~args:[ ("n", Trace.Int 3) ]);
  Trace.counter "c" [ ("x", 1.5) ];
  Trace.set_lane_name 1 "worker 0";
  let j = parse_json (Trace.to_chrome_string ()) in
  match j with
  | Obj fields -> (
    match List.assoc_opt "traceEvents" fields with
    | Some (Arr evs) ->
      Alcotest.(check int) "event count" 5 (List.length evs);
      List.iter
        (fun ev ->
          match ev with
          | Obj f ->
            List.iter
              (fun key ->
                Alcotest.(check bool) ("event has " ^ key) true
                  (List.mem_assoc key f))
              [ "name"; "cat"; "ph"; "ts"; "pid"; "tid" ]
          | _ -> Alcotest.fail "event is not an object")
        evs;
      (* Instants carry the scope field Chrome requires to render them. *)
      let is_instant = function
        | Obj f -> List.assoc_opt "ph" f = Some (Str "i")
        | _ -> false
      in
      List.iter
        (fun ev ->
          if is_instant ev then
            match ev with
            | Obj f ->
              Alcotest.(check bool) "instant has scope" true
                (List.assoc_opt "s" f = Some (Str "t"))
            | _ -> ())
        evs
    | _ -> Alcotest.fail "traceEvents missing or not an array")
  | _ -> Alcotest.fail "top level is not an object"

(* A clock read before the first [enable] — the serve daemon's uptime
   timer, say — must keep running after it. This test runs first, while
   no test has enabled tracing yet. *)
let test_timer_before_enable () =
  fresh ();
  let elapsed = Trace.timer () in
  Trace.enable ();
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < 0.002 do
    ()
  done;
  let dt = elapsed () in
  let span_ts = ref [] in
  Trace.span "clock.probe" (fun () ->
      let t1 = Unix.gettimeofday () in
      while Unix.gettimeofday () -. t1 < 0.001 do
        ()
      done);
  List.iter
    (fun (ev : Trace.event) ->
      if ev.Trace.name = "clock.probe" then span_ts := ev.Trace.ts :: !span_ts)
    (Trace.events ());
  fresh ();
  Alcotest.(check bool) "timer taken before enable advances" true (dt >= 0.002);
  match !span_ts with
  | [ t_end; t_begin ] ->
    Alcotest.(check bool) "span after enable has a duration" true (t_end > t_begin)
  | _ -> Alcotest.fail "expected one clock.probe span"

let () =
  (* The batch test forks; Alcotest must not be mid-test in the children.
     The pool only forks inside Pool.map and the workers _exit before
     returning, so plain sequential runs are safe. *)
  Alcotest.run "trace"
    [
      ( "trace",
        [
          Alcotest.test_case "timer before enable" `Quick test_timer_before_enable;
          Alcotest.test_case "span nesting well-formed" `Quick test_nesting;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "jobs=2 merged trace" `Quick test_jobs2_merged_trace;
          Alcotest.test_case "chrome export is valid" `Quick test_chrome_export;
        ] );
    ]
