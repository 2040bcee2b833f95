(* perfbench: one workload from SQL text to rows.

   Usage: main.exe --workload NAME [--seed N] [--query-seed N] [--seconds S]
                   [--trace 0|1]

   Every workload goes sql -> sia/smt synthesis -> check audit -> relalg
   planning -> engine execution of the original and the rewritten plan,
   and checks that both plans return the same row multiset. The last
   stdout line is the result object; the line before it is the full row
   (fingerprint, every end-to-end and per-layer number). The program
   under test only ever sees the generated SQL text and data. See
   README.md in this directory for the workloads and metrics. *)

module Ast = Sia_sql.Ast
module Parser = Sia_sql.Parser
module Printer = Sia_sql.Printer
module Schema = Sia_relalg.Schema
module Plan = Sia_relalg.Plan
module Planner = Sia_relalg.Planner
module Cost = Sia_relalg.Cost
module Table = Sia_engine.Table
module Exec = Sia_engine.Exec
module Eval = Sia_engine.Eval
module Tpch = Sia_engine.Tpch
module Config = Sia_core.Config
module Rewrite = Sia_core.Rewrite
module Synthesize = Sia_core.Synthesize
module Solver = Sia_smt.Solver
module Qgen = Sia_workload.Qgen
module Protocol = Sia_serve.Protocol
module Client = Sia_serve.Client
module Server = Sia_serve.Server
module Trace = Sia_trace.Trace
open Perfbench

(* ------------------------------------------------------------------ *)
(* Workload sizes                                                      *)
(* ------------------------------------------------------------------ *)

(* Scale factor of the generated TPC-H data: large enough that a plan
   takes tens of milliseconds, so plan times sit well above timer noise. *)
let sf = 0.05

(* Runs per plan; each plan time is the median of these. *)
let exec_repeats = 3

(* Set-ups per run; setup_s is their median. *)
let setup_repeats = 5

(* Per-attempt wall-clock cap, as the paper's section 6.2 prescribes for
   production use: it bounds a run whatever the query seed draws. *)
let time_budget = Some 6.0

let pushdown_queries = 40
let suite_variants = 6
let serve_queries = 12
let serve_requests = 4000
let serve_invalidate_every = 1000
let serve_connections = 2

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

(* Seconds on the monotonic clock, to the nanosecond: gettimeofday's
   microsecond steps would make a median socket round trip of ~50 us
   read exactly the same value on most runs. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let count p xs = List.length (List.filter p xs)

(* A seeded permutation of a list. *)
let shuffle ~seed xs =
  let rng = Random.State.make [| seed; 0x0de7 |] in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let sumi xs = List.fold_left ( + ) 0 xs

(* A metric as printed: name, value, unit. *)
type metric = string * float * string

let cfg ~trace =
  { Config.default with Config.time_budget; paranoid = false; jobs = 1; trace }

(* The TPC-H catalog with each table's row estimate set to the generated
   row count, so est_rows_qerror measures selectivity estimation alone.
   Synthesis and planning use the stock catalog. *)
let sized_catalog tables =
  List.map
    (fun (t : Schema.table_def) ->
      match List.assoc_opt t.Schema.tname tables with
      | Some tbl -> { t with Schema.row_estimate = tbl.Table.nrows }
      | None -> t)
    Schema.tpch

(* Peak resident set of this process in MiB (VmHWM). *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> Float.nan
  | status ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> None)
      (String.split_on_char '\n' status)
    |> Option.value ~default:Float.nan

(* ------------------------------------------------------------------ *)
(* Environment fingerprint                                             *)
(* ------------------------------------------------------------------ *)

let read_file f =
  try Some (String.trim (In_channel.with_open_bin f In_channel.input_all))
  with Sys_error _ -> None

(* HEAD's commit when run from a git checkout, read from .git directly. *)
let git_rev () =
  match read_file ".git/HEAD" with
  | None -> "none"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let r = String.sub head 5 (String.length head - 5) in
    match read_file (".git/" ^ r) with
    | Some rev -> rev
    | None ->
      Option.value ~default:"none"
        (Option.bind (read_file ".git/packed-refs") (fun packed ->
             List.find_map
               (fun line ->
                 match String.split_on_char ' ' line with
                 | [ rev; name ] when name = r -> Some rev
                 | _ -> None)
               (String.split_on_char '\n' packed))))
  | Some rev -> rev

(* Digest of every source file under lib/: identifies the code under test
   in checkouts that are not git repositories. *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | names ->
      Array.sort String.compare names;
      Array.to_list names
      |> List.concat_map (fun n ->
             let p = Filename.concat dir n in
             if Sys.is_directory p then files p
             else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
             then [ p ]
             else [])
  in
  let parts =
    List.map (fun p -> p ^ "\000" ^ Option.value ~default:"" (read_file p)) (files "lib")
  in
  Digest.to_hex (Digest.string (String.concat "\000" parts))

let short_hash s = String.sub (Digest.to_hex (Digest.string s)) 0 12

(* ------------------------------------------------------------------ *)
(* Executing and comparing plans                                        *)
(* ------------------------------------------------------------------ *)

(* Rows over the given columns, NULL encoded as min_int (the stored int
   under a NULL is padding; TPC-H data never holds min_int). *)
let rows_of (t : Table.t) cols =
  let cols =
    List.map (fun c -> (Table.column t c, Table.null_mask t c)) cols
    |> Array.of_list
  in
  Array.init t.Table.nrows (fun r ->
      Array.map
        (fun (col, mask) ->
          match mask with Some m when m.(r) -> min_int | _ -> col.(r))
        cols)

let common_columns (a : Table.t) (b : Table.t) =
  Array.to_list a.Table.col_names
  |> List.filter (fun c -> Array.mem c b.Table.col_names)
  |> List.sort_uniq String.compare

let same_rows a b =
  let cols = common_columns a b in
  if cols = [] then Error "no common columns"
  else Stats.same_multiset (rows_of a cols) (rows_of b cols)

(* The maximal join-free subtrees of a plan: the inputs its joins read. *)
let rec has_join = function
  | Plan.Join _ -> true
  | Plan.Scan _ -> false
  | Plan.Filter (_, s) | Plan.Project (_, s) -> has_join s

let rec join_inputs = function
  | Plan.Join (_, l, r) -> join_inputs l @ join_inputs r
  | (Plan.Filter (_, s) | Plan.Project (_, s)) when has_join s -> join_inputs s
  | p -> [ p ]

(* Traced-run engine breakdown of one plan: time in its join-free
   subtrees (scan + filter, including materialising their output), the
   rest of the plan's time, the rows its joins read, and the geometric
   q-error of the cost model's row estimate for each join input. *)
type engine_split = {
  filter_s : float;
  join_s : float;
  input_rows : int;
  qerrors : float list;
}

let engine_split ~sized ~tables plan ~whole_s =
  let inputs = join_inputs plan in
  let runs =
    List.map
      (fun sub ->
        let out, dt = timed (fun () -> Exec.run ~tables sub) in
        let est = (Cost.estimate sized sub).Cost.rows in
        let act = float_of_int (max 1 out.Table.nrows) in
        let est = Float.max 1.0 est in
        (dt, out.Table.nrows, Float.max (est /. act) (act /. est)))
      inputs
  in
  let filter_s = Stats.sum (List.map (fun (dt, _, _) -> dt) runs) in
  {
    filter_s;
    join_s = Float.max 0.0 (whole_s -. filter_s);
    input_rows = sumi (List.map (fun (_, n, _) -> n) runs);
    qerrors = List.map (fun (_, _, q) -> q) runs;
  }

(* One executed rewrite: medians of alternating timed runs of both plans,
   the row check, and (traced runs) the engine breakdown. *)
type exec_pair = {
  orig_s : float;
  rewr_s : float;
  rows_ok : (unit, string) result;
  result_rows : int;
  selectivity : float;
  split : (engine_split * engine_split) option;
}

let measure_pair ~tables ~traced ~sel_table ~p1 plan plan' =
  (* Start each pair from a collected heap: the previous pair's garbage
     neither inflates this pair's times nor piles up into the peak RSS. *)
  Gc.full_major ();
  let origs = ref [] and rewrs = ref [] and check = ref None in
  for _ = 1 to exec_repeats do
    let o, t1 = timed (fun () -> Exec.run ~tables plan) in
    let o', t2 = timed (fun () -> Exec.run ~tables plan') in
    if !check = None then check := Some (same_rows o o', o.Table.nrows);
    origs := t1 :: !origs;
    rewrs := t2 :: !rewrs
  done;
  let rows_ok, result_rows = Option.get !check in
  let orig_s = Stats.median !origs and rewr_s = Stats.median !rewrs in
  {
    orig_s;
    rewr_s;
    rows_ok;
    result_rows;
    selectivity =
      (if traced then
         match List.assoc_opt sel_table tables with
         | Some t -> (try Eval.selectivity t p1 with _ -> Float.nan)
         | None -> Float.nan
       else Float.nan);
    split =
      (if traced then
         Some
           ( engine_split ~sized:(sized_catalog tables) ~tables plan ~whole_s:orig_s,
             engine_split ~sized:(sized_catalog tables) ~tables plan' ~whole_s:rewr_s )
       else None);
  }

(* Per-layer engine/relalg metrics of a pass's executed pairs. *)
let engine_layers pairs : metric list =
  let splits = List.filter_map (fun p -> p.split) pairs in
  let both f = List.concat_map (fun (a, b) -> [ f a; f b ]) splits in
  let sels = List.filter (fun p -> Float.is_finite p.selectivity) pairs in
  [
    ("engine.filter_s", Stats.sum (both (fun s -> s.filter_s)), "s");
    ("engine.join_s", Stats.sum (both (fun s -> s.join_s)), "s");
    ( "engine.join_input_rows_orig",
      float_of_int (sumi (List.map (fun (a, _) -> a.input_rows) splits)),
      "count" );
    ( "engine.join_input_rows_rewritten",
      float_of_int (sumi (List.map (fun (_, b) -> b.input_rows) splits)),
      "count" );
    ( "engine.result_rows",
      float_of_int (sumi (List.map (fun p -> p.result_rows) pairs)),
      "count" );
    ( "engine.pred_selectivity_mean",
      (match sels with
       | [] -> Float.nan
       | _ ->
         Stats.sum (List.map (fun p -> p.selectivity) sels)
         /. float_of_int (List.length sels)),
      "ratio" );
    ( "engine.rewrites_slower",
      float_of_int (count (fun p -> p.rewr_s > 1.2 *. p.orig_s) pairs),
      "count" );
    ( "engine.rewrites_2x_faster",
      float_of_int (count (fun p -> p.orig_s > 2.0 *. p.rewr_s) pairs),
      "count" );
    ( "relalg.est_rows_qerror",
      Stats.geomean (both (fun s -> s.qerrors) |> List.concat),
      "ratio" );
  ]

let exec_e2e pairs : metric list =
  [
    ("exec_orig_s", Stats.sum (List.map (fun p -> p.orig_s) pairs), "s");
    ("exec_rewritten_s", Stats.sum (List.map (fun p -> p.rewr_s) pairs), "s");
    ( "speedup_geomean",
      Stats.geomean (List.map (fun p -> p.orig_s /. p.rewr_s) pairs),
      "ratio" );
  ]

(* ------------------------------------------------------------------ *)
(* Layer counters from the solver and the trace                         *)
(* ------------------------------------------------------------------ *)

let solver_layers (s : Solver.stats) : metric list =
  let c name v = (name, float_of_int v, "count") in
  [
    c "smt.queries" s.Solver.queries;
    c "smt.memo_hits" s.Solver.cache_hits;
    c "smt.unknown" s.Solver.unknown_answers;
    c "smt.theory_rounds" s.Solver.theory_rounds;
    c "smt.reused_rounds" s.Solver.reused_rounds;
    c "smt.pivots" s.Solver.pivots;
    c "smt.conflicts" s.Solver.conflicts;
    c "smt.propagations" s.Solver.propagations;
    ("smt.encode_cpu_s", s.Solver.encode_time, "s");
    ("smt.search_cpu_s", s.Solver.search_time, "s");
    ("smt.theory_cpu_s", s.Solver.theory_time, "s");
    c "smt.gen_pool_hits" s.Solver.pool_hits;
    c "smt.gen_underapprox" s.Solver.underapprox_solves;
    c "smt.gen_fallbacks" s.Solver.gen_fallbacks;
    c "smt.cegqi_inst" s.Solver.cegqi_instantiations;
  ]

(* Spans whose self time the traced run reports under [<span>_s]; a span
   that never closed in the run reads 0. *)
let traced_spans =
  [
    "gen.rung1"; "gen.rung2"; "gen.rung3"; "gen.rung3plain"; "qe.project";
    "cegqi.solve"; "sat.search"; "theory.check"; "smt.encode"; "samples.gen";
    "verify.implies"; "tighten.threshold"; "cegis.iteration"; "svm.train";
  ]

let span_layers self : metric list =
  List.map
    (fun span ->
      let s = match List.assoc_opt span self with Some (_, s) -> s | None -> 0.0 in
      (span ^ "_s", s, "s"))
    traced_spans

(* ------------------------------------------------------------------ *)
(* One pass of a workload                                               *)
(* ------------------------------------------------------------------ *)

type pass = {
  e2e : metric list;
  layers : metric list;
  attempted : int;
  failed : int;
  errors : string list;  (** correctness failures: audit, row mismatch, serve error *)
  pipeline_s : float;
  tail_q : float;
}

(* What a pass's checking steps accumulate: time in each timed library
   call, the rewrites still to execute, and correctness failures. *)
type checks = {
  mutable parse_s : float;
  mutable audit_s : float;
  mutable plan_s : float;
  mutable audit_failed : int;
  mutable executed : (string * string * Ast.pred * Plan.t * Plan.t) list;
      (** sql, table the learned predicate filters, predicate, plans *)
  mutable errors : string list;
}

let new_checks () =
  { parse_s = 0.0; audit_s = 0.0; plan_s = 0.0; audit_failed = 0; executed = []; errors = [] }

(* The pipeline's steps after synthesis: audit the rewrite of [q] into
   [q'] by [p1]; when [exec], plan both queries and run the rewritten
   plan once. *)
let check_rewrite c ~tables ~sql ~sel_table ~exec q q' p1 =
  let catalog = Schema.tpch in
  let verdict, dt =
    timed (fun () ->
        Rewrite.audit catalog ~from:q.Ast.from ~p:(Rewrite.target_pred catalog q) ~p1)
  in
  c.audit_s <- c.audit_s +. dt;
  match verdict with
  | Rewrite.Audit_failed why ->
    c.audit_failed <- c.audit_failed + 1;
    c.errors <- ("audit failed: " ^ sql ^ ": " ^ why) :: c.errors
  | Rewrite.Audit_passed | Rewrite.Audit_off ->
    if exec then begin
      let (plan, plan'), dt =
        timed (fun () -> (Planner.plan catalog q, Planner.plan catalog q'))
      in
      c.plan_s <- c.plan_s +. dt;
      ignore (Exec.run ~tables plan');
      c.executed <- (sql, sel_table, p1, plan, plan') :: c.executed
    end

(* After the pipeline: time every executed rewrite against its original
   and compare their rows. *)
let measure_executed c ~tables ~traced =
  List.rev_map
    (fun (sql, sel_table, p1, plan, plan') ->
      let p = measure_pair ~tables ~traced ~sel_table ~p1 plan plan' in
      (match p.rows_ok with
       | Ok () -> ()
       | Error why -> c.errors <- ("row mismatch: " ^ sql ^ ": " ^ why) :: c.errors);
      p)
    c.executed

(* Operations that went wrong: audit failures and row mismatches. *)
let check_failures c pairs =
  c.audit_failed + count (fun p -> Result.is_error p.rows_ok) pairs

let check_layers c pairs : metric list =
  [
    ("sql.parse_s", c.parse_s, "s");
    ("check.audit_s", c.audit_s, "s");
    ("check.audit_failed", float_of_int c.audit_failed, "count");
    ("relalg.plan_s", c.plan_s, "s");
  ]
  @ engine_layers pairs

(* ---------- batch workloads: pushdown-gen and tpch-suite ---------- *)

(* One query of a batch workload: its SQL text, the targets to
   synthesize for, and which of them to execute. *)
type job = {
  sql : string;
  targets : ([ `Cols of string list | `Table of string ] * bool) list;
  sel_table : string;
}

(* Every non-empty subset of lineitem's three date columns. *)
let all_subsets =
  Qgen.column_subsets 1 @ Qgen.column_subsets 2 @ Qgen.column_subsets 3

let pushdown_jobs ~query_seed =
  Qgen.generate ~seed:query_seed ~count:pushdown_queries ()
  |> List.map (fun (gq : Qgen.gen_query) ->
         {
           sql = Printer.string_of_query gq.Qgen.query;
           targets =
             List.map (fun s -> (`Cols s, List.length s = 3)) all_subsets;
           sel_table = "lineitem";
         })

let suite_jobs ~query_seed =
  Qgen.suite ~seed:query_seed ~variants:suite_variants ()
  |> List.map (fun (s : Qgen.suite_query) ->
         {
           sql = Printer.string_of_query s.Qgen.squery;
           targets = [ (`Table s.Qgen.starget, true) ];
           sel_table = s.Qgen.starget;
         })

let batch_pass ~jobs ~tables ~traced =
  let cfg = cfg ~trace:traced in
  Solver.reset_caches ();
  Trace.reset ();
  if traced then Trace.enable () else Trace.disable ();
  let c = new_checks () in
  let synth = ref [] and job_lat = ref [] and results = ref [] in
  let t_pipeline = now () in
  List.iter
    (fun job ->
      let t_job = now () in
      let q, dt = timed (fun () -> Parser.parse_query job.sql) in
      c.parse_s <- c.parse_s +. dt;
      List.iter
        (fun (target, exec) ->
          let r, dt =
            timed (fun () ->
                match target with
                | `Cols cols ->
                  Rewrite.rewrite_for_columns ~cfg Schema.tpch q ~target_cols:cols
                | `Table t -> Rewrite.rewrite_for_table ~cfg Schema.tpch q ~target_table:t)
          in
          synth := dt :: !synth;
          results := r :: !results;
          match (r.Rewrite.rewritten, r.Rewrite.synthesized) with
          | Some q', Some p1 ->
            check_rewrite c ~tables ~sql:job.sql ~sel_table:job.sel_table ~exec q q' p1
          | _ -> ())
        job.targets;
      job_lat := (now () -. t_job) :: !job_lat)
    jobs;
  let pipeline_s = now () -. t_pipeline in
  let self = if traced then Stats.self_times (Trace.events ()) else [] in
  Trace.disable ();
  Trace.reset ();
  (* Executing needs none of the solver's caches; dropping them keeps the
     collections between timed plans short. *)
  Solver.reset_caches ();
  let pairs = measure_executed c ~tables ~traced in
  let results = List.rev !results in
  let stats = List.map (fun r -> r.Rewrite.stats) results in
  let synth_failed =
    count
      (fun s ->
        match s.Synthesize.outcome with Synthesize.Failed _ -> true | _ -> false)
      stats
  in
  let attempted = List.length results in
  let failed = check_failures c pairs in
  let solver =
    List.fold_left
      (fun acc s -> Solver.stats_add acc s.Synthesize.solver)
      Solver.stats_zero stats
  in
  let tail_q, tail_v = Stats.tail !synth in
  let n_jobs = float_of_int (List.length jobs) in
  let sumf f = Stats.sum (List.map f stats) in
  let e2e =
    [
      ("synth_wall_s", Stats.sum !synth, "s");
      ("synth_p50_ms", Stats.median !synth *. 1e3, "ms");
      ("synth_tail_ms", tail_v *. 1e3, "ms");
      ( "valid_rewrites",
        float_of_int (count Synthesize.is_valid_outcome stats),
        "count" );
      ( "optimal_rewrites",
        float_of_int (count Synthesize.is_optimal_outcome stats),
        "count" );
      ( "fail_share",
        float_of_int (synth_failed + failed) /. float_of_int attempted,
        "ratio" );
    ]
    @ exec_e2e pairs
    @ [
        ("pipeline_wall_s", pipeline_s, "s");
        ("serve_p50_ms", Stats.median !job_lat *. 1e3, "ms");
        ("serve_p99_ms", Stats.percentile 0.99 !job_lat *. 1e3, "ms");
        ("serve_rps", n_jobs /. pipeline_s, "1/s");
        ( "cache_hit_rate",
          float_of_int solver.Solver.cache_hits
          /. float_of_int (max 1 solver.Solver.queries),
          "ratio" );
      ]
  in
  let layers =
    solver_layers solver @ span_layers self @ check_layers c pairs
    @ [
        ("sia.gen_cpu_s", sumf (fun s -> s.Synthesize.gen_time), "s");
        ("sia.learn_cpu_s", sumf (fun s -> s.Synthesize.learn_time), "s");
        ("sia.verify_cpu_s", sumf (fun s -> s.Synthesize.verify_time), "s");
        ( "sia.iterations",
          float_of_int (sumi (List.map (fun s -> s.Synthesize.iterations) stats)),
          "count" );
        ( "sia.samples_true",
          float_of_int (sumi (List.map (fun s -> s.Synthesize.n_true) stats)),
          "count" );
        ( "sia.samples_false",
          float_of_int (sumi (List.map (fun s -> s.Synthesize.n_false) stats)),
          "count" );
      ]
  in
  {
    e2e;
    layers;
    attempted;
    failed;
    errors = List.rev c.errors;
    pipeline_s;
    tail_q;
  }

(* ---------- serve-replay ---------- *)

(* A cold daemon in a forked child, as Client.with_daemon starts one,
   except that the child reports its own solver counters and trace self
   times back over a pipe when it stops: the daemon's layers are only
   visible from inside its process. *)
type daemon = {
  pid : int;
  socket : string;
  report : Unix.file_descr;
  ready_s : float;
}

type daemon_report = {
  d_solver : Solver.stats;
  d_self : (string * (int * float)) list;
}

let socket_dir = ".bench_build"

let start_daemon ~cfg =
  if not (Sys.file_exists socket_dir) then Sys.mkdir socket_dir 0o755;
  let socket =
    Filename.concat socket_dir (Printf.sprintf "perfbench-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let ready_r, ready_w = Unix.pipe () and report_r, report_w = Unix.pipe () in
  flush stdout;
  flush stderr;
  let t0 = now () in
  match Unix.fork () with
  | 0 ->
    Unix.close ready_r;
    Unix.close report_r;
    let code =
      try
        Solver.reset_caches ();
        Solver.reset_stats ();
        Trace.reset ();
        Server.run
          ~on_ready:(fun () ->
            ignore (Unix.write_substring ready_w "." 0 1);
            Unix.close ready_w)
          { Server.default_config with socket_path = socket; cfg };
        let report =
          { d_solver = Solver.stats (); d_self = Stats.self_times (Trace.events ()) }
        in
        let oc = Unix.out_channel_of_descr report_w in
        Marshal.to_channel oc report [];
        close_out oc;
        0
      with e ->
        prerr_endline ("perfbench daemon died: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid ->
    Unix.close ready_w;
    Unix.close report_w;
    let ready =
      match Unix.select [ ready_r ] [] [] 30.0 with
      | [ _ ], _, _ -> Unix.read ready_r (Bytes.create 1) 0 1 = 1
      | _ -> false
    in
    let ready_s = now () -. t0 in
    Unix.close ready_r;
    if not ready then begin
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      failwith "daemon did not become ready"
    end;
    { pid; socket; report = report_r; ready_s }

(* Shut the daemon down and collect its report; kill it if it will not
   stop. *)
let stop_daemon d =
  (match Client.connect ~timeout:5.0 d.socket with
   | c ->
     (try ignore (Client.request ~timeout:30.0 c Protocol.Shutdown) with _ -> ());
     Client.close c
   | exception _ -> ());
  let report =
    match Unix.select [ d.report ] [] [] 60.0 with
    | [ _ ], _, _ -> (
      let ic = Unix.in_channel_of_descr d.report in
      try Some (Marshal.from_channel ic : daemon_report) with End_of_file | Failure _ -> None)
    | _ -> None
  in
  if report = None then Unix.kill d.pid Sys.sigkill;
  ignore (Unix.waitpid [] d.pid);
  Unix.close d.report;
  (try Unix.unlink d.socket with Unix.Unix_error _ -> ());
  report

(* The replay plan: [serve_requests] draws, Zipf(1) over the templates
   ranked by a shuffle, both from the query seed alone, so every run
   sends the same requests in the same order. Taking the draws or their
   order from the run seed made the served synthesis work itself vary:
   which rare, slow template lands between two flushes, and which
   templates precede it in the daemon's resident solver state, swung
   synth_wall_s by 45% and optimal_rewrites by 10% across five seeds. *)
let replay_plan ~query_seed n_templates =
  let ranks = Array.of_list (shuffle ~seed:query_seed (List.init n_templates Fun.id)) in
  let rng = Random.State.make [| query_seed; 0x5e7e |] in
  let cum = Array.make n_templates 0.0 in
  let total = ref 0.0 in
  Array.iteri
    (fun i _ ->
      total := !total +. (1.0 /. float_of_int (i + 1));
      cum.(i) <- !total)
    cum;
  Array.init serve_requests (fun _ ->
      let x = Random.State.float rng !total in
      let rec bs lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if cum.(mid) < x then bs (mid + 1) hi else bs lo mid
      in
      ranks.(bs 0 (n_templates - 1)))

type conn = {
  fd : Unix.file_descr;
  dec : Protocol.decoder;
  mutable inflight : int;  (** request index, -1 when idle *)
  mutable sent_at : float;
}

(* Closed loop over requests [lo, hi): each connection sends its next
   request, built by [send i], only after its previous reply arrived;
   [on_reply i latency response] sees each reply. *)
let closed_loop conns ~lo ~hi send on_reply =
  let next = ref lo and finished = ref lo in
  let buf = Bytes.create 65536 in
  while !finished < hi do
    Array.iter
      (fun c ->
        if c.inflight < 0 && !next < hi then begin
          c.inflight <- !next;
          incr next;
          c.sent_at <- now ();
          let tag, payload = Protocol.encode_request (send c.inflight) in
          Protocol.write_frame c.fd tag payload
        end)
      conns;
    let busy =
      Array.to_list conns
      |> List.filter_map (fun c -> if c.inflight >= 0 then Some c.fd else None)
    in
    match Unix.select busy [] [] 120.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> failwith "daemon stalled: no reply in 120 s"
    | ready, _, _ ->
      List.iter
        (fun fd ->
          let c = List.find (fun c -> c.fd = fd) (Array.to_list conns) in
          (match Unix.read c.fd buf 0 (Bytes.length buf) with
           | 0 -> failwith "daemon closed the connection"
           | n -> Protocol.feed c.dec buf 0 n
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          match Protocol.next c.dec with
          | `Awaiting -> ()
          | `Frame (tag, payload) ->
            let lat = now () -. c.sent_at in
            let i = c.inflight in
            c.inflight <- -1;
            incr finished;
            on_reply i lat (Protocol.decode_response tag payload))
        ready
  done

let serve_templates query_seed =
  Qgen.generate ~seed:query_seed ~count:serve_queries ()
  |> List.concat_map (fun (gq : Qgen.gen_query) ->
         let sql = Printer.string_of_query gq.Qgen.query in
         List.map (fun s -> (sql, s)) all_subsets)
  |> Array.of_list

let serve_pass ~query_seed ~tables ~traced =
  let templates = serve_templates query_seed in
  let plan = replay_plan ~query_seed (Array.length templates) in
  let lat = Array.make serve_requests 0.0 in
  let replies = Array.make serve_requests None in
  let errors = ref [] in
  let d = start_daemon ~cfg:(cfg ~trace:traced) in
  let report = ref None and stats_json = ref "{}" in
  let replay () =
    let conns =
      Array.init serve_connections (fun _ ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX d.socket);
          { fd; dec = Protocol.decoder (); inflight = -1; sent_at = 0.0 })
    in
    let control = Client.connect d.socket in
    Fun.protect
      ~finally:(fun () ->
        Client.close control;
        Array.iter (fun c -> Unix.close c.fd) conns)
    @@ fun () ->
    let send i =
      let sql, cols = templates.(plan.(i)) in
      Protocol.Rewrite { target = Protocol.Cols cols; sql }
    in
    let on_reply i l resp =
      lat.(i) <- l;
      match resp with
      | Ok (Protocol.Rewritten r) -> replies.(i) <- Some r
      | Ok (Protocol.Error_reply e) -> errors := ("serve error: " ^ e) :: !errors
      | Ok _ -> errors := "serve: unexpected reply kind" :: !errors
      | Error e -> errors := ("serve: undecodable reply: " ^ e) :: !errors
    in
    let t0 = now () in
    let lo = ref 0 in
    while !lo < serve_requests do
      let hi = min serve_requests (!lo + serve_invalidate_every) in
      closed_loop conns ~lo:!lo ~hi send on_reply;
      if hi < serve_requests then (
        match Client.request control (Protocol.Invalidate [ "lineitem" ]) with
        | Protocol.Ok_reply _ -> ()
        | _ -> errors := "serve: invalidate refused" :: !errors);
      lo := hi
    done;
    let replay_s = now () -. t0 in
    (match Client.request control Protocol.Stats with
     | Protocol.Stats_reply j -> stats_json := j
     | _ -> errors := "serve: no stats reply" :: !errors);
    replay_s
  in
  let replay_s =
    Fun.protect ~finally:(fun () -> report := stop_daemon d) replay
  in
  if !report = None then errors := "serve: daemon sent no report" :: !errors;
  let stats_json = !stats_json in
  (* Check every distinct served rewrite in-process: parse it, audit it,
     and for the three-column templates plan and execute both queries. *)
  let t_check = now () in
  let c = new_checks () in
  c.errors <- !errors;
  let seen = Hashtbl.create 64 in
  Array.iteri
    (fun i r ->
      match r with
      | Some (r : Protocol.reply)
        when r.Protocol.pred <> "-" && not (Hashtbl.mem seen plan.(i)) ->
        Hashtbl.add seen plan.(i) ();
        let sql, cols = templates.(plan.(i)) in
        let (q, q', p1), dt =
          timed (fun () ->
              ( Parser.parse_query sql,
                Parser.parse_query r.Protocol.sql,
                Parser.parse_predicate r.Protocol.pred ))
        in
        c.parse_s <- c.parse_s +. dt;
        check_rewrite c ~tables ~sql:r.Protocol.sql ~sel_table:"lineitem"
          ~exec:(List.length cols = 3) q q' p1
      | _ -> ())
    replies;
  let check_s = now () -. t_check in
  let pairs = measure_executed c ~tables ~traced in
  let all = Array.to_list replies in
  let got = List.filter_map Fun.id all in
  let misses = List.filter (fun r -> not r.Protocol.cached) got in
  let outcome_is prefix (r : Protocol.reply) =
    String.starts_with ~prefix r.Protocol.outcome
  in
  let failed = serve_requests - List.length got + check_failures c pairs in
  let failed_outcomes = count (outcome_is "failed") got in
  (* A synthesis attempt is a miss that produced a cacheable verdict; a
     failed outcome is never cached, so its repeats mostly replay the
     solver's memo and would swamp the median. *)
  let syntheses = List.filter (fun r -> not (outcome_is "failed" r)) misses in
  let miss_ms = List.map (fun r -> r.Protocol.wall_us /. 1e3) syntheses in
  let tail_q, tail_v = Stats.tail miss_ms in
  let lats = Array.to_list lat in
  let hit_lat, miss_lat =
    List.partition_map
      (fun (l, r) ->
        match r with
        | Some r when r.Protocol.cached -> Left l
        | _ -> Right l)
      (List.combine lats all)
  in
  let dfield k = float_of_int (Option.value ~default:0 (Json.int_field stats_json k)) in
  let e2e =
    [
      ("synth_wall_s", Stats.sum miss_ms /. 1e3, "s");
      ("synth_p50_ms", Stats.median miss_ms, "ms");
      ("synth_tail_ms", tail_v, "ms");
      ( "valid_rewrites",
        float_of_int
          (count (fun r -> outcome_is "optimal" r || outcome_is "valid" r) syntheses),
        "count" );
      ( "optimal_rewrites",
        float_of_int (count (outcome_is "optimal") syntheses),
        "count" );
      ( "fail_share",
        float_of_int (failed + failed_outcomes) /. float_of_int serve_requests,
        "ratio" );
    ]
    @ exec_e2e pairs
    @ [
        ("pipeline_wall_s", replay_s +. check_s, "s");
        ("serve_p50_ms", Stats.median lats *. 1e3, "ms");
        ("serve_p99_ms", Stats.percentile 0.99 lats *. 1e3, "ms");
        ("serve_rps", float_of_int serve_requests /. replay_s, "1/s");
        ( "cache_hit_rate",
          float_of_int (count (fun r -> r.Protocol.cached) got)
          /. float_of_int serve_requests,
          "ratio" );
      ]
  in
  let solver, self =
    match !report with
    | Some r -> (r.d_solver, r.d_self)
    | None -> (Solver.stats_zero, [])
  in
  let layers =
    solver_layers solver @ span_layers self @ check_layers c pairs
    @ [
        ("serve.daemon_start_s", d.ready_s, "s");
        ("serve.hit_p50_ms", Stats.median hit_lat *. 1e3, "ms");
        ("serve.miss_p50_ms", Stats.median miss_lat *. 1e3, "ms");
        ( "serve.server_p50_us",
          Stats.median (List.map (fun r -> r.Protocol.wall_us) got),
          "us" );
        ("serve.cache_hits", dfield "cache_hits", "count");
        ("serve.cache_misses", dfield "cache_misses", "count");
        ("serve.cache_insertions", dfield "cache_insertions", "count");
        ("serve.cache_invalidations", dfield "cache_invalidations", "count");
        ("serve.cache_entries", dfield "cache_entries", "count");
        ("serve.daemon_solver_queries", dfield "solver_queries", "count");
      ]
  in
  {
    e2e;
    layers;
    attempted = serve_requests;
    failed;
    errors = List.rev c.errors;
    pipeline_s = replay_s +. check_s;
    tail_q;
  }

(* ------------------------------------------------------------------ *)
(* Runs                                                                 *)
(* ------------------------------------------------------------------ *)

(* Generate the data [setup_repeats] times, keeping the last copy. *)
let dbgen gen =
  let rec go k acc =
    Gc.compact ();
    let tables, dt = timed gen in
    if k <= 1 then (tables, List.rev (dt :: acc)) else go (k - 1) (dt :: acc)
  in
  go setup_repeats []

let workloads = [ "pushdown-gen"; "tpch-suite"; "serve-replay" ]

(* Passes of the workload, each from cold solver caches and a collected
   heap: untraced passes while the budget allows another (at least one);
   with [traced], a traced pass between two untraced ones, so that the
   overhead compares it with passes on either side of it rather than with
   the first pass alone, which also pays for growing the heap. Returns
   the passes and the peak RSS after the first pass: every pass does the
   same work, and later passes would only add the GC's leftovers from
   earlier ones. *)
let run_passes ~seconds ~traced run_pass =
  let pass ~traced =
    Gc.full_major ();
    run_pass ~traced
  in
  let t0 = now () in
  let first = pass ~traced:false in
  let peak = peak_rss_mb () in
  if traced then
    let tr = pass ~traced:true in
    ([ first; tr; pass ~traced:false ], peak)
  else
    let rec go acc last =
      if now () -. t0 +. last > seconds then List.rev acc
      else
        let p, dt = timed (fun () -> pass ~traced:false) in
        go (p :: acc) dt
    in
    (go [ first ] (now () -. t0), peak)

let median_metrics (passes : metric list list) : metric list =
  match passes with
  | [] -> []
  | first :: _ ->
    List.map
      (fun (name, _, unit) ->
        let vs =
          List.map
            (fun p -> List.find_map (fun (n, v, _) -> if n = name then Some v else None) p)
            passes
          |> List.filter_map Fun.id
        in
        (name, Stats.median vs, unit))
      first

let metrics_json (ms : metric list) =
  Json.Obj
    (List.map
       (fun (name, v, unit) ->
         (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
       ms)

(* The metric names BENCHMARK.json declares. The result line carries
   exactly these: the end-to-end ones on an untraced run, the per-layer
   ones on a traced run. The full row before it carries every number. *)
let end_to_end =
  [
    "setup_s"; "synth_wall_s"; "synth_p50_ms"; "synth_tail_ms"; "valid_rewrites";
    "optimal_rewrites"; "exec_orig_s"; "exec_rewritten_s";
    "speedup_geomean"; "pipeline_wall_s"; "peak_rss_mb"; "serve_p50_ms";
    "serve_p99_ms"; "serve_rps"; "cache_hit_rate";
  ]

let per_layer =
  [ "engine.dbgen_s"; "sql.parse_s" ]
  @ List.map (fun (n, _, _) -> n) (solver_layers Solver.stats_zero)
  @ List.filter_map
      (fun s -> if s = "cegqi.solve" then None else Some (s ^ "_s"))
      traced_spans
  @ [
      "check.audit_s"; "check.audit_failed"; "relalg.plan_s";
      "relalg.est_rows_qerror"; "engine.filter_s"; "engine.join_s";
      "engine.join_input_rows_orig"; "engine.join_input_rows_rewritten";
      "engine.result_rows"; "engine.pred_selectivity_mean";
      "engine.rewrites_slower"; "engine.rewrites_2x_faster"; "trace_overhead";
    ]

(* Per-layer numbers a workload cannot report, and why. *)
let absent = function
  | "serve-replay" ->
    [
      ( "sia.*",
        "Synthesize.stats stay inside the daemon; its synthesis shows in \
         the daemon's solver counters and spans instead" );
    ]
  | _ -> [ ("serve.*", "a batch workload starts no daemon") ]

let pick names (ms : metric list) =
  List.map
    (fun name ->
      match List.find_opt (fun (n, _, _) -> n = name) ms with
      | Some m -> m
      | None -> failwith ("metric not measured: " ^ name))
    names

let run ~workload ~query_seed ~seed ~seconds ~traced =
  (* Anchor the trace epoch before any library timer reads the trace
     clock: a first enable after such a read leaves the clamped clock
     frozen, and every span and served wall_us would read 0. *)
  if traced then begin
    Trace.enable ();
    Trace.disable ()
  end;
  let gen_pair () =
    let li, ord = Tpch.generate ~sf ~seed () in
    [ ("lineitem", li); ("orders", ord) ]
  in
  let (passes, peak_rss), dbgen_samples, ready_samples, sizes =
    match workload with
    | "pushdown-gen" ->
      let tables, samples = dbgen gen_pair in
      let jobs = pushdown_jobs ~query_seed in
      ( run_passes ~seconds ~traced (batch_pass ~jobs ~tables),
        samples,
        [],
        [ ("queries", pushdown_queries); ("subsets", 7) ] )
    | "tpch-suite" ->
      let tables, samples = dbgen (fun () -> Tpch.generate_all ~sf ~seed ()) in
      let jobs = suite_jobs ~query_seed in
      ( run_passes ~seconds ~traced (batch_pass ~jobs ~tables),
        samples,
        [],
        [ ("variants", suite_variants) ] )
    | _ ->
      (* Daemon start-to-ready is timed before any data exists, so the
         fork does not copy the tables' page mappings. *)
      let starts =
        List.init setup_repeats (fun _ ->
            let d = start_daemon ~cfg:(cfg ~trace:false) in
            ignore (stop_daemon d);
            d.ready_s)
      in
      let tables, samples = dbgen gen_pair in
      ( run_passes ~seconds ~traced (serve_pass ~query_seed ~tables),
        samples,
        starts,
        [
          ("queries", serve_queries);
          ("templates", serve_queries * 7);
          ("requests", serve_requests);
          ("invalidate_every", serve_invalidate_every);
          ("connections", serve_connections);
        ] )
  in
  let dbgen_s = Stats.median dbgen_samples in
  let setup_s =
    dbgen_s +. if ready_samples = [] then 0.0 else Stats.median ready_samples
  in
  (* A traced run reports its traced pass; an untraced one the median of
     its passes. *)
  let shown = if traced then [ List.nth passes 1 ] else passes in
  let last = List.nth shown (List.length shown - 1) in
  let e2e =
    (("setup_s", setup_s, "s") :: median_metrics (List.map (fun p -> p.e2e) shown))
    @ [ ("peak_rss_mb", peak_rss, "MiB") ]
  in
  let layers =
    (("engine.dbgen_s", dbgen_s, "s") :: last.layers)
    @
    if traced then
      [
        ( "trace_overhead",
          (List.nth passes 1).pipeline_s
          /. Stats.median [ (List.nth passes 0).pipeline_s; (List.nth passes 2).pipeline_s ]
          -. 1.0,
          "ratio" );
        ("trace.dropped_events", float_of_int (Trace.dropped ()), "count");
      ]
    else []
  in
  let errors = List.concat_map (fun (p : pass) -> p.errors) passes in
  let attempted = sumi (List.map (fun p -> p.attempted) passes) in
  let failed = sumi (List.map (fun p -> p.failed) passes) in
  let correct = errors = [] in
  List.iter (fun e -> prerr_endline ("perfbench: " ^ e)) errors;
  let fingerprint =
    Json.Obj
      [
        ("git_rev", Json.String (git_rev ()));
        ("source_digest", Json.String (source_digest ()));
        ("online_cores", Json.Int (Sia_pool.Pool.online_cores ()));
        ("ocaml", Json.String Sys.ocaml_version);
        ("host_hash", Json.String (short_hash (Unix.gethostname ())));
        ("workload", Json.String workload);
        ("seed", Json.Int seed);
        ("query_seed", Json.Int query_seed);
        ("passes", Json.Int (List.length passes));
        ("exec_repeats", Json.Int exec_repeats);
        ("setup_repeats", Json.Int setup_repeats);
        ("sf", Json.Float sf);
        ("sizes", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) sizes));
      ]
  in
  let row =
    Json.Obj
      [
        ("bench", Json.String "perfbench");
        ("fingerprint", fingerprint);
        ("traced", Json.Bool traced);
        ( "synth_tail_percentile",
          Json.Float (Stats.median (List.map (fun p -> p.tail_q) shown)) );
        ("correct", Json.Bool correct);
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ("errors", Json.List (List.map (fun e -> Json.String e) errors));
        ("metrics", metrics_json e2e);
        ("layers", metrics_json layers);
        ( "absent",
          Json.Obj (List.map (fun (k, why) -> (k, Json.String why)) (absent workload)) );
      ]
  in
  print_endline (Json.to_string row);
  let result =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ( "metrics",
          metrics_json (if traced then pick per_layer layers else pick end_to_end e2e) );
      ]
  in
  print_endline (Json.to_string result);
  if not correct then exit 1

let usage () =
  prerr_endline
    ("usage: main.exe --workload (" ^ String.concat "|" workloads
   ^ ") [--seed N] [--query-seed N] [--seconds S] [--trace 0|1]");
  exit 2

let () =
  let workload = ref None and seed = ref 42 and query_seed = ref 42 in
  let seconds = ref 10.0 and traced = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem w workloads ->
      workload := Some w;
      parse rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
      seed := int_of_string n;
      parse rest
    | "--query-seed" :: n :: rest when int_of_string_opt n <> None ->
      query_seed := int_of_string n;
      parse rest
    | "--seconds" :: s :: rest when float_of_string_opt s <> None ->
      seconds := float_of_string s;
      parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
      traced := t = "1";
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !workload with
  | None -> usage ()
  | Some workload -> (
    try
      run ~workload ~query_seed:!query_seed ~seed:!seed ~seconds:!seconds
        ~traced:!traced
    with e ->
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 2)
