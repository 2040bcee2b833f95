(** The [Synthesize] procedure (Algorithm 1): counter-example guided
    learning of a valid, ideally optimal, dimensionality reduction of a
    predicate onto a target column set. *)

type outcome =
  | Optimal of Sia_sql.Ast.pred
      (** valid, and no unsatisfaction tuple satisfies it *)
  | Valid of Sia_sql.Ast.pred
      (** valid; optimality not established within the iteration budget *)
  | Trivial
      (** only [TRUE] is valid (no unsatisfaction tuples exist); the paper
          reports these as NULL results *)
  | Failed of string
      (** unsatisfiable input, projection blow-up, or no valid non-trivial
          predicate found *)

type stats = {
  outcome : outcome;
  iterations : int;  (** learning-loop iterations executed *)
  n_true : int;  (** TRUE samples at the final iteration *)
  n_false : int;
  gen_time : float;  (** seconds in sample/counter-example generation *)
  learn_time : float;
  verify_time : float;
  solver : Sia_smt.Solver.stats;
      (** solver activity attributable to this synthesis run *)
}

val synthesize :
  ?cfg:Config.t ->
  Sia_relalg.Schema.catalog ->
  from:string list ->
  pred:Sia_sql.Ast.pred ->
  target_cols:string list ->
  stats

val predicate : stats -> Sia_sql.Ast.pred option
(** The synthesized predicate of an [Optimal] or [Valid] outcome. *)

val is_valid_outcome : stats -> bool
(** Whether the outcome carries a predicate at all ([Optimal] or
    [Valid]). *)

val is_optimal_outcome : stats -> bool
(** Whether the outcome is [Optimal]: the predicate provably rejects
    every unsatisfaction tuple, not just some. *)
