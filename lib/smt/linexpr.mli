(** Linear expressions [sum_i c_i * x_i + k] with exact rational
    coefficients, the term language shared by atoms, the simplex tableau,
    and quantifier elimination. Variables are integer identifiers managed
    by the caller (see {!Solver.Vars}). *)

open Sia_numeric

type t

val zero : t
val const : Rat.t -> t
val of_int : int -> t
val var : ?coeff:Rat.t -> int -> t

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : Rat.t -> t -> t

val coeff : t -> int -> Rat.t
(** Coefficient of a variable ([Rat.zero] when absent). *)

val constant : t -> Rat.t
val set_constant : t -> Rat.t -> t
val remove : t -> int -> t
val terms : t -> (int * Rat.t) list
(** Variable/coefficient pairs in increasing variable order; no zeros. *)

val vars : t -> int list
val is_const : t -> bool

val subst : t -> int -> t -> t
(** [subst e x r] replaces variable [x] by expression [r]. *)

val rename : (int -> int) -> t -> t
(** [rename f e] replaces every variable [x] by [f x]. Coefficients of
    variables mapped to the same image are summed (zero sums drop out), so
    non-injective maps stay well-formed. *)

val eval : t -> (int -> Rat.t) -> Rat.t

val scale_to_int : t -> t
(** Multiply by the positive rational that makes every coefficient and the
    constant integral with gcd 1. Preserves sign, hence the truth of
    [e <= 0] style atoms. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val pp : ?name:(int -> string) -> Format.formatter -> t -> unit
