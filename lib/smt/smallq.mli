(** Exact rationals with a native-int fast path, the number type of the
    simplex tableau kernel.

    A value is either a reduced fraction [n/d] of native ints with
    [|n| < bound] and [0 < d < bound], or — only when it does not fit —
    a {!Sia_numeric.Rat.t}. With [bound = 2^30] every cross product an
    operation forms ([n1*d2], [n1*n2], their sums) stays below [2^62],
    so the fast path never overflows a 63-bit int; an operation whose
    reduced result leaves the bound is redone in [Rat] and returned in
    the fallback form. The representation is canonical (a value that
    fits is never held as a [Rat]), but compare values with {!compare},
    never structurally. *)

open Sia_numeric

type t

type delta = { re : t; inf : t }
(** [re + inf*delta] for a positive infinitesimal [delta]: the
    counterpart of {!Sia_numeric.Delta.t} over {!t}. *)

val bound : int
(** Exclusive magnitude bound of the fast path's numerator and
    denominator. *)

val zero : t
val minus_one : t

val of_int : int -> t
val of_rat : Rat.t -> t
val to_rat : t -> Rat.t

val is_small : t -> bool
(** Whether the value is held on the native-int fast path. *)

val sign : t -> int
val is_zero : t -> bool
val is_integer : t -> bool
val compare : t -> t -> int
val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val inv : t -> t
(** @raise Division_by_zero on zero. *)

val add_mul : t -> t -> t -> t
(** [add_mul acc a b] is [acc + a*b], fused for integer operands. *)

val delta_to : delta -> Delta.t
val delta_compare : delta -> delta -> int
