open Sia_numeric

(* Reduced native-int fractions with a [Rat] fallback. Every fast-path
   operand satisfies |n| < 2^30 and 0 < d < 2^30, so the products the
   operations form (n1*d2, n1*n2, d1*d2 < 2^60) and their sums (< 2^61)
   fit a 63-bit int without checks; only the reduced result is tested
   against the bound, and a result outside it is recomputed in [Rat].
   Pivot coefficients, assignments and bounds are mostly small integers,
   which the d = 1 shortcuts below serve without any gcd; the fraction
   cases reduce with gcds of the small operands, not of the products. *)

type t =
  | Q of { n : int; d : int }
  | R of Rat.t (* only for values outside the fast path's bound *)

type delta = { re : t; inf : t }

let bound = 1 lsl 30
let zero = Q { n = 0; d = 1 }
let minus_one = Q { n = -1; d = 1 }
let fits n d = n > -bound && n < bound && d < bound

let of_int n =
  if n = 0 then zero
  else if fits n 1 then Q { n; d = 1 }
  else R (Rat.of_int n)

let of_rat (r : Rat.t) =
  match (Bigint.to_int r.Rat.num, Bigint.to_int r.Rat.den) with
  | Some 0, _ -> zero
  | Some n, Some d when fits n d -> Q { n; d }
  | _ -> R r

let to_rat = function
  | Q { n; d = 1 } -> Rat.of_int n
  | Q { n; d } -> Rat.of_ints n d
  | R r -> r

let is_small = function Q _ -> true | R _ -> false

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* [n/d] for a pair already in lowest terms, d > 0. *)
let reduced n d =
  if n = 0 then zero
  else if fits n d then Q { n; d }
  else R (Rat.make (Bigint.of_int n) (Bigint.of_int d))

(* [n/d] from an unreduced pair with d > 0 and both below 2^62. *)
let make n d =
  if d = 1 then of_int n
  else begin
    let g = gcd (abs n) d in
    reduced (n / g) (d / g)
  end

let sign = function Q { n; _ } -> Int.compare n 0 | R r -> Rat.sign r
let is_zero = function Q { n = 0; _ } -> true | Q _ | R _ -> false
let is_integer = function Q { d; _ } -> d = 1 | R r -> Rat.is_integer r

let compare a b =
  match (a, b) with
  | Q a, Q b ->
    if a.d = b.d then Int.compare a.n b.n else Int.compare (a.n * b.d) (b.n * a.d)
  | _ -> Rat.compare (to_rat a) (to_rat b)

let neg = function
  | Q { n = 0; _ } as z -> z
  | Q { n; d } -> Q { n = -n; d }
  | R r -> R (Rat.neg r)

(* a/b + c/d over reduced operands, gcd work on the denominators only
   (Knuth 4.5.1): with g = gcd(b, d) = 1 the textbook result is already
   in lowest terms, and an integer operand needs no gcd at all. *)
let add_parts a b c d =
  if b = 1 then reduced ((a * d) + c) d
  else if d = 1 then reduced (a + (c * b)) b
  else if b = d then make (a + c) b
  else begin
    let g = gcd b d in
    if g = 1 then reduced ((a * d) + (c * b)) (b * d)
    else begin
      let t = (a * (d / g)) + (c * (b / g)) in
      let g2 = gcd (abs t) g in
      reduced (t / g2) (b / g * (d / g2))
    end
  end

let add a b =
  match (a, b) with
  | Q { n = 0; _ }, x | x, Q { n = 0; _ } -> x
  | Q { n = a; d = 1 }, Q { n = c; d = 1 } -> of_int (a + c)
  | Q a, Q b -> add_parts a.n a.d b.n b.d
  | _ -> of_rat (Rat.add (to_rat a) (to_rat b))

let sub a b =
  match (a, b) with
  | x, Q { n = 0; _ } -> x
  | Q { n = a; d = 1 }, Q { n = c; d = 1 } -> of_int (a - c)
  | Q a, Q b -> add_parts a.n a.d (-b.n) b.d
  | _ -> of_rat (Rat.sub (to_rat a) (to_rat b))

(* a/b * c/d: cancelling across (a with d, c with b) leaves the product
   in lowest terms. *)
let mul a b =
  match (a, b) with
  | (Q { n = 0; _ } as z), _ | _, (Q { n = 0; _ } as z) -> z
  | Q { n = a; d = 1 }, Q { n = c; d = 1 } -> of_int (a * c)
  | Q { n = a; d = b }, Q { n = c; d } ->
    let g1 = gcd (abs a) d and g2 = gcd (abs c) b in
    reduced (a / g1 * (c / g2)) (b / g2 * (d / g1))
  | _ -> of_rat (Rat.mul (to_rat a) (to_rat b))

let inv = function
  | Q { n = 0; _ } -> raise Division_by_zero
  | Q { n; d } -> if n > 0 then Q { n = d; d = n } else Q { n = -d; d = -n }
  | R r -> of_rat (Rat.inv r)

let add_mul acc a b =
  match (acc, a, b) with
  | _, Q { n = 0; _ }, _ | _, _, Q { n = 0; _ } -> acc
  | Q { n = c; d = 1 }, Q { n = x; d = 1 }, Q { n = y; d = 1 } -> of_int (c + (x * y))
  | _ -> add acc (mul a b)

let delta_to v = Delta.make (to_rat v.re) (to_rat v.inf)

let delta_compare a b =
  let c = compare a.re b.re in
  if c <> 0 then c else compare a.inf b.inf
