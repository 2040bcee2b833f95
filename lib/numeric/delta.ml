type t = { real : Rat.t; inf : Rat.t }

let make real inf = { real; inf }
let of_rat r = { real = r; inf = Rat.zero }
let of_int n = of_rat (Rat.of_int n)
let zero = of_rat Rat.zero
let delta = { real = Rat.zero; inf = Rat.one }

let compare a b =
  let c = Rat.compare a.real b.real in
  if c <> 0 then c else Rat.compare a.inf b.inf

let equal a b = compare a b = 0
(* The infinitesimal component is zero for almost every value flowing
   through simplex pivots (only strict-bound values carry one), so skip
   the second rational operation when both sides agree it is zero. *)
let add a b =
  { real = Rat.add a.real b.real
  ; inf = (if Rat.is_zero a.inf && Rat.is_zero b.inf then Rat.zero else Rat.add a.inf b.inf)
  }

let sub a b =
  { real = Rat.sub a.real b.real
  ; inf = (if Rat.is_zero a.inf && Rat.is_zero b.inf then Rat.zero else Rat.sub a.inf b.inf)
  }

let neg a = { real = Rat.neg a.real; inf = Rat.neg a.inf }

let scale k a =
  { real = Rat.mul k a.real; inf = (if Rat.is_zero a.inf then Rat.zero else Rat.mul k a.inf) }
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

(* Pick delta0 > 0 such that for every pair (a, b) in the list with
   a < b lexicographically, a.real + a.inf*delta0 <= b.real + b.inf*delta0
   still holds. The standard bound: for pairs where a.real < b.real and
   a.inf > b.inf, delta0 <= (b.real - a.real) / (a.inf - b.inf).

   Neighbours in ascending order suffice. That bound is the inverse of
   the slope (a.inf - b.inf) / (b.real - a.real), and the slope between
   two values is at most a weighted average of the slopes between the
   neighbours in between: within a run of equal real parts, the run's
   last value has the largest inf part and its first the smallest. So
   the steepest slope, hence the smallest bound, is between neighbours. *)
let choose_delta all =
  let bound = ref Rat.one in
  let rec scan = function
    | a :: (b :: _ as rest) ->
      if Rat.compare a.inf b.inf > 0 && Rat.compare a.real b.real < 0 then begin
        let cand = Rat.div (Rat.sub b.real a.real) (Rat.sub a.inf b.inf) in
        if Rat.compare cand !bound < 0 then bound := cand
      end;
      scan rest
    | [ _ ] | [] -> ()
  in
  scan (List.sort compare all);
  let delta0 = Rat.div !bound (Rat.of_int 2) in
  if Rat.sign delta0 <= 0 then Rat.of_ints 1 1000000 else delta0

let apply delta0 v = Rat.add v.real (Rat.mul v.inf delta0)
let concretize all v = apply (choose_delta all) v

let pp fmt { real; inf } =
  if Rat.is_zero inf then Rat.pp fmt real
  else Format.fprintf fmt "%a%s%a*d" Rat.pp real (if Rat.sign inf >= 0 then "+" else "") Rat.pp inf
