open Sia_numeric
module IntMap = Map.Make (Int)

type t = { tm : Rat.t IntMap.t; k : Rat.t }

let zero = { tm = IntMap.empty; k = Rat.zero }
let const k = { tm = IntMap.empty; k }
let of_int n = const (Rat.of_int n)

let var ?(coeff = Rat.one) x =
  if Rat.is_zero coeff then zero else { tm = IntMap.singleton x coeff; k = Rat.zero }

let norm_add c1 c2 =
  let c = Rat.add c1 c2 in
  if Rat.is_zero c then None else Some c

let add a b =
  let tm =
    IntMap.union (fun _ c1 c2 -> norm_add c1 c2) a.tm b.tm
  in
  { tm; k = Rat.add a.k b.k }

let neg a = { tm = IntMap.map Rat.neg a.tm; k = Rat.neg a.k }
let sub a b = add a (neg b)

let scale c a =
  if Rat.is_zero c then zero
  else { tm = IntMap.map (Rat.mul c) a.tm; k = Rat.mul c a.k }

let coeff a x = match IntMap.find_opt x a.tm with Some c -> c | None -> Rat.zero
let constant a = a.k
let set_constant a k = { a with k }
let remove a x = { a with tm = IntMap.remove x a.tm }
let terms a = IntMap.bindings a.tm
let vars a = List.map fst (terms a)
let is_const a = IntMap.is_empty a.tm

let rename f a =
  let tm =
    IntMap.fold
      (fun x c acc ->
        IntMap.update (f x)
          (function None -> Some c | Some c' -> norm_add c c')
          acc)
      a.tm IntMap.empty
  in
  { tm; k = a.k }

let subst e x r =
  let c = coeff e x in
  if Rat.is_zero c then e else add (remove e x) (scale c r)

let eval a lookup =
  IntMap.fold (fun x c acc -> Rat.add acc (Rat.mul c (lookup x))) a.tm a.k

let scale_to_int a =
  (* lcm of denominators, then divide by gcd of numerators *)
  let open Bigint in
  let denoms =
    IntMap.fold (fun _ (c : Rat.t) acc -> lcm acc c.Rat.den) a.tm a.k.Rat.den
  in
  let scaled = scale (Rat.of_bigint denoms) a in
  let g =
    IntMap.fold
      (fun _ (c : Rat.t) acc -> gcd acc c.Rat.num)
      scaled.tm
      (abs scaled.k.Rat.num)
  in
  if is_zero g || equal g one then scaled
  else scale (Rat.make Bigint.one g) scaled

let compare a b =
  let c = IntMap.compare Rat.compare a.tm b.tm in
  if c <> 0 then c else Rat.compare a.k b.k

let equal a b = compare a b = 0

(* Allocation-free: Rat.hash is representation-independent, so the old
   detour through Rat.to_string (one string per coefficient per hash)
   is unnecessary. *)
let hash a =
  IntMap.fold
    (fun x c acc -> (((acc * 1000003) + x) * 1000003) + Rat.hash c)
    a.tm (Rat.hash a.k)

let pp ?(name = fun i -> Printf.sprintf "x%d" i) fmt a =
  let first = ref true in
  IntMap.iter
    (fun x c ->
      let s = Rat.sign c in
      if !first then begin
        if Rat.equal c Rat.one then Format.fprintf fmt "%s" (name x)
        else if Rat.equal c Rat.minus_one then Format.fprintf fmt "-%s" (name x)
        else Format.fprintf fmt "%a*%s" Rat.pp c (name x);
        first := false
      end
      else begin
        let c' = Rat.abs c in
        let op = if s >= 0 then "+" else "-" in
        if Rat.equal c' Rat.one then Format.fprintf fmt " %s %s" op (name x)
        else Format.fprintf fmt " %s %a*%s" op Rat.pp c' (name x)
      end)
    a.tm;
  if !first then Rat.pp fmt a.k
  else if not (Rat.is_zero a.k) then begin
    let op = if Rat.sign a.k >= 0 then "+" else "-" in
    Format.fprintf fmt " %s %a" op Rat.pp (Rat.abs a.k)
  end
