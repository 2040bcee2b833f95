(* R1 fixture: polymorphic compare/hash at canonical types.

   Self-contained: the local [Bigint] shadows nothing real — name
   normalization reduces its type to [Bigint.t], which is on the
   canonical list, exactly as the mangled cross-library paths do in the
   real tree. Lines marked EXPECT must each produce one R1 finding. *)

module Bigint = struct
  type t = Small of int | Big of int list
  let of_int n = Small n
end

(* transitive containment: a record reaching Bigint.t through a field *)
type bound = { value : Bigint.t; strict : bool }

let direct_compare (a : Bigint.t) (b : Bigint.t) = compare a b (* EXPECT R1 *)

let poly_hash (b : bound) = Hashtbl.hash b (* EXPECT R1 *)

let member (b : bound) (l : bound list) = List.mem b l (* EXPECT R1 *)

let table : (Bigint.t, int) Hashtbl.t = Hashtbl.create 8

let lookup x = Hashtbl.find_opt table x (* EXPECT R1 *)

(* no finding: equality against a constant constructor is a tag check *)
let is_small (x : Bigint.t) = match x with Small _ -> true | Big _ -> false
let non_empty (l : bound list) = l <> []

(* Strdict.t owns a reverse-lookup hash table (DESIGN.md §21.2), so its
   structural equality is representation-dependent — on the canonical
   list like the solver types above. *)
module Strdict = struct
  type t = { values : string array; index : (string, int) Hashtbl.t }

  let make vs =
    let values = Array.of_list vs in
    let index = Hashtbl.create (Array.length values) in
    Array.iteri (fun i v -> Hashtbl.replace index v i) values;
    { values; index }
end

let same_dict (a : Strdict.t) (b : Strdict.t) = a = b (* EXPECT R1 *)

let dict_rank (d : Strdict.t) = Hashtbl.hash d (* EXPECT R1 *)

(* no finding: comparing the value arrays compares plain strings *)
let same_domain (a : Strdict.t) (b : Strdict.t) =
  a.Strdict.values = b.Strdict.values

(* Smallq.t, the simplex kernel's number type, holds a value either as a
   native fraction or as a fallback rational; Smallq.delta pairs two of
   them. Both are canonical types. *)
module Smallq = struct
  type t = Q of { n : int; d : int } | R of Bigint.t
  type delta = { re : t; inf : t }

  let zero = Q { n = 0; d = 1 }
end

let same_coeff (a : Smallq.t) (b : Smallq.t) = a = b (* EXPECT R1 *)

let bound_rank (v : Smallq.delta) = Hashtbl.hash v (* EXPECT R1 *)

let tightest (l : Smallq.delta list) = List.sort compare l (* EXPECT R1 *)

(* no finding: the fields compared are plain ints *)
let same_den (a : int) (b : int) = a = b
