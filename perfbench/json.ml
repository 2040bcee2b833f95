(* The benchmark's one JSON emitter: every line it prints goes through
   [to_string], so no output is assembled from format strings. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* Floats keep all their digits (%.17g round-trips a double); JSON has
   no NaN or infinity, so those become null. *)
let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f when Float.is_finite f ->
    Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Float _ -> Buffer.add_string buf "null"
  | String s ->
    Buffer.add_char buf '"';
    escape buf s;
    Buffer.add_char buf '"'
  | List l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write buf v)
      l;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        write buf (String k);
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* The integer value of ["key":N] in a flat JSON object, such as the
   daemon's Stats reply. *)
let int_field json key =
  let pat = "\"" ^ key ^ "\":" in
  let n = String.length json and m = String.length pat in
  let rec find i =
    if i + m > n then None
    else if String.sub json i m = pat then begin
      let j = ref (i + m) in
      while !j < n && (json.[!j] = '-' || (json.[!j] >= '0' && json.[!j] <= '9')) do
        incr j
      done;
      int_of_string_opt (String.sub json (i + m) (!j - i - m))
    end
    else find (i + 1)
  in
  find 0
