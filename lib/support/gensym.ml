(** Generated names.

    The paper's answer to inadvertent variable capture is a [gensym]
    function producing names that cannot appear in user code.  We reserve
    the substring ["__g"] followed by a counter; the lexer of the object
    language never produces such identifiers from user source because we
    check and reject them (see {!is_reserved}). *)

type t = { mutable counter : int; prefix : string }

let create ?(prefix = "__g") () = { counter = 0; prefix }

(** [fresh t base] returns a new name, unique for this generator, that
    embeds [base] for readability: e.g. [fresh t "tmp"] gives
    ["tmp__g1"]. *)
let fresh t base =
  t.counter <- t.counter + 1;
  Printf.sprintf "%s%s%d" base t.prefix t.counter

let reserved_marker = "__g"

(* Does [name] hold the marker followed by a digit at [i]?  Compared
   in place and with no local closure: the lexer asks about every
   identifier of a user program. *)
let rec marker_at name i k =
  if k = String.length reserved_marker then
    i + k < String.length name && name.[i + k] >= '0' && name.[i + k] <= '9'
  else
    i + k < String.length name
    && name.[i + k] = reserved_marker.[k]
    && marker_at name i (k + 1)

(* every occurrence counts: "a__gb__g1" is what [fresh] mints from base
   "a__gb" *)
let rec reserved_from name i =
  i + String.length reserved_marker < String.length name
  && (marker_at name i 0 || reserved_from name (i + 1))

(** [is_reserved name] holds when [name] could collide with a generated
    name.  User programs containing such identifiers are rejected so that
    gensym'd names are guaranteed capture-free. *)
let is_reserved name = reserved_from name 0

let count t = t.counter
let set t n = t.counter <- n
