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

(** [is_reserved name] holds when [name] could collide with a generated
    name.  User programs containing such identifiers are rejected so that
    gensym'd names are guaranteed capture-free. *)
let is_reserved name =
  let marker = reserved_marker in
  let lm = String.length marker and ln = String.length name in
  (* every occurrence counts: "a__gb__g1" is what [fresh] mints from
     base "a__gb" *)
  let rec scan i =
    i + lm < ln
    && ((String.sub name i lm = marker
        && name.[i + lm] >= '0'
        && name.[i + lm] <= '9')
       || scan (i + 1))
  in
  scan 0

let count t = t.counter
let reset t = t.counter <- 0
