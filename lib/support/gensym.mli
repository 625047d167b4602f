(** Generated names: the paper's capture-avoidance mechanism.

    Generated names embed a reserved marker that the object-language
    lexer can be told to reject ({!is_reserved}), making them
    capture-free by construction. *)

type t

val create : ?prefix:string -> unit -> t

val fresh : t -> string -> string
(** [fresh t base] returns a new name embedding [base], unique for this
    generator (e.g. ["tmp__g1"]). *)

val reserved_marker : string

val is_reserved : string -> bool
(** Does this name collide with the generated-name space? *)

val count : t -> int
val set : t -> int -> unit
