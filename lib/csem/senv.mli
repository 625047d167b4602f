(** Scoped symbol tables for the object-level semantic analysis:
    variables/functions, typedefs, enum constants (per scope), and
    struct/union field layouts (per file). *)

type t

val create : unit -> t
val push_scope : t -> unit
val pop_scope : t -> unit
val with_scope : t -> (unit -> 'a) -> 'a

type tables
(** The scopes, layouts and anonymous-tag count: an immutable value, so
    the one {!tables} returns is a checkpoint of them, and {!set_tables}
    puts it back in O(1). *)

val tables : t -> tables

val set_tables : t -> tables -> unit
(** Make [tables] current. *)

val depth : tables -> int
(** Number of open scopes (1 = just the global scope). *)

val fresh_tag : t -> string
(** A name for an anonymous struct/union/enum tag. *)

val anon_count : tables -> int
(** Anonymous tags minted so far. *)

val add_var : t -> string -> Ctype.t -> unit
val add_typedef : t -> string -> Ctype.t -> unit
val add_layout : t -> string -> (string * Ctype.t) list -> unit
val find_var : t -> string -> Ctype.t option
val find_typedef : t -> string -> Ctype.t option
val find_layout : t -> string -> (string * Ctype.t) list option

val field_type : t -> string -> string -> Ctype.t
(** Field type within a tagged struct/union; [Unknown] when unknown.
    Resolved through a per-layout field index, so cost grows with the
    log of the struct's width. *)

val digest : t -> string
(** Deterministic digest of the whole environment (scopes, bindings,
    layouts, anonymous-tag counter), for content-addressed
    expansion-cache keys. *)
