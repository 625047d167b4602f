(** Meta-level type environments: the parse-time semantic analyzer's
    knowledge of "the declared types of meta-variables (both globals and
    parameters of macros and meta-functions)" (paper §3). *)

module Mtype = Ms2_mtype.Mtype

type t = { mutable scopes : Mtype.t Ms2_support.Smap.t list }
(** The scope stack, innermost first.  Each scope is an immutable map,
    so the list read at any moment is a snapshot of the environment, and
    writing one back restores it. *)

val create : unit -> t
val push_scope : t -> unit
val pop_scope : t -> unit
val with_scope : t -> (unit -> 'a) -> 'a

val add : t -> string -> Mtype.t -> unit
(** Bind in the innermost scope. *)

val add_global : t -> string -> Mtype.t -> unit
val find : t -> string -> Mtype.t option
val mem : t -> string -> bool

val digest : t -> string
(** Deterministic digest of the whole environment (scopes, names,
    types), for content-addressed expansion-cache keys. *)
