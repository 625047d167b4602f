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
(** Make [tables] current.  The odometers are not part of {!tables}:
    they stay monotonic. *)

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

(** {1 Speculative-commit support}

    The engine's intra-file fragment parallelism expands fragments
    against the run-start {!tables} and decides at
    commit time whether the speculation was consistent.  These hooks
    expose what it needs: read/write odometers per table kind, and a
    diff/apply pair for the top scope. *)

val reads : t -> int * int * int
(** Monotonic lookup odometers [(vars, typedefs, layouts)] — callers
    measure deltas across a fragment.  Never rolled back. *)

val writes : t -> int * int * int
(** Monotonic {e top-scope} write odometers [(vars, typedefs,
    layouts)].  Writes into pushed (function-local) scopes are not
    counted: they are popped before any fragment boundary. *)

type top_delta
(** What a fragment wrote into the top scope (and the layout table),
    relative to the tables it started from. *)

val log_top_writes : t -> unit
(** From now on, log the names written into the top scope and the
    layout table; {!set_tables} empties the log.  Only for an
    environment reset before each fragment (a speculation worker's):
    anywhere else the log would grow with the session. *)

val diff_top : t -> top_delta option
(** What [t] wrote since it was last {!set_tables}, in time proportional
    to those writes; [None] when either side has scopes still open (not
    at a fragment boundary).
    @raise Invalid_argument unless {!log_top_writes} was called. *)

val delta_counts : top_delta -> int * int * int
(** Entry counts [(vars, typedefs, layouts)] of a delta. *)

val apply_top : t -> top_delta -> unit
(** Replay a delta into [t]'s innermost scope, with the same replace
    semantics as the original bindings. *)

val digest : t -> string
(** Deterministic digest of the whole environment (scopes, bindings,
    layouts, anonymous-tag counter), for content-addressed
    expansion-cache keys. *)
