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
    expose what it needs: read/write odometers per table kind, marks
    in a worker's write history, and a delta/apply pair for the top
    scope. *)

val reads : t -> int * int * int
(** Monotonic lookup odometers [(vars, typedefs, layouts)] — callers
    measure deltas across a fragment.  Never rolled back. *)

val writes : t -> int * int * int
(** Monotonic {e top-scope} write odometers [(vars, typedefs,
    layouts)] of {!add_var}, {!add_typedef} and {!add_layout}.  Writes
    into pushed (function-local) scopes are not counted: they are popped
    before any fragment boundary. *)

val log_top_writes : t -> unit
(** From now on, log the bindings written into the top scope and the
    layout table; {!set_tables} empties the log and opens a fresh
    top-level layer over the given tables, which takes the top-scope
    writes from then on (so {!tables} shows one scope more, and
    {!pop_scope} stops at the layer).  Only for an environment reset
    before each run of fragments (a speculation worker's): anywhere
    else the log would grow with the session. *)

type mark
(** A point in the write log of a logging environment: the tables it
    was last {!set_tables} to (its {e base}) and the bindings written
    since.  Immutable, O(1) to take, and holds no version of the
    tables. *)

val mark : t -> mark
(** @raise Invalid_argument unless {!log_top_writes} was called. *)

val changed : ?since:mark -> t -> (bool * bool * bool) option
(** Per kind [(vars, typedefs, layouts)]: whether some binding written
    after [since] (after the base when omitted) now differs from the
    base.  [None] when [t] is not logging, or it or its base has scopes
    still open (not at a fragment boundary).  Time proportional to
    those writes. *)

type top_delta
(** Top-scope and layout bindings written over a stretch of a write
    log, with their values at its end.  Rewrites of an unchanged value
    are included: the tables a delta is laid over need not be the base
    it was measured from. *)

val written : t -> top_delta
(** Every binding written since the base, in O(1) for the top scope: a
    logging environment keeps those writes in a layer of their own.
    @raise Invalid_argument when {!changed} would give [None]. *)

val delta : ?since:mark -> mark -> top_delta
(** The bindings written after [since] (after the base when omitted)
    and up to the mark, rebuilt from the log.
    @raise Invalid_argument when the marks have different bases. *)

val apply_top : t -> top_delta -> unit
(** Lay a delta over [t]'s innermost scope and its layout table, the
    delta winning, in one map union per table. *)

val digest : t -> string
(** Deterministic digest of the whole environment (scopes, bindings,
    layouts, anonymous-tag counter), for content-addressed
    expansion-cache keys. *)
