(** The macro-expansion engine: records [syntax] definitions, runs the
    meta-program ([metadcl], meta functions), expands invocations
    recursively, maintains the object-level symbol table for semantic
    macros, and guarantees pure-C output.

    The engine enforces a {!Ms2_support.Limits.t}: interpreter fuel
    (global and per-invocation), a produced-AST node budget per
    invocation, and the recursive-expansion depth bound.  In recovery
    mode ([~recover:true]) a failed invocation is recorded in the
    engine's diagnostic collector and replaced by a placeholder of its
    syntactic type, so one bad macro no longer hides every later
    error. *)

open Ms2_syntax.Ast
open Ms2_support
module State = Ms2_parser.State
module Tenv = Ms2_typing.Tenv
module Value = Ms2_meta.Value
module Senv = Ms2_csem.Senv

type checkpoint
(** A session checkpoint: captures all session state a run reads (macro
    tables, meta type environment, global meta environment, object-level
    symbol table, fresh-name counts).  Deliberately {e not} captured:
    statistics, fuel already consumed, and recorded diagnostics.  Every
    captured table is an immutable map, held as is: a checkpoint shares
    its structure with the live session and is never mutated, so one
    supports any number of rollbacks.  No meta value refers to an
    engine, so a checkpoint taken on one engine rolls back onto any
    other. *)

type cached_run
(** A stored expansion: the produced program, the post-run session state
    (replayed through the rollback machinery), and resource deltas. *)

type t = {
  macros : State.macro_sig Smap.t ref;
      (** shared with every parser state the engine creates *)
  compiled : unit;  (** inert: kept for the perfbench tracer *)
  mutable defs : macro_def Smap.t;
  tenv : Tenv.t;
  env : Value.env;  (** meta environment; its [globals] persist *)
  senv : Senv.t;  (** object-level symbol table (semantic macros) *)
  gensym : Gensym.t;
  limits : Limits.t;  (** resource governance *)
  watchdog : Watchdog.t;
      (** wall-clock deadline: armed per fragment, narrowed per
          invocation *)
  compile_patterns : bool;  (** always false: kept for the perfbench tracer *)
  mutable recover : bool;  (** graceful degradation on *)
  diags : Diag.collector;  (** diagnostics recorded by recovery mode *)
  mutable trace : Format.formatter option;
      (** when set, every invocation expansion is logged *)
  stats : Counters.stats;
      (** this engine's counters, mutated as it expands; read a copy
          with its derived fields filled in through {!Api.stats} *)
  mutable defs_version : Digest.t;
      (** a digest of the definition history that built the macro
          tables: a fixed constant for the pristine tables, chained by
          every registration.  Equal digests imply equal tables in any
          engine of any process — which is what makes a cache store
          shared between engines, and a snapshot loaded by another
          process, sound *)
  cache : cached_run Cache.t option;  (** [None] = caching disabled *)
}

val create_store : ?budget_bytes:int -> unit -> cached_run Cache.t
(** A standalone expansion-cache store, for sharing between engines
    (the [--cache-file] batch driver and the serve worker pool give
    one store to every per-file/per-worker engine via [?cache_store]).
    The store is domain-safe: sharded by key digest with one mutex per
    shard, merged counters (see {!Cache}). *)

val create :
  ?limits:Limits.t -> ?hygienic:bool ->
  ?recover:bool -> ?cache:bool -> ?cache_bytes:int ->
  ?cache_store:cached_run Cache.t -> unit -> t
(** @param limits resource bounds (default {!Limits.default})
    @param hygienic automatic renaming of template-introduced block
    locals (default false)
    @param recover record expansion failures and substitute placeholder
    nodes instead of aborting at the first one (default false)
    @param cache content-addressed expansion caching: identical
    fragments expanded against identical session state replay their
    recorded output and state delta instead of re-running (default
    true; disable for the ablation benchmark).  Runs that produce
    diagnostics, or execute under trace mode / armed failpoints, are
    never stored or replayed
    @param cache_bytes cache byte budget (default
    {!Cache.default_budget_bytes}); least-recently-used entries are
    evicted beyond it
    @param cache_store an existing store to attach instead of creating
    a private one — how engines expanding in parallel domains share
    hits (ignored when [~cache:false]) *)

(** {1 Transactional checkpoints} *)

val checkpoint : t -> checkpoint
(** Reads the session's maps; copies nothing. *)

val rollback : t -> checkpoint -> unit
(** Store the captured maps back into the engine (parser states see
    them through the shared refs).  The checkpoint may come from
    another engine.
    Also unwinds meta-env and object-level scopes a mid-fragment abort
    left open, and restores [defs_version] to its value at capture
    (the digest names the history that built the tables, so returning
    to the tables is returning to the digest) — expansion-cache keys
    stay stable across the rollback-per-request pattern of serve
    sessions. *)

val checkpoint_fingerprint : checkpoint -> string
(** A structural digest of the session state [checkpoint] holds, for
    asserting the rollback invariant. *)

val fingerprint : t -> string
(** {!checkpoint_fingerprint} of the engine's current state, counting
    the scopes a mid-fragment abort left open. *)

val expand_invocation : t -> invocation -> Value.t
(** Run a macro body on pattern-bound actuals under the per-invocation
    fuel and node budgets; checks the result against the declared
    return type. *)

val register_macro_def : t -> macro_def -> unit

val expand_program : t -> program -> program
(** Expand a parsed program to pure C.  In recovery mode, failed
    invocations become placeholder nodes and their diagnostics are
    available from {!diagnostics}.  The result shares every
    invocation-free subtree of [program] physically: a declaration
    with no invocation in it is returned as it is. *)

val prelude_source_name : string
(** ["<prelude>"], the source name of the standard macro library. *)

val expand_source :
  t ->
  ?source:string ->
  ?deadline_ms:int ->
  ?fragment_jobs:int ->
  string ->
  program
(** Parse with this engine's macro table and meta type environment
    (definitions from earlier calls remain in force), then expand.  A
    hygienic engine rejects identifiers that spell a generated name,
    except in the prelude ([source = {!prelude_source_name}]).
    [deadline_ms] — a caller's remaining wall-clock budget, e.g. a serve
    request's propagated deadline — narrows the fragment watchdog for
    this call; it can never extend past [limits.timeout_ms].  It is not
    part of the cache key: a cache hit replays instantly regardless.

    [fragment_jobs] is ignored: kept for perfbench until ROADMAP item 1
    drops it.

    A unit this call stores is appended to the store's snapshot file,
    if one is bound ({!load_store}), right away: this caller renders
    nothing. *)

(** {2 Expansions that render}

    {!Api.expand_unit} renders each expansion once; on a cache hit it
    can replay the entry's stored render instead, and on a miss it
    attaches its render to the new entry. *)

type expansion
(** An expansion's program, with the cache entry it was replayed from or
    stored as. *)

val expand_source_entry :
  t -> ?source:string -> ?deadline_ms:int -> string -> expansion
(** {!expand_source}, without decoding a restored entry's program. *)

val expansion_program : expansion -> program
(** The program.  An entry restored from a snapshot keeps its program
    marshalled until this first asks for it; the decode runs under a
    lock, so domains that ask at once get the same tree. *)

val rendered :
  expansion ->
  line_directives:bool ->
  (string * Loc.t array Lazy.t) option
(** The render stored in the expansion's cache entry for this flag: its
    text, and its line map, which a restored entry decodes when the
    lazy value is forced ([snapshot.load.decoded] counts these). *)

val remember_render :
  t -> expansion -> line_directives:bool -> Ms2_syntax.Pretty.result -> unit
(** Attach a render to the expansion's cache entry (first writer wins)
    and charge its bytes to the entry's size estimate; a no-op for an
    expansion that has no entry.  An entry this expansion stored is
    then appended, render included, to the store's snapshot file if
    one is bound ({!load_store}). *)

val diagnostics : t -> Diag.t list
(** Diagnostics recorded by recovery mode so far, oldest first. *)

val fuel_consumed : t -> int
(** Interpreter steps consumed over this engine's lifetime. *)

val nodes_produced : t -> int
(** AST nodes charged to template fills over this engine's lifetime. *)

val cache_evictions : t -> int
(** Entries the engine's cache store has dropped for the byte budget —
    a merged sweep over the store's shards, taken on demand rather
    than per miss (the sweep costs more than the rest of the store
    path); 0 without a store. *)

(** {1 Durable cache snapshots}

    Persist a shared expansion-cache store across processes so a
    restarted batch or daemon starts warm, and a killed batch rerun
    over the same file replays every unit it finished.  The snapshot is
    an append-only log: each stored unit appends its records when it
    completes — with its first render attached ({!remember_render}),
    or when {!expand_source} stores it — and the file is rewritten whole
    ({!save_store}) only to drop what the store did not keep.  Every
    record is length-prefixed and checksummed, and the header carries
    the writing binary's {!Build_id.digest}, a stamp made at build
    time from the sources.  A record cut short
    at the end of the file (a killed append) is dropped and the rest
    kept; {e any} other integrity failure (bit-flip, format skew, a
    snapshot written by a different build — [Marshal] only ever
    decodes bytes this build wrote) degrades the whole load to a cold
    cache — a warning counter ([snapshot.load.warnings] in
    {!Obs.Metrics}), never a crash and never a wrong replay.  Keys are
    digests of content, the macro tables' [defs_version] included, so
    a restored entry means the same state in any process and is used
    as loaded.

    Format 8 layout: [magic (8) | format (u32) | build stamp (16)],
    then per entry a checksummed entry record (key, post-state,
    counters, and each render's text with its line map marshalled on
    its own) and a checksummed program record, up to the end of the
    file. *)

type snapshot_save = {
  sv_entries : int;  (** entries written: every live entry *)
  sv_bytes : int;  (** snapshot file size *)
}

type snapshot_load = {
  ld_entries : int;  (** entries restored into the store *)
  ld_dropped : int;
      (** 1 when the final record was torn (a killed append), else 0 *)
  ld_warnings : int;  (** 1 when integrity failed and the load degraded *)
  ld_error : string option;  (** the reason, when [ld_warnings > 0] *)
  ld_rewritten : bool;
      (** the file held records the store did not keep (superseded,
          dropped, evicted, torn or foreign) and was rewritten *)
}

val load_store : cached_run Cache.t -> string -> snapshot_load
(** Restore a snapshot into [cache] and bind the store to [path]: from
    then on every entry the store gains is appended there.  When the
    file holds records the store did not keep it is rewritten first
    ({!save_store}).  Starts no domain.  A missing or empty file is a
    silent cold start; a corrupt file is a cold start with
    [ld_warnings = 1] and the reason in [ld_error]; a file that cannot
    be read is left alone and never appended to.  Never raises.  Every
    record's checksum is verified, but only the entry records are
    decoded: line maps and programs stay marshalled until first
    demanded ({!rendered}, {!expansion_program}).  Subject to the
    [snapshot/load] failpoint. *)

val save_store :
  cached_run Cache.t -> string -> (snapshot_save, string) result
(** Rewrite [path] from every live entry via {!Atomic_io.write} (so a
    crash mid-write never clobbers the previous file), holding off
    appends meanwhile, and bind the store to [path] as {!load_store}
    does.  Safe to call while other domains use the store.  Subject to
    the [snapshot/save] and [io/rename] failpoints. *)

val sync_store : cached_run Cache.t -> (unit, string) result
(** fsync what the store appended since the last sync; [Error] once an
    append or a rewrite failed, after which the store appends nothing
    more (until a {!save_store} succeeds).  [Ok] without a bound
    file. *)

val log_records : cached_run Cache.t -> int
(** Entries in the bound file, superseded ones included: the rewrite
    trigger for a store that keeps growing the file (0 when none is
    bound). *)
