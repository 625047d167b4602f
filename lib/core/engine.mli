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

type stats = {
  mutable invocations_expanded : int;
  mutable meta_declarations_run : int;
  mutable macros_defined : int;
  mutable cache_hits : int;  (** fragments replayed from the cache *)
  mutable cache_misses : int;  (** keyed lookups that found nothing *)
  mutable cache_evictions : int;  (** entries dropped for the byte budget *)
  mutable cache_bypasses : int;
      (** fragments the cache stood aside for (the sum of the labeled
          bypass counters below) *)
  mutable cache_bypass_trace : int;
      (** bypasses because trace mode was on (the trace log is a side
          effect a replay would skip) *)
  mutable cache_bypass_failpoints : int;
      (** bypasses because failpoints were armed (replays would mask
          injected failures) *)
  mutable cache_bypass_uncacheable : int;
      (** bypasses because the session state had no trustworthy digest
          (e.g. a meta closure over local scopes) *)
  mutable cache_bypass_budget : int;
      (** bypasses because a replay would overdraw the remaining global
          budget (the real run must happen, and fail, for real) *)
  mutable frag_speculated : int;
      (** fragments that ran speculatively on a worker domain and
          produced a verdict; always [frag_committed +
          frag_revalidated] *)
  mutable frag_committed : int;
      (** speculative results that passed commit-time validation and
          were spliced into the output *)
  mutable frag_revalidated : int;
      (** speculative results discarded at commit time (stale reads,
          shared-state writes, worker failure) and re-expanded
          sequentially *)
  mutable frag_abort_defs_bump : int;
      (** aborts: the fragment defined or redefined a macro *)
  mutable frag_abort_gensym_mint : int;
      (** aborts: the fragment minted generated names or anonymous
          tags *)
  mutable frag_abort_meta_decl : int;
      (** aborts: the fragment ran a [metadcl] *)
  mutable frag_abort_stale_read : int;
      (** aborts: reads not provably fresh (open scopes, undiffable
          symbol-table delta, or commit-time validation failure) *)
  mutable frag_abort_foreign_closure : int;
      (** aborts: a global was bound to a meta closure, which cannot
          cross engines *)
}

type checkpoint
(** A session checkpoint: captures the state a failed fragment could
    corrupt (macro tables, meta type environment, global meta
    environment, object-level symbol table).  Deliberately {e not}
    captured: the gensym counter (names stay burned across a rollback),
    statistics, fuel already consumed, and recorded diagnostics.  A
    checkpoint is never mutated, so one supports any number of
    rollbacks. *)

type cached_run
(** A stored expansion: the produced program, the post-run session state
    (replayed through the rollback machinery), and resource deltas. *)

type t = {
  macros : (string, State.macro_sig) Hashtbl.t;
  compiled : (string, State.compiled_pattern) Hashtbl.t;
  defs : (string, macro_def) Hashtbl.t;
  tenv : Tenv.t;
  env : Value.env;  (** persistent global meta environment *)
  senv : Senv.t;  (** object-level symbol table (semantic macros) *)
  gensym : Gensym.t;
  limits : Limits.t;  (** resource governance *)
  watchdog : Watchdog.t;
      (** wall-clock deadline: armed per fragment, narrowed per
          invocation *)
  transactional : bool;
      (** checkpoint/rollback session state around each fragment *)
  compile_patterns : bool;
  provenance : bool;
      (** stamp expansion provenance onto produced locations (backtrace
          chains); off only for overhead benchmarking *)
  mutable recover : bool;  (** graceful degradation on *)
  diags : Diag.collector;  (** diagnostics recorded by recovery mode *)
  mutable trace : Format.formatter option;
      (** when set, every invocation expansion is logged *)
  stats : stats;
  mutable defs_version : int;
      (** moved on every engine-side macro-table mutation; equal
          versions imply equal tables at fragment boundaries.  Versions
          are allocated from a process-global atomic counter, so the
          implication holds across all engines in the process (version
          0 = pristine empty tables) — which is what makes a cache
          store shared between engines sound *)
  mutable fp_tables_memo : (int * string) option;
      (** memoized macro-tables section of {!fingerprint}, keyed by
          [defs_version] *)
  cache : cached_run Cache.t option;  (** [None] = caching disabled *)
}

val create_store : ?budget_bytes:int -> unit -> cached_run Cache.t
(** A standalone expansion-cache store, for sharing between engines
    (the [--jobs-mode=domains] driver and the serve worker pool give
    one store to every per-file/per-worker engine via [?cache_store]).
    The store is domain-safe: sharded by key digest with one mutex per
    shard, merged counters (see {!Cache}). *)

val create :
  ?limits:Limits.t -> ?compile_patterns:bool -> ?hygienic:bool ->
  ?recover:bool -> ?provenance:bool -> ?transactional:bool ->
  ?cache:bool -> ?cache_bytes:int -> ?cache_store:cached_run Cache.t ->
  unit -> t
(** @param limits resource bounds (default {!Limits.default})
    @param compile_patterns compile invocation parsers at definition
    time (default true; disable for the ablation benchmark)
    @param hygienic automatic renaming of template-introduced block
    locals (default false)
    @param recover record expansion failures and substitute placeholder
    nodes instead of aborting at the first one (default false)
    @param provenance stamp expansion provenance (macro + call site)
    onto every produced location (default true; disable only for the
    overhead benchmark)
    @param transactional checkpoint session state on each
    {!expand_source} and roll it back when the fragment fails (default
    true; disable only for the overhead benchmark)
    @param cache content-addressed expansion caching: identical
    fragments expanded against identical session state replay their
    recorded output and state delta instead of re-running (default
    true; disable for the ablation benchmark).  Runs that mint
    generated names or anonymous tags, produce diagnostics, or execute
    under trace mode / armed failpoints are never stored or replayed
    @param cache_bytes cache byte budget (default
    {!Cache.default_budget_bytes}); least-recently-used entries are
    evicted beyond it
    @param cache_store an existing store to attach instead of creating
    a private one — how engines expanding in parallel domains share
    hits (ignored when [~cache:false]) *)

(** {1 Transactional checkpoints} *)

val checkpoint : t -> checkpoint

val rollback : t -> checkpoint -> unit
(** Restore the engine — in place, so parser states sharing its tables
    stay attached — to the captured state.  Also unwinds meta-env and
    object-level scopes a mid-fragment abort left open, and restores
    [defs_version] to its value at capture (table content at a given
    version is unique, so returning to the tables is returning to the
    version) — expansion-cache keys stay stable across the
    rollback-per-request pattern of serve sessions. *)

val fingerprint : t -> string
(** A structural digest of the rollback-covered session state, for
    asserting the rollback invariant in tests. *)

val expand_invocation : t -> invocation -> Value.t
(** Run a macro body on pattern-bound actuals under the per-invocation
    fuel and node budgets; checks the result against the declared
    return type. *)

val register_macro_def : t -> macro_def -> unit

val expand_program : t -> program -> program
(** Expand a parsed program to pure C.  In recovery mode, failed
    invocations become placeholder nodes and their diagnostics are
    available from {!diagnostics}. *)

val expand_source :
  t ->
  ?source:string ->
  ?deadline_ms:int ->
  ?fragment_jobs:int ->
  ?fragment_min:int ->
  string ->
  program
(** Parse with this engine's macro table and meta type environment
    (definitions from earlier calls remain in force), then expand.
    [deadline_ms] — a caller's remaining wall-clock budget, e.g. a serve
    request's propagated deadline — narrows the fragment watchdog for
    this call; it can never extend past [limits.timeout_ms].  It is not
    part of the cache key: a cache hit replays instantly regardless.

    [fragment_jobs] (default 1 = off) > 1 enables intra-file fragment
    parallelism on a cache miss: the file is split into top-level
    fragments, definition-bearing fragments expand sequentially as
    barriers, and runs of pure-invocation fragments between barriers
    expand speculatively on [fragment_jobs] domains against
    snapshot-isolated engine copies, committing in fragment order.  A
    speculation whose reads turn out stale at commit time is discarded
    and re-expanded sequentially, so the output — bytes, diagnostics,
    diagnostic order, first-fatal behavior, resource accounting — is
    identical to a sequential run.  Files with fewer than
    [fragment_min] fragments (default 8), trace mode (announced in the
    trace log), profile/recording observability modes, and
    non-transactional engines all degrade to the sequential path. *)

val diagnostics : t -> Diag.t list
(** Diagnostics recorded by recovery mode so far, oldest first. *)

val fuel_consumed : t -> int
(** Interpreter steps consumed over this engine's lifetime. *)

val nodes_produced : t -> int
(** AST nodes charged to template fills over this engine's lifetime. *)

val cache_evictions : t -> int
(** Entries the engine's cache store has dropped for the byte budget —
    a merged sweep over the store's shards, refreshed on demand rather
    than per miss (the sweep costs more than the rest of the store
    path), so read this instead of [stats.cache_evictions]. *)

(** {1 Durable cache snapshots}

    Persist a shared expansion-cache store across processes so a
    restarted batch or daemon starts warm.  The on-disk container is
    versioned, length-prefixed and per-record checksummed, and stamped
    with the writing binary's {!Build_id} fingerprint; {e any}
    integrity failure (truncation, bit-flip, format skew, a snapshot
    written by a different build — [Marshal] only ever decodes bytes
    this build wrote) degrades the whole load to a cold cache — a
    warning counter ([snapshot.load.warnings] in {!Obs.Metrics}),
    never a crash and never a wrong replay.  Entries are re-verified
    against the [defs_version] discipline before use: version numbers
    from another process — including a fork sibling, which the
    pid-mixed process generation never mistakes for the writer — are
    adopted only when they cannot collide with numbers this process
    has already bound (see engine.ml for the full argument). *)

type snapshot_save = {
  sv_entries : int;  (** entries written *)
  sv_skipped : int;  (** unmarshalable entries (meta-closure globals) *)
  sv_bytes : int;  (** snapshot file size *)
}

type snapshot_load = {
  ld_entries : int;  (** entries restored into the store *)
  ld_dropped : int;  (** version-unsafe or unrebuildable entries *)
  ld_warnings : int;  (** 1 when integrity failed and the load degraded *)
  ld_error : string option;  (** the reason, when [ld_warnings > 0] *)
}

val save_store :
  cached_run Cache.t -> string -> (snapshot_save, string) result
(** Serialize every live entry to [path] via {!Atomic_io.write} (so a
    crash mid-save never clobbers the previous snapshot).  Safe to call
    while other domains use the store.  Subject to the [snapshot/save]
    and [io/rename] failpoints. *)

val load_store : cached_run Cache.t -> string -> snapshot_load
(** Restore a snapshot into [cache].  A missing file is a silent cold
    start; a corrupt file is a cold start with [ld_warnings = 1] and
    the reason in [ld_error].  Never raises.  Subject to the
    [snapshot/load] failpoint. *)
