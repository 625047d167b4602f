(** Public API of the MS² macro system.

    Typical use:
    {[
      match Ms2.Api.expand_string source with
      | Ok c_code -> print_string c_code
      | Error message -> prerr_endline message
    ]}

    For multi-file use, create an engine once and call {!expand}
    repeatedly: macro definitions, [metadcl] globals, meta functions and
    generated macros persist across calls. *)

open Ms2_support

type engine = Engine.t

(** Point-in-time expansion-cost counters of an engine. *)
type stats = {
  invocations_expanded : int;
  meta_declarations_run : int;
  macros_defined : int;
  fuel_consumed : int;  (** interpreter steps charged so far *)
  nodes_produced : int;  (** AST nodes charged to template fills so far *)
  cache_hits : int;  (** fragments replayed from the expansion cache *)
  cache_misses : int;  (** keyed cache lookups that found nothing *)
  cache_evictions : int;  (** cache entries dropped for the byte budget *)
  cache_bypasses : int;
      (** fragments the cache stood aside for (sum of the labeled
          bypass counters below) *)
  cache_bypass_trace : int;  (** … because trace mode was on *)
  cache_bypass_failpoints : int;  (** … because failpoints were armed *)
  cache_bypass_uncacheable : int;
      (** … because the session state had no trustworthy digest *)
  cache_bypass_budget : int;
      (** … because a replay would overdraw the remaining budget *)
  fragments_speculated : int;
      (** fragments expanded speculatively on worker domains by the
          intra-file fragment parallelism (always
          [fragments_committed + fragments_revalidated]) *)
  fragments_committed : int;
      (** speculative fragment results that passed commit validation *)
  fragments_revalidated : int;
      (** speculative fragment results discarded and re-expanded
          sequentially *)
  fragments_abort_defs_bump : int;
      (** aborts: the fragment defined or redefined a macro *)
  fragments_abort_gensym_mint : int;
      (** aborts: the fragment minted generated names or anonymous
          tags *)
  fragments_abort_meta_decl : int;  (** aborts: the fragment ran a metadcl *)
  fragments_abort_stale_read : int;
      (** aborts: reads not provably fresh at validation or commit time
          (open scopes, undiffable symbol-table delta, or dirtied by an
          earlier commit) *)
  fragments_abort_foreign_closure : int;
      (** aborts: a global was bound to a meta closure, which cannot
          cross engines *)
  pattern_memo_hits : int;
      (** compiled-invocation-pattern memo hits ({e process-global}: the
          memo is shared by every engine in the process, so this is not
          attributable to one engine) *)
  pattern_memo_misses : int;  (** … and misses (process-global) *)
  firstset_memo_hits : int;
      (** FIRST-set ring memo hits (process-global) *)
  firstset_memo_misses : int;  (** … and misses (process-global) *)
}

type shared_cache = Engine.cached_run Cache.t
(** A domain-safe expansion-cache store shared between engines: the
    [--jobs-mode=domains] driver and the serve worker pool give one
    store to every engine they create ([?cache_store]), so a fragment
    expanded on one domain replays on every other.  Sharded with
    per-shard mutexes; counters report the merged view. *)

val create_shared_cache : ?cache_bytes:int -> unit -> shared_cache

val shared_cache_stats : shared_cache -> int * int * int * int * int
(** Merged [(hits, misses, evictions, entries, used_bytes)]. *)

val save_shared_cache :
  shared_cache -> string -> (Engine.snapshot_save, string) result
(** Persist the store to a durable snapshot file (atomic + fsynced);
    see {!Engine.save_store}. *)

val load_shared_cache : shared_cache -> string -> Engine.snapshot_load
(** Restore a snapshot; never raises — missing file is a silent cold
    start, a corrupt file degrades cold with [ld_warnings] set.  See
    {!Engine.load_store}. *)

val create_engine :
  ?limits:Limits.t ->
  ?compile_patterns:bool ->
  ?hygienic:bool ->
  ?recover:bool ->
  ?cache:bool ->
  ?cache_bytes:int ->
  ?cache_store:shared_cache ->
  ?prelude:bool ->
  unit ->
  engine
(** @param limits resource bounds (default {!Ms2_support.Limits.default})
    @param recover record expansion failures and degrade gracefully
    instead of aborting at the first one (default false)
    @param cache content-addressed expansion caching: an identical
    fragment expanded against identical session state replays the
    recorded output and state delta (default true; disable for the
    [--no-cache] ablation)
    @param cache_bytes cache byte budget, LRU-evicted beyond it
    @param cache_store attach an existing {!shared_cache} instead of a
    private store (ignored when [~cache:false])
    @param prelude load the standard macro library ({!Prelude}) *)

type checkpoint = Engine.checkpoint
(** A session checkpoint.  Fragment-level isolation is automatic;
    {!checkpoint}/{!rollback} serve callers managing coarser units
    (e.g. a whole multi-file batch). *)

val checkpoint : engine -> checkpoint
val rollback : engine -> checkpoint -> unit

(** One unit's expansion, rendered. *)
type unit_result = {
  u_output : string;  (** rendered C; [""] when fatal *)
  u_map : Ms2_syntax.Emit.entry list;
      (** its line-by-line source map ([[]] unless asked for) *)
  u_program : Ms2_syntax.Ast.program option;
      (** the expansion; [None] when it failed (and rolled back) *)
  u_fatal : Diag.t option;  (** why the unit produced no output *)
  u_recovered : Diag.t list;
      (** recovered diagnostics this unit added, oldest first *)
}

val expand_unit :
  ?line_directives:bool -> ?map:bool -> ?deadline_ms:int ->
  ?fragment_jobs:int -> engine -> ?source:string -> string -> unit_result
(** The one "expand a unit" step every driver shares: run
    {!Engine.expand_source} on [engine] under {!Diag.protect}, then
    render once — strict {!Ms2_syntax.Pretty}, or {!Ms2_syntax.Emit}
    when [map] asks for a source map or [line_directives] for [#line]
    directives.  [u_recovered] is the collector's growth during this
    call, so units sharing one engine each see their own.  A stack
    overflow while rendering becomes a located [E0606] in [u_fatal],
    with [u_program] still set: the expansion stands committed and the
    caller decides whether to roll it back. *)

val expand_exn : ?engine:engine -> ?source:string -> string -> string
(** Parse and expand, rendering pure C.
    @raise Ms2_support.Diag.Error on any error. *)

val expand_diag :
  ?engine:engine -> ?source:string -> string -> (string, Diag.t) result
(** Like {!expand_exn} but catching diagnostics, keeping their
    structure (phase, code, location). *)

val expand_string :
  ?engine:engine -> ?source:string -> string -> (string, string) result
(** {!expand_diag} with the error pre-rendered via
    {!Ms2_support.Diag.to_string}. *)

val expand : engine -> ?source:string -> string -> (string, string) result

val expand_to_ast :
  ?engine:engine -> ?source:string -> string ->
  (Ms2_syntax.Ast.program, Diag.t) result

val stats : engine -> stats
(** Snapshot of the engine's expansion-cost counters, including fuel
    and produced-AST accounting. *)

val publish_metrics : ?store:shared_cache -> stats list -> unit
(** Publish engine statistics into the {!Ms2_support.Obs.Metrics}
    registry: each [engine.*]/[cache.*] counter is set to its sum over
    the given engines (absolute sets, so republishing is idempotent;
    call once before reporting).  [store] is the store those engines
    share in this process: when given, [cache.hits]/[misses]/[evictions]
    are its merged view and its [cache.entries]/[cache.used_bytes]
    gauges are published too.  The [intern.spellings] gauge reports
    the process-wide interner's size ({!Ms2_support.Intern.interned}),
    never below a reading already in the registry. *)

val stats_of_counters : (string -> int) -> stats
(** Read the {!stats} fields off a metrics dump, given its counter
    lookup by registry name (e.g. a parsed [ms2-metrics-1] document):
    the counters {!publish_metrics} sets, plus the [fragments.*] and
    memo counters the pipeline maintains in the registry directly. *)

val published_stats : unit -> stats
(** {!stats_of_counters} over this process's registry — what [--stats],
    [--metrics] and the daemon's [metrics] all render. *)

val diagnostics : engine -> Diag.t list
(** Diagnostics recorded by the engine's recovery mode, oldest first
    (empty unless the engine was created with [~recover:true]). *)

val check_program : Ms2_syntax.Ast.program -> string list
(** Object-level static checking of a pure-C program (e.g. an
    expansion); human-readable findings. *)

val expand_checked :
  ?engine:engine -> ?source:string -> string ->
  (string * string list, string) result
(** Expand, then statically check the result: the rendered C plus any
    findings of the object-level type checker. *)

(** Isolated expansion sessions multiplexed onto one shared engine.

    Each session is a checkpoint boundary: {!Session.expand} rolls the
    engine back to the session's committed state, runs the fragment, and
    commits the new checkpoint on success.  A failed fragment rolls back
    (verified against {!Engine.fingerprint} on every failure) and can
    never poison another session.  Because the engine is shared, its
    expansion cache is shared too — a fragment cached by one session
    replays for all of them — and the string interner and
    compiled-pattern memos are process-global; macro tables, meta
    globals and the symbol table stay strictly per-session. *)
module Session : sig
  type t

  (** What one request changed (engine-counter movement). *)
  type delta = {
    d_cache_hits : int;
    d_cache_misses : int;
    d_invocations : int;
    d_fuel : int;
  }

  (** Per-session running totals. *)
  type session_stats = {
    s_requests : int;
    s_failures : int;
    s_cache_hits : int;
    s_cache_misses : int;
    s_invocations : int;
    s_fuel : int;
  }

  val create : engine -> id:string -> t
  (** A new session rooted at the engine's {e current} state — create
      sessions after loading any shared prelude so they all inherit it. *)

  val id : t -> string

  val expand :
    t -> ?deadline_ms:int -> ?fragment_jobs:int -> ?source:string -> string ->
    (string * delta, Diag.t * delta) result
  (** Expand one fragment in this session and render it as pure C.
      [deadline_ms] narrows the fragment watchdog; [fragment_jobs] > 1
      enables intra-file fragment parallelism for this request (see
      {!Engine.expand_source}).  On [Error] the session state is
      unchanged (the fragment rolled back); on [Ok] the session's
      checkpoint has advanced.  Not reentrant: sessions sharing an
      engine must run one fragment at a time. *)

  val reset : t -> unit
  (** Roll the session back to its creation-time state. *)

  val fingerprint : t -> string
  (** {!Engine.fingerprint} of the session's committed state. *)

  val isolated : t -> bool
  (** [false] iff a failed fragment was ever observed to leak state past
      its rollback — an engine-bug tripwire, asserted on every failure;
      the leak is contained (forced rollback) but recorded here. *)

  val stats : t -> session_stats
end
