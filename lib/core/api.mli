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

(** Point-in-time expansion-cost counters of an engine: the one
    counter record, {!Counters.stats}. *)
include module type of struct
  include Counters
end

type shared_cache = Engine.cached_run Cache.t
(** A domain-safe expansion-cache store shared between engines: the
    batch driver under [--cache-file] and the serve worker pool give one
    store to every engine they create ([?cache_store]), so a fragment
    expanded on one domain replays on every other.  Sharded with
    per-shard mutexes; counters report the merged view. *)

val create_shared_cache : ?cache_bytes:int -> unit -> shared_cache

val shared_cache_stats : shared_cache -> int * int * int * int * int
(** Merged [(hits, misses, evictions, entries, used_bytes)]. *)

val save_shared_cache :
  shared_cache -> string -> (Engine.snapshot_save, string) result
(** Rewrite a snapshot file from the whole store (atomic + fsynced) and
    append the store's later entries to it; see {!Engine.save_store}. *)

val load_shared_cache : shared_cache -> string -> Engine.snapshot_load
(** Restore a snapshot and append the store's later entries to it;
    never raises — missing file is a silent cold start, a corrupt file
    degrades cold with [ld_warnings] set.  See {!Engine.load_store}. *)

val create_engine :
  ?limits:Limits.t ->
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
  u_map : Loc.t array;
      (** its line-by-line source map (see {!Ms2_syntax.Pretty.result}) *)
  u_program : Ms2_syntax.Ast.program Lazy.t option;
      (** the expansion; [None] when it failed (and rolled back).  A
          hit that replayed a stored render decodes a restored entry's
          program only when this is forced *)
  u_fatal : Diag.t option;  (** why the unit produced no output *)
  u_recovered : Diag.t list;
      (** recovered diagnostics this unit added, oldest first *)
}

val expand_unit :
  ?line_directives:bool -> ?deadline_ms:int -> engine -> ?source:string ->
  string -> unit_result
(** The one "expand a unit" step every driver shares: run
    {!Engine.expand_source_entry} on [engine] under {!Diag.protect},
    then render once with {!Ms2_syntax.Pretty.program} (a [render]
    span), which yields the source map and, with [line_directives],
    [#line] directives.  On a cache hit whose entry already holds a
    render for this [line_directives], that render is returned without
    calling the renderer (counted as [cache.render_hits]); a fresh
    render is attached to the unit's cache entry.  [u_recovered] is the
    collector's growth during this call, so units sharing one engine
    each see their own.  A stack
    overflow while rendering becomes a located [E0606] in [u_fatal],
    with [u_program] still set: the expansion stands committed and the
    caller decides whether to roll it back. *)

val expand_exn : ?engine:engine -> ?source:string -> string -> string
(** Parse and expand, rendering pure C.  The default engine (here, in
    {!expand_diag}, {!expand_string}, {!expand_to_ast} and
    {!expand_checked}) is created with [~cache:false]: it expands once,
    so a store would be filled and never read.
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
(** A copy of the engine's counter record, with the fields the engine
    does not keep filled in: fuel and produced-AST accounting, its
    store's evictions, and the process-global FIRST-set memo counters
    ([pattern_memo_hits] and [pattern_memo_misses] are always 0). *)

val publish_metrics : ?store:shared_cache -> stats list -> unit
(** Publish engine statistics into the {!Ms2_support.Obs.Metrics}
    registry: each [engine.*]/[cache.*] counter is set to
    its sum over the given engines (absolute sets, so republishing is idempotent;
    call once before reporting).  [store] is the store those engines
    share in this process: when given, [cache.hits]/[misses]/[evictions]
    are its merged view and its [cache.entries]/[cache.used_bytes]
    gauges are published too. *)

val stats_of_counters : (string -> int) -> stats
(** Read the {!stats} fields off a metrics dump, given its counter
    lookup by registry name (e.g. a parsed [ms2-metrics-1] document):
    the counters {!publish_metrics} sets, plus the memo counters the
    pipeline maintains in the registry directly. *)

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

(** Isolated expansion sessions: checkpoint values that run on any engine.

    Each session is a checkpoint boundary: {!Session.expand} rolls the
    engine it is given back to the session's committed state, runs the
    fragment, and commits the new checkpoint on success.  A failed
    fragment rolls back (verified against {!Engine.fingerprint} on every
    failure) and can never poison another session.  Engines sharing a
    store share its expansion cache — a fragment cached by one session
    replays for all of them; macro tables, meta globals, the symbol
    table and the fresh-name counters stay strictly per-session. *)
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

  val create : checkpoint -> id:string -> t
  (** A new session at an engine's {!checkpoint}, taken after it loaded
      any prelude; costs no checkpoint or fingerprint. *)

  val id : t -> string

  val expand :
    t -> engine -> ?deadline_ms:int -> ?source:string -> string ->
    (string * delta, Diag.t * delta) result
  (** Expand one fragment in this session on [engine], whatever state
      it held, and render it as pure C.  [deadline_ms] narrows the
      fragment watchdog.  Each call draws on a fresh fuel budget of the
      engine's [Limits.fuel]: no request inherits what earlier ones
      consumed.  On [Error] the session state is unchanged (the fragment
      rolled back); on [Ok] the session's checkpoint has advanced.  Not
      reentrant: an engine runs one fragment at a time, and so does a
      session. *)

  val reset : t -> unit
  (** Set the session back to its base; touches no engine. *)

  val fingerprint : t -> string
  (** {!Engine.checkpoint_fingerprint} of the session's committed state,
      computed on each call. *)

  val isolated : t -> bool
  (** [false] iff a failed fragment was ever observed to leak state past
      its rollback — an engine-bug tripwire, asserted on every failure;
      the leak is contained (forced rollback) but recorded here. *)

  val stats : t -> session_stats
end
