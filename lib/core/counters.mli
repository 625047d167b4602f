(** The one per-engine counter record.

    An engine mutates its own record ([Engine.t.stats]) as it expands;
    {!Api.stats} returns a copy with the derived fields filled in, and
    {!Api.publish_metrics} sets one registry counter per field.  The
    derived fields ([fuel_consumed], [nodes_produced],
    [cache_evictions] and the four memo counters) stay 0 in the live
    record: they are read from the budget, the store and the registry
    when the copy is taken. *)

type stats = {
  mutable invocations_expanded : int;
  mutable meta_declarations_run : int;
  mutable macros_defined : int;
  mutable fuel_consumed : int;  (** interpreter steps charged so far *)
  mutable nodes_produced : int;
      (** AST nodes charged to template fills so far *)
  mutable cache_hits : int;  (** fragments replayed from the cache *)
  mutable cache_misses : int;  (** keyed lookups that found nothing *)
  mutable cache_evictions : int;
      (** entries the store dropped for the byte budget *)
  mutable cache_bypasses : int;
      (** fragments the cache stood aside for (the sum of the labeled
          bypass counters below) *)
  mutable cache_bypass_trace : int;
      (** … because trace mode was on (the trace log is a side effect a
          replay would skip) *)
  mutable cache_bypass_failpoints : int;
      (** … because failpoints were armed (replays would mask injected
          failures) *)
  mutable cache_bypass_budget : int;
      (** … because a replay would overdraw the remaining global budget
          (the real run must happen, and fail, for real) *)
  mutable fragments_speculated : int;
      (** fragments that ran speculatively on a worker domain and
          produced a verdict; always [fragments_committed +
          fragments_revalidated] *)
  mutable fragments_committed : int;
      (** speculative results that passed commit-time validation and
          were spliced into the output *)
  mutable fragments_revalidated : int;
      (** speculative results discarded at commit time (stale reads,
          shared-state writes, worker failure) and re-expanded
          sequentially *)
  mutable fragments_abort_defs_bump : int;
      (** aborts: the fragment defined or redefined a macro *)
  mutable fragments_abort_gensym_mint : int;
      (** aborts: the fragment minted generated names or anonymous
          tags *)
  mutable fragments_abort_meta_decl : int;
      (** aborts: the fragment ran a [metadcl] *)
  mutable fragments_abort_stale_read : int;
      (** aborts: reads not provably fresh (open scopes, undiffable
          symbol-table delta, or dirtied by an earlier commit) *)
  mutable fragments_abort_foreign_closure : int;
      (** always 0 since lambdas in globals are frozen; kept for the
          readers of its registry name *)
  mutable pattern_memo_hits : int;
      (** compiled-invocation-pattern memo hits ({e process-global}: the
          memo is shared by every engine in the process) *)
  mutable pattern_memo_misses : int;  (** … and misses (process-global) *)
  mutable firstset_memo_hits : int;
      (** FIRST-set ring memo hits (process-global) *)
  mutable firstset_memo_misses : int;  (** … and misses (process-global) *)
}
