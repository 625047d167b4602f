(** The one per-engine counter record.

    An engine mutates its own record ([Engine.t.stats]) as it expands;
    {!Api.stats} returns a copy with the derived fields filled in, and
    {!Api.publish_metrics} sets one registry counter per field but
    the eight [fragments_*] ones.  The
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
      (** this and the seven [fragments_*] fields below are always 0:
          kept for perfbench until ROADMAP item 1 drops them *)
  mutable fragments_committed : int;
  mutable fragments_revalidated : int;
  mutable fragments_abort_defs_bump : int;
  mutable fragments_abort_gensym_mint : int;
  mutable fragments_abort_meta_decl : int;
  mutable fragments_abort_stale_read : int;
  mutable fragments_abort_foreign_closure : int;
  mutable pattern_memo_hits : int;
      (** this and [pattern_memo_misses] are always 0: kept for
          perfbench, which reads them; nothing compiles patterns *)
  mutable pattern_memo_misses : int;
  mutable firstset_memo_hits : int;
      (** FIRST-set ring memo hits (process-global) *)
  mutable firstset_memo_misses : int;  (** … and misses (process-global) *)
}
