(* The one per-engine counter record; see counters.mli. *)

type stats = {
  mutable invocations_expanded : int;
  mutable meta_declarations_run : int;
  mutable macros_defined : int;
  mutable fuel_consumed : int;
  mutable nodes_produced : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_evictions : int;
  mutable cache_bypasses : int;
  mutable cache_bypass_trace : int;
  mutable cache_bypass_failpoints : int;
  mutable cache_bypass_budget : int;
  mutable fragments_speculated : int;
  mutable fragments_committed : int;
  mutable fragments_revalidated : int;
  mutable fragments_abort_defs_bump : int;
  mutable fragments_abort_gensym_mint : int;
  mutable fragments_abort_meta_decl : int;
  mutable fragments_abort_stale_read : int;
  mutable fragments_abort_foreign_closure : int;
  mutable pattern_memo_hits : int;
  mutable pattern_memo_misses : int;
  mutable firstset_memo_hits : int;
  mutable firstset_memo_misses : int;
}
