(** Content-addressed expansion caching: key construction over session
    state, and a byte-budgeted LRU store.  See [cache.ml] for the
    soundness story (what the key covers, how closures and generated
    names are digested). *)

open Ms2_support
module Tenv = Ms2_typing.Tenv
module Senv = Ms2_csem.Senv
module Value = Ms2_meta.Value

val key :
  defs_version:Digest.t ->
  env:Value.env ->
  tenv:Tenv.t ->
  senv:Senv.t ->
  limits:Limits.t ->
  flags:string ->
  source:string ->
  string ->
  string
(** Digest of everything a fragment expansion can read: the text, its
    source name, the macro tables (by [defs_version], the engine's
    digest of the definition history that built them), the gensym
    count, the meta type environment, the global meta environment by
    value, the object-level symbol table, the resource limits, and the
    engine behavior flags. *)

(** {1 LRU store}

    Sharded by the first key byte with one mutex per shard, so a store
    shared across domain-pool workers serializes only
    same-shard operations.  The byte budget covers the whole store, not
    a per-shard slice.  Counters and occupancy report the {e merged}
    view. *)

type 'v t

val default_budget_bytes : int
(** 64 MiB. *)

val create : ?budget_bytes:int -> unit -> 'v t

val find : 'v t -> string -> 'v option
(** Lookup; refreshes recency and counts a hit or a miss. *)

val add : ?size_bytes:int -> 'v t -> string -> 'v -> bool
(** Insert, then evict least-recently-used entries until the store is
    within its byte budget again; [true] when the entry went in.
    [size_bytes] is the caller's estimate of the entry's weight;
    without it the entry is sized via [Obj.reachable_words] (exact but
    walks the whole value, and over-counts structure shared with live
    state).  An entry larger than the whole budget is dropped; an
    existing key is left as is (two domains that store one key at once
    keep the first). *)

val charge : 'v t -> string -> 'v -> int -> unit
(** [charge t key value bytes] grows the size estimate of [key]'s entry
    by [bytes], evicting other entries if the store goes over budget.
    A no-op unless the entry still holds [value] itself (physically):
    a concurrent insert of the same key may have won.  For data a
    caller attaches to an entry after inserting it. *)

val log : 'v t -> Atomic_io.log option
(** The log the store's entries are appended to, once a snapshot file
    is bound to it ({!Engine.load_store}, {!Engine.save_store}). *)

val set_log : 'v t -> Atomic_io.log option -> unit

val fold : 'v t -> (string -> 'v -> 'a -> 'a) -> 'a -> 'a
(** [fold t f init] folds [f key value acc] over every live entry (all
    shards; order unspecified).  Each shard is visited under its own
    lock, so folding a store shared with running workers is safe — but
    [f] must not call back into the cache.  This is the snapshot
    rewrite ({!Engine.save_store}). *)

val length : 'v t -> int
val used_bytes : 'v t -> int
val hits : 'v t -> int
val misses : 'v t -> int
val evictions : 'v t -> int
