(** Content-addressed expansion caching: key construction and a
    byte-budgeted LRU store.

    {b The key.}  A fragment's expansion is a pure function of the
    fragment text and the session state it runs against.  {!key} digests
    everything the pipeline can read:

    - the fragment text and its source name (locations embed the name,
      so the same text under another name renders differently);
    - the macro tables, summarized by the engine's definition digest, a
      chained digest of every registration since the pristine tables —
      equal digests imply an equal history, hence equal tables, in any
      engine of any process;
    - the meta type environment, the global meta environment (by value),
      and the object-level symbol table — a [metadcl] fragment mutates
      these without touching the macro tables;
    - the resource limits and the engine's behavior flags (hygiene,
      recovery, pattern compilation): each changes the produced program
      or its locations.

    Keys are {e over}-precise by construction: any state difference that
    cannot actually influence the output merely costs a miss, never a
    wrong hit.

    {b Closures.}  A closure's behavior is its parameters, its body,
    what it captured, and the globals of the session that calls it.  A
    meta function captures nothing, and a lambda in a global holds a
    frozen copy of its captures ({!Value.bind_global}): both digest by
    value.

    {b Generated names.}  The gensym count is part of the key, and the
    anonymous-tag count part of the symbol table's digest.  A replay
    restores the counts the recorded run left, so a run that minted
    names replays them bit-for-bit.

    {b The store} is a string-keyed table with last-use ticks and one
    byte budget for the whole store; an insertion that takes the total
    over it evicts least-recently-used entries until it fits again, and
    any entry no larger than the whole budget is admitted.  Callers
    pass a byte estimate with each entry ([Obj.reachable_words] is the
    fallback, but walking a whole stored run is itself a measurable
    clean-path cost, and it over-counts structure shared with live
    engine state).

    {b When a store exists.}  Only where something will read it again:
    a [ms2c] run with [--cache-file] (the snapshot is loaded into it,
    and every entry it stores is appended to the snapshot) and the
    [serve] daemon.  A one-shot run expands each
    unit once, as cpp does, so it keeps none; its [--jobs] domain
    workers then each load [--prelude] themselves instead of replaying
    it from one another.

    {b Domain safety.}  The daemon's serving domains, and [--jobs]
    domain workers under [--cache-file], read and write one shared
    store, so the table is {e sharded}: 16
    tables, each with its own mutex and hit/miss/evict counters.  The
    shard index is the first byte of the key — keys are MD5 digests, so
    the byte is uniform and two domains working on unrelated fragments
    almost never contend on a lock.  The byte total, the recency clock
    and the durable log are atomics shared by every shard.  The
    public counters ({!hits}/{!misses}/{!evictions}/{!length}/
    {!used_bytes}) are the {e merged} view of the store, never
    per-worker or per-shard slices.

    {b Why the budget is not sliced.}  A per-shard slice would let two
    large entries whose keys share a first byte evict each other in a
    nearly empty store, and could never hold an entry larger than the
    slice.  Eviction picks the least-recently-used entry of the
    inserting shard first and of the following shards after it, one
    lock at a time: with uniform key bytes that is as close to global
    LRU as segmented LRU always is, at the cost of one shard scan per
    eviction. *)

open Ms2_support
module Tenv = Ms2_typing.Tenv
module Senv = Ms2_csem.Senv
module Value = Ms2_meta.Value

(* ------------------------------------------------------------------ *)
(* Key construction                                                    *)
(* ------------------------------------------------------------------ *)

(* Meta values digest structurally.  Closures: parameters, body and
   frozen captures are pure data, and the globals they read are
   digested separately. *)
let rec add_value b (v : Value.t) : unit =
  match v with
  | Value.Vint n ->
      Buffer.add_char b 'i';
      Buffer.add_string b (string_of_int n)
  | Value.Vstring s ->
      Buffer.add_char b 's';
      Buffer.add_string b (string_of_int (String.length s));
      Buffer.add_char b ':';
      Buffer.add_string b s
  | Value.Vnode n ->
      Buffer.add_char b 'n';
      Buffer.add_string b (Marshal.to_string n [])
  | Value.Vlist items ->
      Buffer.add_char b '[';
      List.iter (add_value b) items;
      Buffer.add_char b ']'
  | Value.Vtuple fields ->
      Buffer.add_char b '{';
      List.iter
        (fun (name, v) ->
          Buffer.add_string b name;
          Buffer.add_char b '=';
          add_value b v)
        fields;
      Buffer.add_char b '}'
  | Value.Vbuiltin name ->
      Buffer.add_char b 'b';
      Buffer.add_string b name
  | Value.Vvoid -> Buffer.add_char b 'v'
  | Value.Vclosure cl ->
      Buffer.add_char b 'c';
      Buffer.add_string b (Marshal.to_string cl.Value.cl_params []);
      Buffer.add_string b (Marshal.to_string cl.Value.cl_body []);
      List.iter
        (function
          | Value.Frozen captured -> add_bindings b captured
          | Value.Local _ ->
              invalid_arg "Cache.key: a global holds an unfrozen lambda")
        cl.Value.cl_scopes

(* in name order: a map iterates sorted *)
and add_bindings b (bindings : Value.t Smap.t) : unit =
  Smap.iter
    (fun name v ->
      Buffer.add_string b name;
      Buffer.add_char b '=';
      add_value b v)
    bindings;
  Buffer.add_char b ';'

let digest_globals (env : Value.env) : string =
  let b = Buffer.create 256 in
  add_bindings b !(env.Value.globals);
  Digest.string (Buffer.contents b)

(** The cache key for expanding [text] against the given session state. *)
let key ~defs_version ~(env : Value.env) ~tenv ~senv ~(limits : Limits.t)
    ~flags ~source (text : string) : string =
  let b = Buffer.create 512 in
  Buffer.add_string b defs_version;
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int (Gensym.count env.Value.gensym));
  Buffer.add_char b '|';
  Buffer.add_string b (digest_globals env);
  Buffer.add_char b '|';
  Buffer.add_string b (Tenv.digest tenv);
  Buffer.add_char b '|';
  Buffer.add_string b (Senv.digest senv);
  Buffer.add_char b '|';
  Buffer.add_string b (Limits.to_string limits);
  Buffer.add_char b '|';
  Buffer.add_string b flags;
  Buffer.add_char b '|';
  Buffer.add_string b source;
  Buffer.add_char b '|';
  (* the text by its digest: a unit is hundreds of kilobytes, and
     copying it into the buffer would copy it twice *)
  Buffer.add_string b (Digest.string text);
  Digest.string (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* LRU store                                                           *)
(* ------------------------------------------------------------------ *)

type 'v entry = { value : 'v; mutable size : int; mutable last_use : int }

type 'v shard = {
  lock : Mutex.t;
  table : (string, 'v entry) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let nshards = 16 (* a power of two; index = first key byte masked *)

type 'v t = {
  shards : 'v shard array;
  budget_bytes : int;  (** the whole store's budget *)
  used : int Atomic.t;  (** bytes held, summed over shards *)
  tick : int Atomic.t;  (** recency clock, shared so shards compare *)
  log : Atomic_io.log option Atomic.t;
      (** where stored entries are appended durably ([--cache-file]) *)
}

let default_budget_bytes = 64 * 1024 * 1024

let create ?(budget_bytes = default_budget_bytes) () : 'v t =
  {
    shards =
      Array.init nshards (fun _ ->
          {
            lock = Mutex.create ();
            table = Hashtbl.create 16;
            hits = 0;
            misses = 0;
            evictions = 0;
          });
    budget_bytes;
    used = Atomic.make 0;
    tick = Atomic.make 0;
    log = Atomic.make None;
  }

let shard_index (key : string) : int =
  (* keys are MD5 digests (uniform bytes); an empty key still routes *)
  let b = if String.length key = 0 then 0 else Char.code key.[0] in
  b land (nshards - 1)

let locked (s : 'v shard) f =
  Mutex.lock s.lock;
  match f () with
  | v ->
      Mutex.unlock s.lock;
      v
  | exception e ->
      Mutex.unlock s.lock;
      raise e

let next_tick (t : 'v t) : int = Atomic.fetch_and_add t.tick 1

let find (t : 'v t) (key : string) : 'v option =
  let s = t.shards.(shard_index key) in
  locked s (fun () ->
      match Hashtbl.find_opt s.table key with
      | Some e ->
          e.last_use <- next_tick t;
          s.hits <- s.hits + 1;
          Some e.value
      | None ->
          s.misses <- s.misses + 1;
          None)

(* Evict the least-recently-used entry of one shard other than [keep]
   (lock held); false when there is none.  A linear scan: eviction is
   the rare path. *)
let evict_one (t : 'v t) (s : 'v shard) ~(keep : string) : bool =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | _ when key = keep -> acc
        | Some (_, best) when best.last_use <= e.last_use -> acc
        | _ -> Some (key, e))
      s.table None
  in
  match victim with
  | None -> false
  | Some (key, e) ->
      Hashtbl.remove s.table key;
      ignore (Atomic.fetch_and_add t.used (-e.size));
      s.evictions <- s.evictions + 1;
      Obs.instant ~cat:"cache" "evict"
        ~args:(fun () -> [ ("bytes", Obs.Int e.size) ]);
      true

(* Bring the whole store back within its budget after [key] grew it.
   Victims come from [key]'s own shard first, then from the shards
   after it in turn — one shard lock at a time, never nested, so two
   domains enforcing at once cannot deadlock. *)
let enforce_budget (t : 'v t) ~(key : string) : unit =
  let first = shard_index key in
  let rec go i =
    if i < nshards && Atomic.get t.used > t.budget_bytes then begin
      let s = t.shards.((first + i) land (nshards - 1)) in
      if locked s (fun () -> evict_one t s ~keep:key) then go i else go (i + 1)
    end
  in
  go 0

let word_bytes = Sys.word_size / 8

let add ?size_bytes (t : 'v t) (key : string) (value : 'v) : bool =
  (* size the entry outside the lock: [Obj.reachable_words] can walk a
     large stored run *)
  let size =
    match size_bytes with
    | Some n -> n
    | None -> (Obj.reachable_words (Obj.repr value) + 16) * word_bytes
  in
  size <= t.budget_bytes
  &&
  let s = t.shards.(shard_index key) in
  let added =
    locked s (fun () ->
        if Hashtbl.mem s.table key then false
        else begin
          Hashtbl.replace s.table key { value; size; last_use = next_tick t };
          true
        end)
  in
  if added then begin
    ignore (Atomic.fetch_and_add t.used size);
    enforce_budget t ~key
  end;
  added

let charge (t : 'v t) (key : string) (value : 'v) (bytes : int) : unit =
  let s = t.shards.(shard_index key) in
  let found =
    locked s (fun () ->
        match Hashtbl.find_opt s.table key with
        | Some e when e.value == value ->
            e.size <- e.size + bytes;
            true
        | _ -> false)
  in
  if found then begin
    ignore (Atomic.fetch_and_add t.used bytes);
    enforce_budget t ~key
  end

let log (t : 'v t) = Atomic.get t.log
let set_log (t : 'v t) l = Atomic.set t.log l

(* Snapshot support: walk every live entry.  Each shard's portion runs
   under that shard's lock, so a fold taken while other domains expand
   sees a consistent per-shard view (entries may move between shards'
   reads, but every observed entry is a real, complete entry). *)
let fold (t : 'v t) (f : string -> 'v -> 'a -> 'a) (init : 'a) : 'a =
  Array.fold_left
    (fun acc s ->
      locked s (fun () ->
          Hashtbl.fold (fun key e acc -> f key e.value acc) s.table acc))
    init t.shards

(* The merged view: sum over shards.  Each shard is read under its lock
   so a concurrent expansion can shift counts between two reads, but
   every count is a real event — nothing is lost or double-counted. *)
let sum_shards (t : 'v t) (f : 'v shard -> int) : int =
  Array.fold_left (fun acc s -> acc + locked s (fun () -> f s)) 0 t.shards

let length (t : 'v t) : int = sum_shards t (fun s -> Hashtbl.length s.table)
let used_bytes (t : 'v t) : int = Atomic.get t.used
let hits (t : 'v t) : int = sum_shards t (fun s -> s.hits)
let misses (t : 'v t) : int = sum_shards t (fun s -> s.misses)
let evictions (t : 'v t) : int = sum_shards t (fun s -> s.evictions)
