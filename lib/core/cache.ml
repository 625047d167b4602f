(** Content-addressed expansion caching: key construction and a
    byte-budgeted LRU store.

    {b The key.}  A fragment's expansion is a pure function of the
    fragment text and the session state it runs against.  {!key} digests
    everything the pipeline can read:

    - the fragment text and its source name (locations embed the name,
      so the same text under another name renders differently);
    - the macro tables, summarized by the engine's definition-table
      version counter — every mutation (registration or rollback) bumps
      it, and versions are never reused for different contents, so equal
      version implies equal tables within one engine;
    - the meta type environment, the global meta environment (by value),
      and the object-level symbol table — a [metadcl] fragment mutates
      these without touching the macro tables;
    - the resource limits and the engine's behavior flags (hygiene,
      recovery, pattern compilation): each changes the produced program
      or its locations.

    Keys are {e over}-precise by construction: any state difference that
    cannot actually influence the output merely costs a miss, never a
    wrong hit.

    {b What cannot be keyed.}  Meta globals can hold closures.  A
    closure's behavior is its parameters, its body, and its captured
    environment; when the captured environment is just the global scope
    (the common case — the globals are already in the key, and the body
    and parameters are pure data) the closure digests fine.  A closure
    that captured {e local} scopes has no finite digest we can trust, so
    {!key} raises {!Uncacheable} and the engine expands for real.

    {b Generated names.}  The gensym counter is deliberately {e not}
    part of the key.  Instead, the engine refuses to store any run that
    minted generated names (or anonymous struct tags): those counters
    are monotonic and never rolled back, so a pre-state that included
    them could never recur anyway — the entry would be dead weight — and
    a run that never consulted them cannot depend on them.  Hygiene is
    therefore preserved bit-for-bit: every expansion that allocates
    fresh names really runs, and cached replays are exactly the runs
    whose output provably does not mention fresh names.

    {b The store} is a string-keyed table with last-use ticks and a
    byte budget; insertion evicts least-recently-used entries until the
    new entry fits.  Callers pass a byte estimate with each entry
    ([Obj.reachable_words] is the fallback, but walking a whole stored
    run is itself a measurable clean-path cost, and it over-counts
    structure shared with live engine state).

    {b Domain safety.}  Under [--jobs-mode=domains] every worker reads
    and writes one shared store, so the table is {e sharded}: 16
    independent LRU shards, each with its own mutex, table, recency
    tick, slice of the byte budget, and hit/miss/evict counters.  The
    shard index is the first byte of the key — keys are MD5 digests, so
    the byte is uniform and two domains working on unrelated fragments
    almost never contend on a lock.  The public counters
    ({!hits}/{!misses}/{!evictions}/{!length}/{!used_bytes}) sum over
    shards: callers see one {e merged} view of the store, never
    per-worker or per-shard slices.  LRU recency is likewise per shard,
    which is exactly as approximate as segmented LRU always is — an
    entry competes for budget only against keys that hash beside it. *)

open Ms2_support
module Tenv = Ms2_typing.Tenv
module Senv = Ms2_csem.Senv
module Value = Ms2_meta.Value

exception Uncacheable

(* ------------------------------------------------------------------ *)
(* Key construction                                                    *)
(* ------------------------------------------------------------------ *)

(* Meta values digest structurally.  Closures: parameters and body are
   pure data; the captured environment must be the global scope alone
   (see the module comment), which the caller digests separately. *)
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
      (match cl.Value.cl_env.Value.scopes with
      | [ _global ] -> ()
      | _ -> raise Uncacheable);
      Buffer.add_char b 'c';
      Buffer.add_string b (Marshal.to_string cl.Value.cl_params []);
      Buffer.add_string b (Marshal.to_string cl.Value.cl_body [])

let digest_globals (env : Value.env) : string =
  let global =
    match List.rev env.Value.scopes with
    | global :: _ -> global
    | [] -> raise Uncacheable
  in
  let b = Buffer.create 256 in
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) global []
  |> List.sort (fun (a, _) (c, _) -> String.compare a c)
  |> List.iter (fun (name, v) ->
         Buffer.add_string b name;
         Buffer.add_char b '=';
         add_value b v);
  Digest.string (Buffer.contents b)

(** The cache key for expanding [text] against the given session state.
    @raise Uncacheable when the state has no trustworthy finite digest
    (closures over local scopes, a non-global meta scope stack). *)
let key ~defs_version ~(env : Value.env) ~tenv ~senv ~(limits : Limits.t)
    ~flags ~source (text : string) : string =
  (* mid-expansion states (open meta scopes) are not cacheable keys *)
  (match env.Value.scopes with [ _ ] -> () | _ -> raise Uncacheable);
  let b = Buffer.create 512 in
  Buffer.add_string b (string_of_int defs_version);
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
  Buffer.add_string b text;
  Digest.string (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* LRU store                                                           *)
(* ------------------------------------------------------------------ *)

type 'v entry = { value : 'v; size : int; mutable last_use : int }

type 'v shard = {
  lock : Mutex.t;
  table : (string, 'v entry) Hashtbl.t;
  budget_bytes : int;  (** this shard's slice of the whole budget *)
  mutable used_bytes : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let max_shards = 16 (* a power of two; index = first key byte masked *)

(* Splitting the budget must not split it into uselessness: a shard
   whose slice cannot hold a typical entry silently caches nothing.  So
   the shard count scales with the budget — halving until every slice
   clears [min_slice_bytes] — and a tiny (test-sized) budget collapses
   to one shard, which is exactly the pre-sharding store. *)
let min_slice_bytes = 1024 * 1024

type 'v t = { shards : 'v shard array }

let default_budget_bytes = 64 * 1024 * 1024

let create ?(budget_bytes = default_budget_bytes) () : 'v t =
  let nshards =
    let n = ref max_shards in
    while !n > 1 && budget_bytes / !n < min_slice_bytes do
      n := !n / 2
    done;
    !n
  in
  (* ceiling division: the shards must jointly cover the whole budget *)
  let slice = (budget_bytes + nshards - 1) / nshards in
  {
    shards =
      Array.init nshards (fun _ ->
          {
            lock = Mutex.create ();
            table = Hashtbl.create 16;
            budget_bytes = slice;
            used_bytes = 0;
            tick = 0;
            hits = 0;
            misses = 0;
            evictions = 0;
          });
  }

let shard_of (t : 'v t) (key : string) : 'v shard =
  (* keys are MD5 digests (uniform bytes); an empty key still routes *)
  let b = if String.length key = 0 then 0 else Char.code key.[0] in
  t.shards.(b land (Array.length t.shards - 1))

let locked (s : 'v shard) f =
  Mutex.lock s.lock;
  match f () with
  | v ->
      Mutex.unlock s.lock;
      v
  | exception e ->
      Mutex.unlock s.lock;
      raise e

let find (t : 'v t) (key : string) : 'v option =
  let s = shard_of t key in
  locked s (fun () ->
      s.tick <- s.tick + 1;
      match Hashtbl.find_opt s.table key with
      | Some e ->
          e.last_use <- s.tick;
          s.hits <- s.hits + 1;
          Some e.value
      | None ->
          s.misses <- s.misses + 1;
          None)

(* Evict the least-recently-used entry of one shard (lock held).  A
   linear scan: budgets hold at most a few thousand entries, and
   eviction is the rare path. *)
let evict_one (s : 'v shard) : unit =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, best) when best.last_use <= e.last_use -> acc
        | _ -> Some (key, e))
      s.table None
  in
  match victim with
  | None -> ()
  | Some (key, e) ->
      Hashtbl.remove s.table key;
      s.used_bytes <- s.used_bytes - e.size;
      s.evictions <- s.evictions + 1;
      Obs.instant ~cat:"cache" "evict"
        ~args:(fun () -> [ ("bytes", Obs.Int e.size) ])

let word_bytes = Sys.word_size / 8

let add ?size_bytes (t : 'v t) (key : string) (value : 'v) : unit =
  let s = shard_of t key in
  (* size the entry outside the lock: [Obj.reachable_words] can walk a
     large stored run *)
  let size =
    match size_bytes with
    | Some n -> n
    | None -> (Obj.reachable_words (Obj.repr value) + 16) * word_bytes
  in
  locked s (fun () ->
      if (not (Hashtbl.mem s.table key)) && size <= s.budget_bytes then begin
        while
          s.used_bytes + size > s.budget_bytes && Hashtbl.length s.table > 0
        do
          evict_one s
        done;
        s.tick <- s.tick + 1;
        Hashtbl.replace s.table key { value; size; last_use = s.tick };
        s.used_bytes <- s.used_bytes + size
      end)

(* Snapshot support: walk every live entry.  Each shard's portion runs
   under that shard's lock, so a fold taken while other domains expand
   sees a consistent per-shard view (entries may move between shards'
   reads, but every observed entry is a real, complete entry). *)
let fold (t : 'v t) (f : string -> 'v -> int -> 'a -> 'a) (init : 'a) : 'a =
  Array.fold_left
    (fun acc s ->
      locked s (fun () ->
          Hashtbl.fold (fun key e acc -> f key e.value e.size acc) s.table acc))
    init t.shards

(* The merged view: sum over shards.  Each shard is read under its lock
   so a concurrent expansion can shift counts between two reads, but
   every count is a real event — nothing is lost or double-counted. *)
let sum_shards (t : 'v t) (f : 'v shard -> int) : int =
  Array.fold_left (fun acc s -> acc + locked s (fun () -> f s)) 0 t.shards

let length (t : 'v t) : int = sum_shards t (fun s -> Hashtbl.length s.table)
let used_bytes (t : 'v t) : int = sum_shards t (fun s -> s.used_bytes)
let hits (t : 'v t) : int = sum_shards t (fun s -> s.hits)
let misses (t : 'v t) : int = sum_shards t (fun s -> s.misses)
let evictions (t : 'v t) : int = sum_shards t (fun s -> s.evictions)
