(** Global string interning.

    The expansion pipeline compares and hashes the same identifier
    spellings over and over: every token lookup, every typedef test,
    every macro-table probe, every symbol-table bind re-hashes the name
    from scratch, and every [lex_ident] allocates a fresh copy of a name
    the session has usually seen thousands of times before.

    An interned symbol ({!t}) fixes both costs:

    - each distinct spelling is allocated exactly once per process
      ({!canon} returns the canonical copy, so [==] implies spelling
      equality for canonicalized strings);
    - the symbol records its hash, so hashtables keyed by symbols
      ({!Tbl}) never re-hash the characters, and equality is one pointer
      comparison.

    {b Domain safety.}  The lexer probes this table once per identifier
    token, from every domain of a pool at once, so the
    read path must never take a lock.  The table is an open-hashing
    bucket array published through an [Atomic.t]: a reader grabs the
    current generation with one atomic load and scans one bucket.
    Inserts take a mutex, re-check against the latest generation (two
    domains racing on a new spelling must agree on one symbol — the
    physical-equality contract depends on it), cons the new symbol onto
    the live bucket in place, and publish the bumped size.  A bucket
    slot only ever moves from one immutable, fully built list to a
    longer one with the old list as its tail, so a reader racing the
    store sees either the old head or the new one, and both are
    correct lists.  A reader whose generation misses a spelling another
    domain just added falls through to the locked re-check.  A new
    bucket array is allocated only when the table doubles, so an insert
    costs O(1) amortized: C mints fresh names with every declaration
    and every [symbolconc], and a daemon keeps minting them for as long
    as it runs.

    The table is global and append-only: symbols are never collected.
    That is the right trade for a compiler-shaped process — the set of
    distinct identifiers is bounded by the source actually seen — but it
    means [intern] must not be fed attacker-controlled unbounded data
    outside a compilation session. *)

type t = {
  str : string;  (** the canonical spelling (unique per contents) *)
  hash : int;  (** [Hashtbl.hash str], computed once *)
  uid : int;  (** dense allocation order, for cheap total ordering *)
}

(* One published generation of the table.  Under [write_lock] an
   insert conses onto a slot of the live [buckets] in place; a
   generation's array is replaced only when the table doubles. *)
type table = {
  buckets : t list array;
  mask : int;  (** [Array.length buckets - 1]; length is a power of two *)
  size : int;  (** symbols interned; doubles as the next [uid] *)
}

let empty_table bits =
  let len = 1 lsl bits in
  { buckets = Array.make len []; mask = len - 1; size = 0 }

let state : table Atomic.t = Atomic.make (empty_table 10)
let write_lock = Mutex.create ()

let find_in (tbl : table) (s : string) (h : int) : t option =
  let rec scan = function
    | [] -> None
    | sym :: rest ->
        if sym.hash = h && String.equal sym.str s then Some sym
        else scan rest
  in
  scan tbl.buckets.(h land tbl.mask)

(* Under [write_lock]: [tbl] rehashed into a bucket array twice as
   long.  The old array is never written again, so readers still
   holding its generation keep scanning valid (if shorter) buckets. *)
let grown (tbl : table) : table =
  let len = (tbl.mask + 1) * 2 in
  let buckets = Array.make len [] and mask = len - 1 in
  Array.iter
    (List.iter (fun s ->
         buckets.(s.hash land mask) <- s :: buckets.(s.hash land mask)))
    tbl.buckets;
  { tbl with buckets; mask }

(* Under [write_lock]: add [sym] to the live generation and publish the
   bumped size. *)
let publish_with (tbl : table) (sym : t) : unit =
  let tbl =
    if tbl.size + 1 > (tbl.mask + 1) * 3 / 4 then grown tbl else tbl
  in
  let slot = sym.hash land tbl.mask in
  tbl.buckets.(slot) <- sym :: tbl.buckets.(slot);
  Atomic.set state { tbl with size = tbl.size + 1 }

let intern (s : string) : t =
  let h = Hashtbl.hash s in
  match find_in (Atomic.get state) s h with
  | Some sym -> sym
  | None ->
      Mutex.protect write_lock (fun () ->
          (* Re-check against the latest generation: another domain may
             have interned [s] between our read and the lock. *)
          let tbl = Atomic.get state in
          match find_in tbl s h with
          | Some sym -> sym
          | None ->
              let sym = { str = s; hash = h; uid = tbl.size } in
              publish_with tbl sym;
              sym)

(** The canonical copy of [s]: spelling-equal strings map to one shared
    allocation, so later [String.equal]s on canonical strings hit their
    physical-equality fast path. *)
let canon (s : string) : string = (intern s).str

let str (sym : t) : string = sym.str

(* Sound because {!intern} never creates two symbols with one spelling. *)
let equal (a : t) (b : t) : bool = a == b
let hash (sym : t) : int = sym.hash
let compare (a : t) (b : t) : int = Int.compare a.uid b.uid

(** Number of distinct spellings interned so far (process-wide). *)
let interned () : int = (Atomic.get state).size

(** Hashtables keyed by interned symbols: hashing reads the cached
    field, equality is physical. *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
