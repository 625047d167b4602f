(** Shared-counter scheduler over OCaml 5 domains: a free worker takes
    the next item.  See the design notes in [pool.ml]. *)

val recommended : unit -> int
(** The runtime's recommended domain count for this machine — what
    [--jobs 0] / [--jobs auto] resolves to. *)

val map : jobs:int -> ?stop:('r -> bool) -> int -> (int -> 'r) -> 'r option array
(** [map ~jobs n f] evaluates [f i] for [i] in [0 .. n-1] on [jobs]
    domains (the calling domain participates; [jobs - 1] are spawned)
    and returns the results indexed by item.  Items start in input
    order: each free worker takes the next index from one shared
    counter.

    When [stop] returns true for item [i]'s result, items {e after} [i]
    in input order are cancelled (their slots stay [None]); items before
    [i] still run, so the caller can locate the first stopping item
    exactly as a sequential left-to-right run would.

    [f] is expected to contain its own failures in its result type; if
    it raises anyway, the items not yet started are cancelled and the
    first exception is re-raised here after all domains join. *)
