val interned : unit -> int
(** Always 0: identifiers are plain strings and nothing is interned;
    kept for the perfbench tracer until ROADMAP item 1 drops it. *)
