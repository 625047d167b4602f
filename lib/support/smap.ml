(** Immutable maps keyed by spelling.  The engine's session state
    (macro tables, meta types, the object-level symbol table) is held in
    these: a value of the map is a complete, unchanging picture of a
    table, so keeping it is a checkpoint and storing it back a
    rollback. *)

include Map.Make (String)
