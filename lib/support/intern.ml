(* No table lives here: identifiers are plain strings.  [interned]
   stays, always 0, because the perfbench tracer still reads it. *)
let interned () : int = 0
