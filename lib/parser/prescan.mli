(** Token-level fragment pre-scan for intra-file parallel expansion: a
    bracket-depth walk that finds top-level fragment boundaries and
    conservatively classifies each fragment as definition-bearing (a
    sequential barrier) or pure invocation (a speculation candidate).

    Boundary and classification errors cost performance, never
    correctness: the engine assigns parsed declarations to fragments by
    byte offset and re-validates every speculative expansion at commit
    time. *)

open Ms2_syntax

type fragment = {
  fg_offset : int;  (** byte offset of the fragment's first token *)
  fg_tokens : int;  (** number of tokens in the fragment *)
  fg_barrier : bool;
      (** definition-bearing: must expand sequentially, and fragments
          after it must observe its effects *)
}

val split : Lexer.stream -> fragment list
(** Split a token stream (as produced by {!Ms2_syntax.Lexer.scan}; a
    trailing [EOF] is accepted and excluded) into fragments in source
    order.  Offsets are strictly increasing; empty fragments are not
    produced. *)
