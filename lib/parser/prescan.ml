(** Token-level fragment pre-scan for intra-file parallel expansion.

    Splits a tokenized translation unit into top-level fragments — the
    units the engine expands speculatively on worker domains — without a
    full parse, in the spirit of black-box fragment splitting: a cheap
    bracket-depth walk that ends a fragment after a top-level [;] or
    [}], plus a conservative token-set classification of each fragment
    as {e definition-bearing} (it may define macros, run meta code, or
    otherwise mutate shared session state — a sequential {e barrier}) or
    {e pure invocation} (safe to expand speculatively).

    Accuracy is a performance concern, not a correctness one.  The
    engine parses the whole file once and assigns parsed declarations to
    fragments by byte offset, so a boundary placed mid-declaration
    merely groups declarations unevenly (possibly leaving a fragment
    empty), and the speculation-commit protocol re-validates every
    classification at run time: a "pure" fragment that turns out to
    touch shared state is rolled back and re-expanded sequentially.
    The classifier only needs to be conservative enough to keep such
    rollbacks rare. *)

open Ms2_syntax

type fragment = {
  fg_offset : int;  (** byte offset of the fragment's first token *)
  fg_tokens : int;  (** number of tokens in the fragment *)
  fg_barrier : bool;
      (** definition-bearing: must expand sequentially, and fragments
          after it must observe its effects *)
}

(* Any token that can only appear in (or introduce) meta syntax marks
   the fragment as a barrier: [syntax] and [metadcl] definitions,
   [typedef] (writes the object-level typedef table other fragments
   parse and bind against), templates and placeholders (backquote,
   meta-braces, [$], [$$], [::]), and [@] (meta types / top-level meta
   functions).
   Plain C and macro *invocations* use none of these. *)
let barrier_token (tok : Token.t) : bool =
  match tok with
  | Token.KW (Token.Ksyntax | Token.Kmetadcl | Token.Ktypedef) -> true
  | Token.AT | Token.BACKQUOTE | Token.LMETA | Token.RMETA
  | Token.DOLLAR | Token.DOLLARDOLLAR | Token.COLONCOLON -> true
  | _ -> false

(* After a top-level [}], these continue the same declaration
   ([struct S { ... } x;], [typedef struct { ... } T;]) rather than
   starting a new one.  Missing a case only mis-places a boundary,
   which the offset-based declaration assignment absorbs. *)
let continues_declaration (tok : Token.t) : bool =
  match tok with
  | Token.IDENT _ | Token.SEMI | Token.COMMA | Token.STAR
  | Token.ASSIGN | Token.LBRACKET -> true
  | _ -> false

let split (stream : Lexer.stream) : fragment list =
  let toks = stream.Lexer.toks in
  let n = Array.length toks in
  let frags = ref [] in
  let fg_start = ref 0 in
  let barrier = ref false in
  let close stop =
    if stop > !fg_start then begin
      frags :=
        {
          fg_offset = stream.Lexer.starts.(!fg_start);
          fg_tokens = stop - !fg_start;
          fg_barrier = !barrier;
        }
        :: !frags
    end;
    fg_start := stop;
    barrier := false
  in
  let depth = ref 0 in
  let i = ref 0 in
  (try
     while !i < n do
       let tok = toks.(!i) in
       if barrier_token tok then barrier := true;
       (match tok with
       | Token.EOF ->
           close !i;
           raise Exit
       | Token.LPAREN | Token.LBRACE | Token.LBRACKET | Token.LMETA ->
           incr depth
       | Token.RPAREN | Token.RBRACKET | Token.RMETA ->
           if !depth > 0 then decr depth
       | Token.RBRACE ->
           if !depth > 0 then decr depth;
           if
             !depth = 0
             && not
                  (!i + 1 < n
                  && continues_declaration toks.(!i + 1))
           then close (!i + 1)
       | Token.SEMI -> if !depth = 0 then close (!i + 1)
       | _ -> ());
       incr i
     done;
     close n
   with Exit -> ());
  List.rev !frags
