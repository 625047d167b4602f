(** Hand-written lexer for the extended language (C plus the paper's
    meta-tokens, which are recognized by character adjacency). *)

(** A lexed source: token [i] is [toks.(i)], spanning the bytes
    [\[starts.(i), stops.(i))] and starting on line [lines.(i)]
    (1-based).  Line [l] starts at byte [line_starts.(l - 1)].  The last
    token is the one [EOF], an empty span at the end of the text.  The
    lengths of [toks] and [line_starts] are the token and line counts;
    [starts], [stops] and [lines] may be longer, and only their first
    [Array.length toks] entries mean anything.  Locations are not
    stored: {!loc} builds one on demand. *)
type stream = {
  toks : Token.t array;
  starts : int array;
  stops : int array;
  lines : int array;
  line_starts : int array;
  source : string;  (** the name locations carry *)
  origin : Ms2_support.Loc.origin;  (** the provenance locations carry *)
}

val scan :
  ?origin:Ms2_support.Loc.origin ->
  ?source:string ->
  ?reject_reserved:bool ->
  string ->
  stream
(** Lex a whole source in one pass.

    @param origin expansion provenance of every token location (default
    [User]); pass a [Macro] frame when lexing text produced by an
    expansion so downstream nodes carry the backtrace
    @param source name used in locations (default ["<string>"])
    @param reject_reserved reject identifiers that collide with
    generated (gensym) names; enable when lexing user programs so that
    hygiene by generated names is sound.
    @raise Ms2_support.Diag.Error on lexical errors. *)

val tokenize : ?reject_reserved:bool -> string -> Token.t array
(** The tokens of {!scan}, ending in one [EOF]. *)

val loc : stream -> int -> Ms2_support.Loc.t
(** The location of token [i]: a fresh value on every call, equal to
    any other built for the same token. *)
