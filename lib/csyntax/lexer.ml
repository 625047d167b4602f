(** Hand-written lexer for the extended language.

    Produces the whole token stream up front (the parser does arbitrary
    lookahead on the resulting array, and the paper's placeholder-token
    mechanism is implemented parser-side).

    Meta-tokens are recognized by adjacency: [{|], [|}], [$$] and [::]
    are single tokens only when the characters are contiguous.  None of
    these sequences is valid C, so lexing them unconditionally does not
    change the C fragment of the language. *)

open Ms2_support

type state = {
  src : string;
  len : int;  (** [String.length src], hoisted out of the scan loops *)
  source_name : string;
  mutable pos : int;  (** byte offset *)
  mutable line : int;
  mutable bol : int;  (** offset of beginning of current line *)
  reject_reserved : bool;
}

let current_pos st : Loc.pos =
  { line = st.line; col = st.pos - st.bol; offset = st.pos }

let loc_from st (start : Loc.pos) =
  Loc.make ~source:st.source_name ~start_pos:start ~end_pos:(current_pos st)

let error st start fmt =
  Format.kasprintf
    (fun message ->
      raise
        (Diag.Error (Diag.make ~loc:(loc_from st start) Diag.Lexing message)))
    fmt

let peek st = if st.pos < st.len then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < st.len then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek st with
  | Some '\n' ->
      st.line <- st.line + 1;
      st.bol <- st.pos + 1
  | Some _ | None -> ());
  st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || is_digit c

let rec skip_trivia st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
      advance st;
      skip_trivia st
  | Some '/' when peek2 st = Some '*' ->
      let start = current_pos st in
      advance st;
      advance st;
      let rec close () =
        match peek st with
        | None -> error st start "unterminated comment"
        | Some '*' when peek2 st = Some '/' ->
            advance st;
            advance st
        | Some _ ->
            advance st;
            close ()
      in
      close ();
      skip_trivia st
  | Some '/' when peek2 st = Some '/' ->
      let rec eol () =
        match peek st with
        | None | Some '\n' -> ()
        | Some _ ->
            advance st;
            eol ()
      in
      eol ();
      skip_trivia st
  | Some _ | None -> ()

let lex_ident st =
  let start = current_pos st in
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | Some c when is_ident_char c ->
        Buffer.add_char b c;
        advance st;
        go ()
    | Some _ | None -> ()
  in
  go ();
  (* Intern the spelling: a session lexes the same names thousands of
     times, and canonical copies make every later equality/hash cheap. *)
  let name = Intern.canon (Buffer.contents b) in
  if st.reject_reserved && Gensym.is_reserved name then
    error st start
      "identifier %S uses the reserved generated-name marker %S" name
      Gensym.reserved_marker;
  match Token.keyword_of_string name with
  | Some kw -> Token.KW kw
  | None -> Token.IDENT name

let lex_number st =
  let start = current_pos st in
  let b = Buffer.create 8 in
  let add () =
    Buffer.add_char b (Option.get (peek st));
    advance st
  in
  let hex = peek st = Some '0' && (peek2 st = Some 'x' || peek2 st = Some 'X') in
  let is_float = ref false in
  if hex then (
    add ();
    add ();
    if not (match peek st with Some c -> is_hex c | None -> false) then
      error st start "malformed hexadecimal literal";
    while (match peek st with Some c -> is_hex c | None -> false) do
      add ()
    done)
  else begin
    while (match peek st with Some c -> is_digit c | None -> false) do
      add ()
    done;
    (* fractional part: "1.5" but not "1.m" (member access) or "1..." *)
    (match (peek st, peek2 st) with
    | Some '.', Some c when is_digit c ->
        is_float := true;
        add ();
        while (match peek st with Some c -> is_digit c | None -> false) do
          add ()
        done
    | _ -> ());
    (* exponent *)
    (match peek st with
    | Some ('e' | 'E')
      when (match peek2 st with
           | Some c -> is_digit c || c = '+' || c = '-'
           | None -> false) ->
        is_float := true;
        add ();
        (match peek st with Some ('+' | '-') -> add () | _ -> ());
        if not (match peek st with Some c -> is_digit c | None -> false)
        then error st start "malformed exponent";
        while (match peek st with Some c -> is_digit c | None -> false) do
          add ()
        done
    | _ -> ())
  end;
  if !is_float then begin
    (* float suffixes *)
    (match peek st with Some ('f' | 'F' | 'l' | 'L') -> add () | _ -> ());
    let text = Buffer.contents b in
    let digits =
      (* only allocate the sub-string when a suffix is actually there *)
      let n = String.length text in
      match text.[n - 1] with
      | 'f' | 'F' | 'l' | 'L' -> String.sub text 0 (n - 1)
      | _ -> text
    in
    match float_of_string_opt digits with
    | Some v -> Token.FLOAT_LIT (v, text)
    | None -> error st start "malformed floating-point literal %S" text
  end
  else begin
    (* integer suffixes, consumed into the spelling *)
    while
      match peek st with
      | Some ('u' | 'U' | 'l' | 'L') -> true
      | Some _ | None -> false
    do
      add ()
    done;
    let text = Buffer.contents b in
    let digits =
      (* strip suffix letters for value computation, allocating only
         when a suffix is actually present (the common literal has
         none, and [text] itself is already the digits) *)
      let n = String.length text in
      let rec core i =
        if
          i > 0
          && (match text.[i - 1] with
             | 'u' | 'U' | 'l' | 'L' -> true
             | _ -> false)
        then core (i - 1)
        else i
      in
      let c = core n in
      if c = n then text else String.sub text 0 c
    in
    match int_of_string_opt digits with
    | Some v -> Token.INT_LIT (v, text)
    | None -> error st start "integer literal %S out of range" text
  end

let lex_escape st start =
  match peek st with
  | None -> error st start "unterminated escape sequence"
  | Some c ->
      advance st;
      (match c with
      | 'n' -> '\n'
      | 't' -> '\t'
      | 'r' -> '\r'
      | '0' -> '\000'
      | '\\' -> '\\'
      | '\'' -> '\''
      | '"' -> '"'
      | c -> error st start "unknown escape sequence \\%c" c)

let lex_char st =
  let start = current_pos st in
  advance st;
  let c =
    match peek st with
    | None -> error st start "unterminated character literal"
    | Some '\\' ->
        advance st;
        lex_escape st start
    | Some c ->
        advance st;
        c
  in
  (match peek st with
  | Some '\'' -> advance st
  | Some _ | None -> error st start "unterminated character literal");
  Token.CHAR_LIT c

let lex_string st =
  let start = current_pos st in
  advance st;
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st start "unterminated string literal"
    | Some '"' -> advance st
    | Some '\\' ->
        advance st;
        Buffer.add_char b (lex_escape st start);
        go ()
    | Some c ->
        advance st;
        Buffer.add_char b c;
        go ()
  in
  go ();
  Token.STRING_LIT (Buffer.contents b)

(** Lex one token.  Assumes trivia has been skipped and end of input not
    reached. *)
let lex_token st =
  let c = Option.get (peek st) in
  let c2 = peek2 st in
  let one tok =
    advance st;
    tok
  in
  let two tok =
    advance st;
    advance st;
    tok
  in
  let three tok =
    advance st;
    advance st;
    advance st;
    tok
  in
  let open Token in
  if is_ident_start c then lex_ident st
  else if is_digit c then lex_number st
  else
    match (c, c2) with
    | '\'', _ -> lex_char st
    | '"', _ -> lex_string st
    | '{', Some '|' -> two LMETA
    | '|', Some '}' -> two RMETA
    | '$', Some '$' -> two DOLLARDOLLAR
    | '$', _ -> one DOLLAR
    | ':', Some ':' -> two COLONCOLON
    | '`', _ -> one BACKQUOTE
    | '@', _ -> one AT
    | '{', _ -> one LBRACE
    | '}', _ -> one RBRACE
    | '(', _ -> one LPAREN
    | ')', _ -> one RPAREN
    | '[', _ -> one LBRACKET
    | ']', _ -> one RBRACKET
    | ';', _ -> one SEMI
    | ',', _ -> one COMMA
    | ':', _ -> one COLON
    | '?', _ -> one QUESTION
    | '.', Some '.' when st.pos + 2 < st.len && st.src.[st.pos + 2] = '.' ->
        three ELLIPSIS
    | '.', _ -> one DOT
    | '-', Some '>' -> two ARROW
    | '-', Some '-' -> two MINUSMINUS
    | '-', Some '=' -> two MINUS_ASSIGN
    | '-', _ -> one MINUS
    | '+', Some '+' -> two PLUSPLUS
    | '+', Some '=' -> two PLUS_ASSIGN
    | '+', _ -> one PLUS
    | '*', Some '=' -> two STAR_ASSIGN
    | '*', _ -> one STAR
    | '/', Some '=' -> two SLASH_ASSIGN
    | '/', _ -> one SLASH
    | '%', Some '=' -> two PERCENT_ASSIGN
    | '%', _ -> one PERCENT
    | '&', Some '&' -> two ANDAND
    | '&', Some '=' -> two AMP_ASSIGN
    | '&', _ -> one AMP
    | '|', Some '|' -> two OROR
    | '|', Some '=' -> two BAR_ASSIGN
    | '|', _ -> one BAR
    | '^', Some '=' -> two CARET_ASSIGN
    | '^', _ -> one CARET
    | '~', _ -> one TILDE
    | '!', Some '=' -> two NE
    | '!', _ -> one BANG
    | '<', Some '<' ->
        if st.pos + 2 < st.len && st.src.[st.pos + 2] = '=' then
          three SHL_ASSIGN
        else two SHL
    | '<', Some '=' -> two LE
    | '<', _ -> one LT
    | '>', Some '>' ->
        if st.pos + 2 < st.len && st.src.[st.pos + 2] = '=' then
          three SHR_ASSIGN
        else two SHR
    | '>', Some '=' -> two GE
    | '>', _ -> one GT
    | '=', Some '=' -> two EQEQ
    | '=', _ -> one ASSIGN
    | c, _ ->
        let start = current_pos st in
        error st start "unexpected character %C" c

(** [tokenize ?origin ?source ?reject_reserved text] lexes [text] into an
    array of located tokens terminated by a single [EOF] token.

    @param origin expansion provenance stamped onto every token location
    (default [Loc.User]).  Pass a [Loc.Macro] frame when the text being
    lexed was produced by a macro expansion, so tokens — and through
    them every AST node the parser builds, including the placeholder
    tokens standing for splices — carry the invocation backtrace.
    @param reject_reserved reject identifiers that collide with generated
    (gensym) names; used when lexing user programs so that hygiene by
    generated names is sound. *)
let tokenize ?(origin = Loc.User) ?(source = "<string>")
    ?(reject_reserved = false) text : Token.located array =
  let st =
    { src = text; len = String.length text; source_name = source; pos = 0;
      line = 1; bol = 0; reject_reserved }
  in
  let with_origin loc =
    match origin with Loc.User -> loc | o -> Loc.set_origin loc o
  in
  let acc = ref [] in
  let rec go () =
    skip_trivia st;
    if st.pos >= st.len then
      acc :=
        { Token.tok = Token.EOF;
          loc = with_origin (loc_from st (current_pos st)) }
        :: !acc
    else begin
      let start = current_pos st in
      let tok = lex_token st in
      acc := { Token.tok; loc = with_origin (loc_from st start) } :: !acc;
      go ()
    end
  in
  go ();
  Array.of_list (List.rev !acc)
