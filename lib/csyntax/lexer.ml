(** Hand-written lexer for the extended language.

    Produces the whole token stream up front (the parser does arbitrary
    lookahead on the resulting array, and the paper's placeholder-token
    mechanism is implemented parser-side).  The stream is compact: the
    tokens in one array, each token's span and line in unboxed int
    arrays, and a table of line starts.  A token's {!Loc.t} is built only
    when asked for ({!loc}); most tokens never need one.

    Meta-tokens are recognized by adjacency: [{|], [|}], [$$] and [::]
    are single tokens only when the characters are contiguous.  None of
    these sequences is valid C, so lexing them unconditionally does not
    change the C fragment of the language. *)

open Ms2_support

type stream = {
  toks : Token.t array;
  starts : int array;
  stops : int array;
  lines : int array;
  line_starts : int array;
  source : string;
  origin : Loc.origin;
}

(* The scan appends to over-allocated arrays and trims them once at the
   end.  [n] tokens are recorded; the four token arrays share one
   capacity. *)
type state = {
  src : string;
  len : int;  (** [String.length src], hoisted out of the scan loops *)
  source_name : string;
  mutable pos : int;  (** byte offset *)
  reject_reserved : bool;
  mutable toks : Token.t array;
  mutable starts : int array;
  mutable stops : int array;
  mutable lines : int array;
  mutable n : int;
  mutable line_starts : int array;
  mutable n_lines : int;  (** the current line, 1-based *)
}

(* Line (1-based) of [offset], given the first [n] line starts. *)
let line_of (line_starts : int array) n offset =
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if line_starts.(mid) <= offset then lo := mid else hi := mid - 1
  done;
  !lo + 1

let pos_at line_starts n offset : Loc.pos =
  let line = line_of line_starts n offset in
  { line; col = offset - line_starts.(line - 1); offset }

let error st start fmt =
  Format.kasprintf
    (fun message ->
      let loc =
        Loc.make ~source:st.source_name
          ~start_pos:(pos_at st.line_starts st.n_lines start)
          ~end_pos:(pos_at st.line_starts st.n_lines st.pos)
      in
      raise (Diag.Error (Diag.make ~loc Diag.Lexing message)))
    fmt

let grow a dummy =
  let b = Array.make (2 * Array.length a + 16) dummy in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Step over the newline at [pos]. *)
let newline st =
  if st.n_lines = Array.length st.line_starts then
    st.line_starts <- grow st.line_starts 0;
  st.line_starts.(st.n_lines) <- st.pos + 1;
  st.n_lines <- st.n_lines + 1;
  st.pos <- st.pos + 1

(* Step over [src.[pos]], which may be a newline. *)
let advance st =
  if String.unsafe_get st.src st.pos = '\n' then newline st
  else st.pos <- st.pos + 1

(* The byte [k] places ahead, or ['\000'] past the end: callers compare
   it only against other characters, so a NUL in the source reads the
   same as the end. *)
let at st k =
  let i = st.pos + k in
  if i < st.len then String.unsafe_get st.src i else '\000'

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

(* The end of the run of identifier characters, digits, hex digits or
   integer-suffix letters from [i]: tail calls over the index, which
   stays in a register. *)
let rec ident_end src len i =
  if i >= len then i
  else
    match String.unsafe_get src i with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ident_end src len (i + 1)
    | _ -> i

let rec digits_end src len i =
  if i < len && is_digit (String.unsafe_get src i) then
    digits_end src len (i + 1)
  else i

let rec hex_end src len i =
  if i < len && is_hex (String.unsafe_get src i) then hex_end src len (i + 1)
  else i

let rec int_suffix_end src len i =
  if i >= len then i
  else
    match String.unsafe_get src i with
    | 'u' | 'U' | 'l' | 'L' -> int_suffix_end src len (i + 1)
    | _ -> i

let rec skip_trivia st =
  if st.pos < st.len then
    match String.unsafe_get st.src st.pos with
    | ' ' | '\t' | '\r' ->
        st.pos <- st.pos + 1;
        skip_trivia st
    | '\n' ->
        newline st;
        skip_trivia st
    | '/' when at st 1 = '*' ->
        let start = st.pos in
        st.pos <- st.pos + 2;
        while
          if st.pos >= st.len then error st start "unterminated comment"
          else not (String.unsafe_get st.src st.pos = '*' && at st 1 = '/')
        do
          advance st
        done;
        st.pos <- st.pos + 2;
        skip_trivia st
    | '/' when at st 1 = '/' ->
        while st.pos < st.len && String.unsafe_get st.src st.pos <> '\n' do
          st.pos <- st.pos + 1
        done;
        skip_trivia st
    | _ -> ()

let lex_ident st =
  let start = st.pos in
  st.pos <- ident_end st.src st.len start;
  (* Intern the spelling: a session lexes the same names thousands of
     times, and canonical copies make every later equality/hash cheap. *)
  let name = Intern.canon (String.sub st.src start (st.pos - start)) in
  if st.reject_reserved && Gensym.is_reserved name then
    error st start
      "identifier %S uses the reserved generated-name marker %S" name
      Gensym.reserved_marker;
  match Token.keyword_of_string name with
  | Some kw -> Token.KW kw
  | None -> Token.IDENT name

let lex_number st =
  let start = st.pos in
  let is_float = ref false in
  if at st 0 = '0' && (at st 1 = 'x' || at st 1 = 'X') then begin
    st.pos <- st.pos + 2;
    if not (is_hex (at st 0)) then error st start "malformed hexadecimal literal";
    st.pos <- hex_end st.src st.len st.pos
  end
  else begin
    st.pos <- digits_end st.src st.len st.pos;
    (* fractional part: "1.5" but not "1.m" (member access) or "1..." *)
    if at st 0 = '.' && is_digit (at st 1) then begin
      is_float := true;
      st.pos <- digits_end st.src st.len (st.pos + 1)
    end;
    (* exponent *)
    match at st 0 with
    | ('e' | 'E')
      when (match at st 1 with
           | '0' .. '9' | '+' | '-' -> true
           | _ -> false) ->
        is_float := true;
        st.pos <- st.pos + 1;
        (match at st 0 with '+' | '-' -> st.pos <- st.pos + 1 | _ -> ());
        if not (is_digit (at st 0)) then error st start "malformed exponent";
        st.pos <- digits_end st.src st.len st.pos
    | _ -> ()
  end;
  if !is_float then begin
    (* float suffixes *)
    let suffix =
      match at st 0 with
      | 'f' | 'F' | 'l' | 'L' ->
          st.pos <- st.pos + 1;
          1
      | _ -> 0
    in
    let text = String.sub st.src start (st.pos - start) in
    let digits =
      if suffix = 0 then text
      else String.sub st.src start (st.pos - start - suffix)
    in
    match float_of_string_opt digits with
    | Some v -> Token.FLOAT_LIT (v, text)
    | None -> error st start "malformed floating-point literal %S" text
  end
  else begin
    (* integer suffixes, consumed into the spelling *)
    let core = st.pos in
    st.pos <- int_suffix_end st.src st.len core;
    let text = String.sub st.src start (st.pos - start) in
    (* the value ignores the suffix letters; the common literal has
       none, and [text] itself is already the digits *)
    let digits =
      if core = st.pos then text else String.sub st.src start (core - start)
    in
    match int_of_string_opt digits with
    | Some v -> Token.INT_LIT (v, text)
    | None -> error st start "integer literal %S out of range" text
  end

let lex_escape st start =
  if st.pos >= st.len then error st start "unterminated escape sequence";
  let c = String.unsafe_get st.src st.pos in
  advance st;
  match c with
  | 'n' -> '\n'
  | 't' -> '\t'
  | 'r' -> '\r'
  | '0' -> '\000'
  | '\\' -> '\\'
  | '\'' -> '\''
  | '"' -> '"'
  | c -> error st start "unknown escape sequence \\%c" c

let lex_char st =
  let start = st.pos in
  st.pos <- st.pos + 1;
  if st.pos >= st.len then error st start "unterminated character literal";
  let c = String.unsafe_get st.src st.pos in
  advance st;
  let c = if c = '\\' then lex_escape st start else c in
  if st.pos < st.len && String.unsafe_get st.src st.pos = '\'' then
    st.pos <- st.pos + 1
  else error st start "unterminated character literal";
  Token.CHAR_LIT c

let lex_string st =
  let start = st.pos in
  st.pos <- st.pos + 1;
  let b = Buffer.create 16 in
  let rec go () =
    if st.pos >= st.len then error st start "unterminated string literal";
    match String.unsafe_get st.src st.pos with
    | '"' -> st.pos <- st.pos + 1
    | '\\' ->
        st.pos <- st.pos + 1;
        Buffer.add_char b (lex_escape st start);
        go ()
    | c ->
        advance st;
        Buffer.add_char b c;
        go ()
  in
  go ();
  Token.STRING_LIT (Buffer.contents b)

let one st tok =
  st.pos <- st.pos + 1;
  tok

let two st tok =
  st.pos <- st.pos + 2;
  tok

let three st tok =
  st.pos <- st.pos + 3;
  tok

(** Lex one token.  Assumes trivia has been skipped and end of input not
    reached. *)
let lex_token st =
  let c = String.unsafe_get st.src st.pos in
  let open Token in
  if is_ident_start c then lex_ident st
  else if is_digit c then lex_number st
  else
    match (c, at st 1) with
    | '\'', _ -> lex_char st
    | '"', _ -> lex_string st
    | '{', '|' -> two st LMETA
    | '|', '}' -> two st RMETA
    | '$', '$' -> two st DOLLARDOLLAR
    | '$', _ -> one st DOLLAR
    | ':', ':' -> two st COLONCOLON
    | '`', _ -> one st BACKQUOTE
    | '@', _ -> one st AT
    | '{', _ -> one st LBRACE
    | '}', _ -> one st RBRACE
    | '(', _ -> one st LPAREN
    | ')', _ -> one st RPAREN
    | '[', _ -> one st LBRACKET
    | ']', _ -> one st RBRACKET
    | ';', _ -> one st SEMI
    | ',', _ -> one st COMMA
    | ':', _ -> one st COLON
    | '?', _ -> one st QUESTION
    | '.', '.' when at st 2 = '.' -> three st ELLIPSIS
    | '.', _ -> one st DOT
    | '-', '>' -> two st ARROW
    | '-', '-' -> two st MINUSMINUS
    | '-', '=' -> two st MINUS_ASSIGN
    | '-', _ -> one st MINUS
    | '+', '+' -> two st PLUSPLUS
    | '+', '=' -> two st PLUS_ASSIGN
    | '+', _ -> one st PLUS
    | '*', '=' -> two st STAR_ASSIGN
    | '*', _ -> one st STAR
    | '/', '=' -> two st SLASH_ASSIGN
    | '/', _ -> one st SLASH
    | '%', '=' -> two st PERCENT_ASSIGN
    | '%', _ -> one st PERCENT
    | '&', '&' -> two st ANDAND
    | '&', '=' -> two st AMP_ASSIGN
    | '&', _ -> one st AMP
    | '|', '|' -> two st OROR
    | '|', '=' -> two st BAR_ASSIGN
    | '|', _ -> one st BAR
    | '^', '=' -> two st CARET_ASSIGN
    | '^', _ -> one st CARET
    | '~', _ -> one st TILDE
    | '!', '=' -> two st NE
    | '!', _ -> one st BANG
    | '<', '<' -> if at st 2 = '=' then three st SHL_ASSIGN else two st SHL
    | '<', '=' -> two st LE
    | '<', _ -> one st LT
    | '>', '>' -> if at st 2 = '=' then three st SHR_ASSIGN else two st SHR
    | '>', '=' -> two st GE
    | '>', _ -> one st GT
    | '=', '=' -> two st EQEQ
    | '=', _ -> one st ASSIGN
    | c, _ -> error st st.pos "unexpected character %C" c

let push st tok ~start ~line =
  if st.n = Array.length st.toks then begin
    st.toks <- grow st.toks Token.EOF;
    st.starts <- grow st.starts 0;
    st.stops <- grow st.stops 0;
    st.lines <- grow st.lines 0
  end;
  let i = st.n in
  st.toks.(i) <- tok;
  st.starts.(i) <- start;
  st.stops.(i) <- st.pos;
  st.lines.(i) <- line;
  st.n <- i + 1

(** [scan ?origin ?source ?reject_reserved text] lexes [text] into a
    stream terminated by a single [EOF] token.  See the interface. *)
let scan ?(origin = Loc.User) ?(source = "<string>") ?(reject_reserved = false)
    text : stream =
  let len = String.length text in
  (* C averages a few bytes a token; one doubling covers a dense file *)
  let cap = (len / 4) + 16 in
  let st =
    { src = text; len; source_name = source; pos = 0; reject_reserved;
      toks = Array.make cap Token.EOF; starts = Array.make cap 0;
      stops = Array.make cap 0; lines = Array.make cap 0; n = 0;
      line_starts = Array.make ((len / 32) + 16) 0; n_lines = 1 }
  in
  skip_trivia st;
  while st.pos < st.len do
    let start = st.pos and line = st.n_lines in
    let tok = lex_token st in
    push st tok ~start ~line;
    skip_trivia st
  done;
  push st Token.EOF ~start:st.pos ~line:st.n_lines;
  (* [toks] and [line_starts] are trimmed: their lengths are the token
     and line counts.  The other arrays are only read below the token
     count, so they stay at capacity *)
  { toks = Array.sub st.toks 0 st.n; starts = st.starts; stops = st.stops;
    lines = st.lines; line_starts = Array.sub st.line_starts 0 st.n_lines;
    source; origin }

let tokenize ?reject_reserved text = (scan ?reject_reserved text).toks

(* A string or character literal may hold a raw newline, so a token can
   end on a later line than it starts. *)
let loc (s : stream) i : Loc.t =
  let line = s.lines.(i) and start = s.starts.(i) and stop = s.stops.(i) in
  let end_line = ref line in
  while
    !end_line < Array.length s.line_starts
    && s.line_starts.(!end_line) <= stop
  do
    incr end_line
  done;
  let pos line offset =
    { Loc.line; col = offset - s.line_starts.(line - 1); offset }
  in
  { Loc.source = s.source; start_pos = pos line start;
    end_pos = pos !end_line stop; known = true; origin = s.origin }
