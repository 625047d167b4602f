(** Lexer unit tests: token recognition, adjacency-sensitive meta tokens,
    literals, comments, locations and error cases. *)

open Ms2_syntax

let toks src =
  Lexer.tokenize src |> Array.to_list
  |> List.filter (function Token.EOF -> false | _ -> true)

let tok = Alcotest.testable (Fmt.of_to_string Token.to_string) Token.equal

let check_toks name src expected =
  Alcotest.(check (list tok)) name expected (toks src)

let lex_error src =
  match Lexer.tokenize src with
  | exception Ms2_support.Diag.Error d ->
      Alcotest.(check bool) "phase" true (d.phase = Ms2_support.Diag.Lexing)
  | _ -> Alcotest.fail "expected a lexical error"

open Token

let basic () =
  check_toks "idents and ints" "foo bar42 7 0x1f"
    [ IDENT "foo"; IDENT "bar42"; INT_LIT (7, "7"); INT_LIT (31, "0x1f") ];
  check_toks "keywords" "int return sizeof syntax metadcl"
    [ KW Kint; KW Kreturn; KW Ksizeof; KW Ksyntax; KW Kmetadcl ];
  check_toks "suffixed int" "10UL" [ INT_LIT (10, "10UL") ]

let floats () =
  check_toks "simple float" "1.5" [ FLOAT_LIT (1.5, "1.5") ];
  check_toks "exponent" "2e3" [ FLOAT_LIT (2000., "2e3") ];
  check_toks "signed exponent" "1.5e-2" [ FLOAT_LIT (0.015, "1.5e-2") ];
  check_toks "float suffix" "1.0f" [ FLOAT_LIT (1.0, "1.0f") ];
  (* member access on an integer literal is not a float *)
  check_toks "int then dot" "1 .m" [ INT_LIT (1, "1"); DOT; IDENT "m" ];
  check_toks "paren int member" "(1).m"
    [ LPAREN; INT_LIT (1, "1"); RPAREN; DOT; IDENT "m" ];
  (* a float literal re-parses through expressions *)
  let d = Tutil.pdecl "double x = 1.25e2;" in
  Tutil.check_contains ~msg:"printed float"
    (Tutil.print_decl d) "1.25e2"

let operators () =
  check_toks "compound ops" "<<= >>= ... -> ++ -- && || == != <= >="
    [ SHL_ASSIGN; SHR_ASSIGN; ELLIPSIS; ARROW; PLUSPLUS; MINUSMINUS; ANDAND;
      OROR; EQEQ; NE; LE; GE ];
  check_toks "shift vs relational" "a << b < c >> d"
    [ IDENT "a"; SHL; IDENT "b"; LT; IDENT "c"; SHR; IDENT "d" ];
  check_toks "assign ops" "= += -= *= /= %= &= ^= |="
    [ ASSIGN; PLUS_ASSIGN; MINUS_ASSIGN; STAR_ASSIGN; SLASH_ASSIGN;
      PERCENT_ASSIGN; AMP_ASSIGN; CARET_ASSIGN; BAR_ASSIGN ]

let meta_tokens () =
  check_toks "meta braces" "{| |}" [ LMETA; RMETA ];
  check_toks "dollars" "$ $$ $x"
    [ DOLLAR; DOLLARDOLLAR; DOLLAR; IDENT "x" ];
  check_toks "colons" ":: : ::" [ COLONCOLON; COLON; COLONCOLON ];
  check_toks "backquote and at" "`( @stmt"
    [ BACKQUOTE; LPAREN; AT; IDENT "stmt" ];
  (* adjacency: separated characters lex as ordinary C tokens *)
  check_toks "separated braces" "{ | | }"
    [ LBRACE; BAR; BAR; RBRACE ];
  check_toks "bar-brace adjacency" "a|}b"
    [ IDENT "a"; RMETA; IDENT "b" ]

let literals () =
  check_toks "string" "\"hello\"" [ STRING_LIT "hello" ];
  check_toks "string escapes" "\"a\\n\\t\\\"b\\\\\""
    [ STRING_LIT "a\n\t\"b\\" ];
  check_toks "char" "'x'" [ CHAR_LIT 'x' ];
  check_toks "char escape" "'\\n'" [ CHAR_LIT '\n' ];
  check_toks "char quote" "'\\''" [ CHAR_LIT '\'' ]

let comments () =
  check_toks "block comment" "a /* b c */ d" [ IDENT "a"; IDENT "d" ];
  check_toks "line comment" "a // b c\nd" [ IDENT "a"; IDENT "d" ];
  check_toks "comment with stars" "a /* * ** */ b" [ IDENT "a"; IDENT "b" ];
  check_toks "division not comment" "a / b" [ IDENT "a"; SLASH; IDENT "b" ]

module Loc = Ms2_support.Loc

let locations () =
  let s = Lexer.scan ~source:"t.c" "ab\n  cd" in
  let second = Lexer.loc s 1 in
  Alcotest.(check string) "token" "cd" (Token.to_string s.Lexer.toks.(1));
  Alcotest.(check int) "line" 2 second.Loc.start_pos.line;
  Alcotest.(check int) "col" 2 second.Loc.start_pos.col;
  Alcotest.(check string) "source" "t.c" second.Loc.source

let eof_marker () =
  let toks = Lexer.tokenize "x" in
  Alcotest.(check int) "two tokens" 2 (Array.length toks);
  Alcotest.(check bool) "last is eof" true (toks.(1) = Token.EOF)

(* Token [i]'s spelling, then its start and end as [(line, col, offset)]. *)
let span src i =
  let s = Lexer.scan src in
  let l = Lexer.loc s i in
  ( Token.to_string s.Lexer.toks.(i),
    (l.Loc.start_pos.line, l.start_pos.col, l.start_pos.offset),
    (l.end_pos.line, l.end_pos.col, l.end_pos.offset) )

let check_span what src i expected =
  Alcotest.(check (triple string (triple int int int) (triple int int int)))
    what expected (span src i)

(* Columns are bytes from the last newline: a tab is one, and a [\r] of
   a [\r\n] ends the line it is on. *)
let spans_after_trivia () =
  check_span "after a multi-line block comment" "a /* x\n y\n */ b" 1
    ("b", (3, 4, 14), (3, 5, 15));
  check_span "after CRLF line ends" "a\r\n\r\n  c" 1
    ("c", (3, 2, 7), (3, 3, 8));
  check_span "after tabs" "\tx\t\tyy" 1 ("yy", (1, 4, 4), (1, 6, 6));
  check_span "after a line comment" "a // b\n\tc" 1
    ("c", (2, 1, 8), (2, 2, 9))

let spans_of_literals () =
  let src = "x = \"a\\n\\\"b\"; t" in
  check_span "a string with escapes" src 2
    ("\"a\\n\\\"b\"", (1, 4, 4), (1, 12, 12));
  check_span "after a string with escapes" src 4 ("t", (1, 14, 14), (1, 15, 15));
  (* a raw newline inside a literal: the token ends on the next line *)
  let src = "s = \"a\nb\" c" in
  check_span "a string spanning lines" src 2
    ("\"a\\nb\"", (1, 4, 4), (2, 2, 9));
  check_span "after it" src 3 ("c", (2, 3, 10), (2, 4, 11));
  check_span "after a char escape" "'\\n' d" 1 ("d", (1, 5, 5), (1, 6, 6))

let eof_spans () =
  check_span "eof after a token" "x" 1 ("<eof>", (1, 1, 1), (1, 1, 1));
  check_span "eof after a newline" "x\n" 1 ("<eof>", (2, 0, 2), (2, 0, 2));
  check_span "eof after a comment" "x /* c\n */" 1
    ("<eof>", (2, 3, 10), (2, 3, 10));
  check_span "eof of empty input" "" 0 ("<eof>", (1, 0, 0), (1, 0, 0))

(* An origin given to the lexer is the origin of every parsed node. *)
let macro_origin_reaches_nodes () =
  let call_site =
    Loc.make ~source:"user.c"
      ~start_pos:{ Loc.line = 7; col = 2; offset = 40 }
      ~end_pos:{ Loc.line = 7; col = 9; offset = 47 }
  in
  let origin = Loc.Macro { Loc.macro = "m"; call_site } in
  let st =
    Ms2_parser.State.of_string ~origin ~source:"m.out"
      "int f(void) { return y + 1; }"
  in
  let from_m what (l : Loc.t) =
    Alcotest.(check (list string)) (what ^ " backtrace") [ "m" ]
      (List.map (fun f -> f.Loc.macro) (Loc.backtrace l));
    Alcotest.(check string) (what ^ " source") "m.out" l.Loc.source;
    Alcotest.(check string) (what ^ " root") "user.c" (Loc.root l).Loc.source
  in
  match Ms2_parser.Parser.parse_program st with
  | [ ({ Ast.d = Ast.Decl_fun (_, _, _, body); _ } as d) ] -> (
      from_m "declaration" d.Ast.dloc;
      from_m "body" body.Ast.sloc;
      match body.Ast.s with
      | Ast.St_compound [ Ast.Bi_stmt ({ s = St_return (Some e); _ } as r) ] ->
          from_m "return" r.Ast.sloc;
          from_m "expression" e.Ast.eloc
      | _ -> Alcotest.fail "unexpected body")
  | _ -> Alcotest.fail "expected one function"

(* The stream keeps no per-token location, so lexing a large unit
   allocates a handful of minor words per token: the boxed token and
   its spelling.  Arrays this size
   go to the major heap and are not counted. *)
let allocation_per_token () =
  let b = Buffer.create (16000 * 32) in
  for i = 0 to 15999 do
    Printf.bprintf b "int lexalloc_%d_x = %d;\n" i i
  done;
  let text = Buffer.contents b in
  let w0 = Gc.minor_words () in
  let n = Array.length (Lexer.tokenize text) in
  let words = Gc.minor_words () -. w0 in
  let per_token = words /. float_of_int n in
  if per_token > 16. then
    Alcotest.failf "lexing allocated %.1f minor words per token (%d tokens)"
      per_token n

let errors () =
  lex_error "\"unterminated";
  lex_error "'a";
  lex_error "/* unterminated";
  lex_error "#";
  lex_error "'\\q'"

(* reserved gensym-style names are rejected only when asked *)
let reserved () =
  ignore (Lexer.tokenize "x__g1");
  match Lexer.tokenize ~reject_reserved:true "x__g1" with
  | exception Ms2_support.Diag.Error _ -> ()
  | _ -> Alcotest.fail "reserved identifier accepted"

let () =
  ignore errors;
  Alcotest.run "lexer"
    [ ( "lexer",
        [ Tutil.tc "basic tokens" basic;
          Tutil.tc "float literals" floats;
          Tutil.tc "operators" operators;
          Tutil.tc "meta tokens" meta_tokens;
          Tutil.tc "literals" literals;
          Tutil.tc "comments" comments;
          Tutil.tc "locations" locations;
          Tutil.tc "eof marker" eof_marker;
          Tutil.tc "spans after comments, CRLF and tabs" spans_after_trivia;
          Tutil.tc "spans of and after literals" spans_of_literals;
          Tutil.tc "eof spans" eof_spans;
          Tutil.tc "a macro origin reaches parsed nodes"
            macro_origin_reaches_nodes;
          Tutil.tc "minor words per token" allocation_per_token;
          Tutil.tc "lexical errors" errors;
          Tutil.tc "reserved generated names" reserved ] ) ]
