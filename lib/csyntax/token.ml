(** Tokens of the extended language: C plus the paper's seven meta-tokens
    ([{|], [|}], [$$], [$], [::], [`] and [@]). *)

type keyword =
  | Kauto | Kbreak | Kcase | Kchar | Kconst | Kcontinue | Kdefault | Kdo
  | Kdouble | Kelse | Kenum | Kextern | Kfloat | Kfor | Kgoto | Kif | Kint
  | Klong | Kregister | Kreturn | Kshort | Ksigned | Ksizeof | Kstatic
  | Kstruct | Kswitch | Ktypedef | Kunion | Kunsigned | Kvoid | Kvolatile
  | Kwhile
  (* meta keywords *)
  | Ksyntax  (** introduces a macro definition *)
  | Kmetadcl  (** introduces a meta declaration *)

type t =
  | IDENT of string
  | INT_LIT of int * string  (** value and original spelling *)
  | FLOAT_LIT of float * string  (** value and original spelling *)
  | CHAR_LIT of char
  | STRING_LIT of string
  | KW of keyword
  (* punctuation *)
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | SEMI | COMMA | COLON | QUESTION | ELLIPSIS
  | DOT | ARROW
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | PLUSPLUS | MINUSMINUS
  | AMP | BAR | CARET | TILDE | BANG
  | LT | GT | LE | GE | EQEQ | NE
  | ANDAND | OROR
  | SHL | SHR
  | ASSIGN | PLUS_ASSIGN | MINUS_ASSIGN | STAR_ASSIGN | SLASH_ASSIGN
  | PERCENT_ASSIGN | SHL_ASSIGN | SHR_ASSIGN | AMP_ASSIGN | CARET_ASSIGN
  | BAR_ASSIGN
  (* meta tokens *)
  | LMETA  (** left meta-brace: open-brace bar *)
  | RMETA  (** right meta-brace: bar close-brace *)
  | DOLLAR  (** [$] *)
  | DOLLARDOLLAR  (** [$$] *)
  | COLONCOLON  (** [::] *)
  | BACKQUOTE  (** [`] *)
  | AT  (** [@] *)
  | EOF

let keyword_table : (string * keyword) list =
  [ ("auto", Kauto); ("break", Kbreak); ("case", Kcase); ("char", Kchar);
    ("const", Kconst); ("continue", Kcontinue); ("default", Kdefault);
    ("do", Kdo); ("double", Kdouble); ("else", Kelse); ("enum", Kenum);
    ("extern", Kextern); ("float", Kfloat); ("for", Kfor); ("goto", Kgoto);
    ("if", Kif); ("int", Kint); ("long", Klong); ("register", Kregister);
    ("return", Kreturn); ("short", Kshort); ("signed", Ksigned);
    ("sizeof", Ksizeof); ("static", Kstatic); ("struct", Kstruct);
    ("switch", Kswitch); ("typedef", Ktypedef); ("union", Kunion);
    ("unsigned", Kunsigned); ("void", Kvoid); ("volatile", Kvolatile);
    ("while", Kwhile); ("syntax", Ksyntax); ("metadcl", Kmetadcl) ]

(* The lexer consults this on every identifier, so it is a hashtable
   rather than a 34-entry assoc scan. *)
let keyword_lookup : (string, keyword) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (name, kw) -> Hashtbl.replace tbl name kw) keyword_table;
  tbl

let keyword_of_string s = Hashtbl.find_opt keyword_lookup s

let keyword_names : (keyword, string) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (name, kw) -> Hashtbl.replace tbl kw name) keyword_table;
  tbl

let keyword_name kw =
  match Hashtbl.find_opt keyword_names kw with
  | Some name -> name
  | None -> assert false

(** Concrete spelling of a token, used by the pretty-printer for pattern
    "buzz tokens" and by error messages. *)
let to_string = function
  | IDENT s -> s
  | INT_LIT (_, text) | FLOAT_LIT (_, text) -> text
  | CHAR_LIT c -> Printf.sprintf "'%s'" (Char.escaped c)
  | STRING_LIT s -> Printf.sprintf "%S" s
  | KW kw -> keyword_name kw
  | LPAREN -> "(" | RPAREN -> ")" | LBRACE -> "{" | RBRACE -> "}"
  | LBRACKET -> "[" | RBRACKET -> "]" | SEMI -> ";" | COMMA -> ","
  | COLON -> ":" | QUESTION -> "?" | ELLIPSIS -> "..." | DOT -> "."
  | ARROW -> "->" | PLUS -> "+" | MINUS -> "-" | STAR -> "*" | SLASH -> "/"
  | PERCENT -> "%" | PLUSPLUS -> "++" | MINUSMINUS -> "--" | AMP -> "&"
  | BAR -> "|" | CARET -> "^" | TILDE -> "~" | BANG -> "!" | LT -> "<"
  | GT -> ">" | LE -> "<=" | GE -> ">=" | EQEQ -> "==" | NE -> "!="
  | ANDAND -> "&&" | OROR -> "||" | SHL -> "<<" | SHR -> ">>"
  | ASSIGN -> "=" | PLUS_ASSIGN -> "+=" | MINUS_ASSIGN -> "-="
  | STAR_ASSIGN -> "*=" | SLASH_ASSIGN -> "/=" | PERCENT_ASSIGN -> "%="
  | SHL_ASSIGN -> "<<=" | SHR_ASSIGN -> ">>=" | AMP_ASSIGN -> "&="
  | CARET_ASSIGN -> "^=" | BAR_ASSIGN -> "|="
  | LMETA -> "{|" | RMETA -> "|}" | DOLLAR -> "$" | DOLLARDOLLAR -> "$$"
  | COLONCOLON -> "::" | BACKQUOTE -> "`" | AT -> "@"
  | EOF -> "<eof>"

(** Token equality for pattern matching of invocation "buzz tokens".
    Literal tokens compare by value; [IDENT]s by spelling.  The physical
    fast path covers the shared constant constructors. *)
let equal (a : t) (b : t) =
  a == b
  || (match (a, b) with
     | IDENT x, IDENT y -> String.equal x y
     | _ -> a = b)

let pp ppf t = Fmt.string ppf (to_string t)
