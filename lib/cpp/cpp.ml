(** A CPP-style token-substitution macro baseline.

    This is the comparison point of the paper's Figure 1: an ANSI-CPP
    style processor that operates on token streams, supporting object
    macros ([#define N tokens]) and function macros
    ([#define F(a, b) tokens]), with the standard self-reference guard
    (a macro name is not re-expanded inside its own expansion).

    It exhibits, by construction, the failure mode syntax macros
    eliminate: substituting [x + y] and [m + n] for [A] and [B] in
    [A * B] yields the token string [x + y * m + n], which parses as
    [x + (y * m) + n] — the paper's encapsulation-failure example, and
    the reason CPP macro writers are told to parenthesize everything.

    Tokens reuse {!Ms2_syntax.Token}; macros are defined through the API
    (no [#define] line parsing — the point of the baseline is expansion
    behavior, not directive syntax). *)

open Ms2_syntax
open Ms2_support

type macro =
  | Object of Token.t list
  | Function of string list * Token.t list  (** parameters, body *)

type t = { table : (string, macro) Hashtbl.t }

let create () = { table = Hashtbl.create 16 }

let define_object t name body = Hashtbl.replace t.table name (Object body)

let define_function t name params body =
  Hashtbl.replace t.table name (Function (params, body))

let define t name ~params body =
  match params with
  | None -> define_object t name body
  | Some ps -> define_function t name ps body

let error fmt = Diag.error Diag.Expansion fmt

(** [tokenize text] lexes [text] to a plain token list (no locations, no
    EOF marker), for building macro bodies conveniently. *)
let tokenize (text : string) : Token.t list =
  Lexer.tokenize text |> Array.to_list
  |> List.filter (function Token.EOF -> false | _ -> true)

(** Split a function-macro argument list.  [toks] starts after the
    opening parenthesis; returns the comma-separated argument token
    lists (at depth 0) and the tokens after the closing parenthesis. *)
let split_args (toks : Token.t list) : Token.t list list * Token.t list =
  let rec go depth current acc toks =
    match toks with
    | [] -> error "unterminated macro argument list"
    | Token.RPAREN :: rest when depth = 0 ->
        (List.rev (List.rev current :: acc), rest)
    | Token.COMMA :: rest when depth = 0 ->
        go 0 [] (List.rev current :: acc) rest
    | (Token.LPAREN as tok) :: rest -> go (depth + 1) (tok :: current) acc rest
    | (Token.RPAREN as tok) :: rest -> go (depth - 1) (tok :: current) acc rest
    | tok :: rest -> go depth (tok :: current) acc rest
  in
  go 0 [] [] toks

(** Expand a token list.  [hide] is the set of macro names currently
    being expanded (the self-reference guard). *)
let rec expand_tokens t ~hide (toks : Token.t list) : Token.t list =
  match toks with
  | [] -> []
  | Token.IDENT name :: rest when not (List.mem name hide) -> (
      match Hashtbl.find_opt t.table name with
      | Some (Object body) ->
          expand_tokens t ~hide:(name :: hide) body
          @ expand_tokens t ~hide rest
      | Some (Function (params, body)) -> (
          match rest with
          | Token.LPAREN :: after ->
              let args, rest = split_args after in
              if List.length args <> List.length params then
                error "macro %s expects %d arguments, got %d" name
                  (List.length params) (List.length args);
              (* arguments are pre-expanded, as ANSI CPP does *)
              let args = List.map (expand_tokens t ~hide) args in
              let bound = List.combine params args in
              let substituted =
                List.concat_map
                  (function
                    | Token.IDENT p when List.mem_assoc p bound ->
                        List.assoc p bound
                    | tok -> [ tok ])
                  body
              in
              expand_tokens t ~hide:(name :: hide) substituted
              @ expand_tokens t ~hide rest
          | _ ->
              (* function macro without arguments: left alone, like CPP *)
              Token.IDENT name :: expand_tokens t ~hide rest)
      | None -> Token.IDENT name :: expand_tokens t ~hide rest)
  | tok :: rest -> tok :: expand_tokens t ~hide rest

let expand t (toks : Token.t list) : Token.t list =
  expand_tokens t ~hide:[] toks

(** Expand a source string and render the resulting token stream. *)
let expand_string t (text : string) : string =
  expand t (tokenize text) |> List.map Token.to_string |> String.concat " "
