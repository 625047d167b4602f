(** Property-based tests (qcheck): printer/parser round trips, lexer
    round trips, interpreter arithmetic vs. OCaml, gensym freshness,
    expansion identity on macro-free code. *)

open QCheck
module Token = Ms2_syntax.Token
module Lexer = Ms2_syntax.Lexer
module Ast = Ms2_syntax.Ast

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_ident_name =
  Gen.oneofl [ "a"; "b"; "c"; "x"; "yy"; "foo"; "tmp_1" ]

let gen_small_int = Gen.int_range 0 1000

(* Arithmetic-only expressions over literals, for interpreter
   comparison.  Division is generated with a +1 guard on the divisor. *)
type aexp =
  | L of int
  | Add of aexp * aexp
  | Sub of aexp * aexp
  | Mul of aexp * aexp
  | Div of aexp * aexp
  | Neg of aexp
  | Cmp of aexp * aexp

let gen_aexp =
  Gen.sized
    (Gen.fix (fun self n ->
         if n = 0 then Gen.map (fun i -> L i) gen_small_int
         else
           let sub = self (n / 2) in
           Gen.oneof
             [ Gen.map (fun i -> L i) gen_small_int;
               Gen.map2 (fun a b -> Add (a, b)) sub sub;
               Gen.map2 (fun a b -> Sub (a, b)) sub sub;
               Gen.map2 (fun a b -> Mul (a, b)) sub sub;
               Gen.map2 (fun a b -> Div (a, b)) sub sub;
               Gen.map (fun a -> Neg a) sub;
               Gen.map2 (fun a b -> Cmp (a, b)) sub sub ]))

let rec aexp_to_c = function
  | L i -> string_of_int i
  | Add (a, b) -> Printf.sprintf "(%s + %s)" (aexp_to_c a) (aexp_to_c b)
  | Sub (a, b) -> Printf.sprintf "(%s - %s)" (aexp_to_c a) (aexp_to_c b)
  | Mul (a, b) -> Printf.sprintf "(%s * %s)" (aexp_to_c a) (aexp_to_c b)
  | Div (a, b) ->
      (* divisor forced strictly positive; operands are pure, so the
         double evaluation of b is harmless *)
      let bs = aexp_to_c b in
      Printf.sprintf "(%s / ((%s < 0 ? -%s : %s) + 1))" (aexp_to_c a) bs bs
        bs
  | Neg a -> Printf.sprintf "(-%s)" (aexp_to_c a)
  | Cmp (a, b) -> Printf.sprintf "(%s < %s)" (aexp_to_c a) (aexp_to_c b)

let rec aexp_eval = function
  | L i -> i
  | Add (a, b) -> aexp_eval a + aexp_eval b
  | Sub (a, b) -> aexp_eval a - aexp_eval b
  | Mul (a, b) -> aexp_eval a * aexp_eval b
  | Div (a, b) ->
      let d = aexp_eval b in
      aexp_eval a / ((if d < 0 then -d else d) + 1)
  | Neg a -> -aexp_eval a
  | Cmp (a, b) -> if aexp_eval a < aexp_eval b then 1 else 0

(* C surface expressions (as strings), built compositionally so that
   every generated string is valid C. *)
let gen_cexp_string =
  Gen.sized
    (Gen.fix (fun self n ->
         if n = 0 then
           Gen.oneof
             [ gen_ident_name;
               Gen.map string_of_int gen_small_int;
               Gen.oneofl [ "\"str\""; "'c'" ] ]
         else
           let sub = self (n / 2) in
           Gen.oneof
             [ sub;
               Gen.map2 (Printf.sprintf "%s + %s") sub sub;
               Gen.map2 (Printf.sprintf "%s * %s") sub sub;
               Gen.map2 (Printf.sprintf "%s - %s") sub sub;
               Gen.map2 (Printf.sprintf "(%s) / (%s)") sub sub;
               Gen.map2 (Printf.sprintf "%s < %s") sub sub;
               Gen.map2 (Printf.sprintf "%s == %s") sub sub;
               Gen.map2 (Printf.sprintf "%s && %s") sub sub;
               Gen.map (Printf.sprintf "-(%s)") sub;
               Gen.map (Printf.sprintf "!(%s)") sub;
               Gen.map (Printf.sprintf "*(%s)") sub;
               Gen.map (Printf.sprintf "&(%s)") sub;
               Gen.map2 (Printf.sprintf "f(%s, %s)") sub sub;
               Gen.map2 (Printf.sprintf "(%s)[%s]") sub sub;
               Gen.map (Printf.sprintf "(%s).m") sub;
               Gen.map (Printf.sprintf "(%s)->m") sub;
               Gen.map3 (Printf.sprintf "(%s) ? (%s) : (%s)") sub sub sub;
               Gen.map2 (Printf.sprintf "%s = %s" )
                 gen_ident_name sub ]))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* print . parse is idempotent: parse(print(parse(s))) prints the same *)
let prop_print_parse_roundtrip =
  Test.make ~name:"print/parse round trip on expressions" ~count:500
    (make gen_cexp_string)
    (fun src ->
      let e1 = Ms2_parser.Parser.expr_of_string src in
      let p1 = Ms2_syntax.Pretty.expr_to_string e1 in
      let e2 = Ms2_parser.Parser.expr_of_string p1 in
      let p2 = Ms2_syntax.Pretty.expr_to_string e2 in
      p1 = p2)

(* the printed form parses to a structurally identical tree: compare via
   the s-expression rendering, which ignores locations *)
let prop_reparse_preserves_structure =
  Test.make ~name:"re-parsing the printed form preserves structure"
    ~count:500 (make gen_cexp_string) (fun src ->
      let e1 = Ms2_parser.Parser.expr_of_string src in
      let p1 = Ms2_syntax.Pretty.expr_to_string e1 in
      let e2 = Ms2_parser.Parser.expr_of_string p1 in
      Ms2_syntax.Sexp.expr_to_string e1 = Ms2_syntax.Sexp.expr_to_string e2)

(* lexing the space-joined spellings of a token stream gives it back *)
let gen_token =
  Gen.oneof
    [ Gen.map (fun s -> Token.IDENT s) gen_ident_name;
      Gen.map (fun i -> Token.INT_LIT (i, string_of_int i)) gen_small_int;
      Gen.oneofl
        [ Token.LPAREN; Token.RPAREN; Token.LBRACE; Token.RBRACE;
          Token.SEMI; Token.COMMA; Token.PLUS; Token.MINUS; Token.STAR;
          Token.SLASH; Token.LT; Token.GT; Token.LE; Token.GE; Token.EQEQ;
          Token.NE; Token.ANDAND; Token.OROR; Token.ASSIGN; Token.ARROW;
          Token.DOT; Token.AMP; Token.BAR; Token.CARET; Token.BANG;
          Token.QUESTION; Token.COLON; Token.SHL; Token.SHR;
          Token.KW Token.Kint; Token.KW Token.Kreturn; Token.KW Token.Kif;
          Token.LMETA; Token.RMETA; Token.DOLLAR; Token.DOLLARDOLLAR;
          Token.COLONCOLON; Token.BACKQUOTE; Token.AT ] ]

let prop_lexer_roundtrip =
  Test.make ~name:"lexer round trip on spelled-out token streams"
    ~count:500
    (make (Gen.list_size (Gen.int_range 0 30) gen_token))
    (fun toks ->
      let text = String.concat " " (List.map Token.to_string toks) in
      let relexed =
        Lexer.tokenize text |> Array.to_list
        |> List.filter (function Token.EOF -> false | _ -> true)
      in
      relexed = toks)

(* interpreter arithmetic agrees with OCaml *)
let prop_interp_arith =
  Test.make ~name:"meta arithmetic agrees with OCaml" ~count:200
    (make gen_aexp)
    (fun a ->
      let src =
        Printf.sprintf
          "syntax exp calc {| |} { return make_num(%s); }\nint r = calc;"
          (aexp_to_c a)
      in
      match Ms2.Api.expand_string src with
      | Error _ -> false
      | Ok out -> (
          let expected = aexp_eval a in
          match Ms2_parser.Parser.program_of_string out with
          | [ { Ast.d = Ast.Decl_plain
                    (_, [ Ast.Init_decl (_, Some (Ast.I_expr e)) ]); _ } ]
            -> (
              match e.Ast.e with
              | Ast.E_const (Ast.Cint (v, _)) -> v = expected
              | Ast.E_unary
                  (Ast.Neg, { e = Ast.E_const (Ast.Cint (v, _)); _ }) ->
                  -v = expected
              | _ -> false)
          | _ -> false))

(* expanding a macro-free program is the identity (modulo layout) *)
let prop_expand_identity =
  Test.make ~name:"expansion is the identity on macro-free programs"
    ~count:200 (make gen_cexp_string)
    (fun src ->
      let prog = Printf.sprintf "int seed = %s;" src in
      match Ms2.Api.expand_string prog with
      | Error _ -> false
      | Ok out -> Tutil.norm out = Tutil.canon prog)

(* gensym never repeats and is always flagged reserved *)
let prop_gensym =
  Test.make ~name:"gensym freshness and reservedness" ~count:100
    (make (Gen.list_size (Gen.int_range 1 50) gen_ident_name))
    (fun bases ->
      let g = Ms2_support.Gensym.create () in
      let names = List.map (Ms2_support.Gensym.fresh g) bases in
      List.length (List.sort_uniq compare names) = List.length names
      && List.for_all Ms2_support.Gensym.is_reserved names)

(* pattern value types: repetitions and optionals are list-typed *)
let gen_pspec =
  let open Ms2_syntax.Ast in
  Gen.sized
    (Gen.fix (fun self n ->
         let sort =
           Gen.map (fun s -> Ps_sort s) (Gen.oneofl Ms2_mtype.Sort.all)
         in
         if n = 0 then sort
         else
           let sub = self (n / 2) in
           Gen.oneof
             [ sort;
               Gen.map (fun p -> Ps_plus (Some Token.COMMA, p)) sub;
               Gen.map (fun p -> Ps_star (None, p)) sub;
               Gen.map (fun p -> Ps_opt (None, p)) sub ]))

let prop_pspec_types =
  Test.make ~name:"repetition pattern types are lists" ~count:200
    (make gen_pspec)
    (fun ps ->
      let open Ms2_syntax.Ast in
      let ty = pspec_type ps in
      match ps with
      | Ps_plus _ | Ps_star _ | Ps_opt _ -> (
          match ty with Ms2_mtype.Mtype.List _ -> true | _ -> false)
      | Ps_sort s -> Ms2_mtype.Mtype.equal ty (Ms2_mtype.Mtype.Ast s)
      | Ps_tuple _ -> true)

let () =
  let suite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_print_parse_roundtrip;
        prop_reparse_preserves_structure;
        prop_lexer_roundtrip;
        prop_interp_arith;
        prop_expand_identity;
        prop_gensym;
        prop_pspec_types ]
  in
  Alcotest.run "props" [ ("properties", suite) ]
