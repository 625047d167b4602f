(** Regeneration of the paper's figures.

    - {!figure2}: the four parses of the code template [`[int $y;]] as
      the AST type of [y] ranges over init-declarator list,
      init-declarator, declarator and identifier (paper Figure 2);
    - {!figure3}: the four parses of [`{int x; $ph1 $ph2 return(x);}]
      over the (decl, stmt) type combinations of the two placeholders,
      including the syntactically illegal (stmt, decl) case (Figure 3);
    - {!figure1}: the two-dimensional categorization of macro systems,
      demonstrated live by running the same workload through the
      token-substitution baseline ([ms2.cpp]) and through MS². *)

open Ms2_support
module Mtype = Ms2_mtype.Mtype
module Sort = Ms2_mtype.Sort
module Tenv = Ms2_typing.Tenv
module Parser = Ms2_parser.Parser
module Ast = Ms2_syntax.Ast
module Sexp = Ms2_syntax.Sexp

(* ------------------------------------------------------------------ *)
(* Figure 2                                                            *)
(* ------------------------------------------------------------------ *)

(** Parse the template under a typing of its placeholders and return the
    paper-style s-expression of the resulting tree, or the diagnostic
    when the parse is illegal. *)
let parse_template_with (bindings : (string * Mtype.t) list) (text : string) :
    (Ast.template, string) result =
  let tenv = Tenv.create () in
  List.iter (fun (n, ty) -> Tenv.add tenv n ty) bindings;
  match Parser.meta_expr_of_string ~tenv text with
  | { Ast.e = Ast.E_backquote t; _ } -> Ok t
  | _ -> Error "not a template"
  | exception Diag.Error d -> Error (Diag.to_string d)

let figure2_types : (string * Mtype.t) list =
  [ ("init-declarator[]", Mtype.List (Mtype.Ast Sort.Init_declarator));
    ("init-declarator", Mtype.Ast Sort.Init_declarator);
    ("declarator", Mtype.Ast Sort.Declarator);
    ("identifier", Mtype.Ast Sort.Id) ]

let figure2_template = "`[int $y;]"

(** Rows of Figure 2: (AST type of y, parse). *)
let figure2 () : (string * string) list =
  List.map
    (fun (name, ty) ->
      let parse =
        match parse_template_with [ ("y", ty) ] figure2_template with
        | Ok (Ast.T_decl d) -> Sexp.decl_to_string d
        | Ok _ -> "unexpected template kind"
        | Error e -> e
      in
      (name, parse))
    figure2_types

(* ------------------------------------------------------------------ *)
(* Figure 3                                                            *)
(* ------------------------------------------------------------------ *)

let figure3_template = "`{int x; $ph1 $ph2 return(x);}"

let figure3_combinations : (string * Mtype.t * string * Mtype.t) list =
  let d = Mtype.Ast Sort.Decl and s = Mtype.Ast Sort.Stmt in
  [ ("decl", d, "decl", d);
    ("decl", d, "stmt", s);
    ("stmt", s, "stmt", s);
    ("stmt", s, "decl", d) ]

(** Rows of Figure 3: (type of ph1, type of ph2, parse or error). *)
let figure3 () : (string * string * string) list =
  List.map
    (fun (n1, t1, n2, t2) ->
      let parse =
        match
          parse_template_with [ ("ph1", t1); ("ph2", t2) ] figure3_template
        with
        | Ok (Ast.T_stmt s) -> Sexp.stmt_to_string s
        | Ok _ -> "unexpected template kind"
        | Error _ -> "Syntactically Illegal Program"
      in
      (n1, n2, parse))
    figure3_combinations

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)
(* ------------------------------------------------------------------ *)

(** The character-level hazard witness: with [RE] defined as [x], blind
    character substitution corrupts the unrelated identifier [CORE] —
    why macro processors moved from characters to tokens. *)
let char_witness () : string =
  let c = Ms2_cpp.Charsub.create () in
  Ms2_cpp.Charsub.define c "RE" "x";
  Ms2_cpp.Charsub.expand_string c "int CORE = RE;"

(** The encapsulation witness, run through the token-substitution
    baseline: [MUL(A, B) = A * B] applied to [x + y] and [m + n]. *)
let cpp_witness () : string =
  let cpp = Ms2_cpp.Cpp.create () in
  Ms2_cpp.Cpp.define_function cpp "MUL" [ "A"; "B" ]
    (Ms2_cpp.Cpp.tokenize "A * B");
  Ms2_cpp.Cpp.expand_string cpp "MUL(x + y, m + n)"

(** The same workload through MS²: substitution happens at the tree
    level, and the pretty-printer reinserts the parentheses that the
    trees imply. *)
let ms2_witness () : string =
  let engine = Engine.create ~cache:false () in
  let prog =
    Engine.expand_source engine
      "syntax exp MUL {| ( $$exp::a , $$exp::b ) |} { return `($a * $b); }\n\
       int witness = MUL(x + y, m + n);"
  in
  match prog with
  | [ { Ast.d = Ast.Decl_plain (_, [ Ast.Init_decl (_, Some (Ast.I_expr e)) ]); _ } ] ->
      Ms2_syntax.Pretty.expr_to_string e
  | _ -> "unexpected expansion"

type fig1_row = {
  programmability : string;
  character : string;
  token : string;
  syntax : string;
  semantic : string;
}

(** The paper's two-dimensional categorization (Figure 1).  MS² is the
    syntax-based, fully programmable entry — this repository. *)
let figure1_table : fig1_row list =
  [ { programmability = "Full Programming Language";
      character = "GPM";
      token = "360 Assembler";
      syntax = "MS2 (this repo: ms2.core)";
      semantic = "Maddox" };
    { programmability = "Repetition";
      character = "Pre-ANSI CPP (this repo: Charsub)";
      token = "ANSI CPP (this repo: ms2.cpp)";
      syntax = "Hygienic Macros";
      semantic = "" };
    { programmability = "Substitution";
      character = "";
      token = "";
      syntax = "Vidart";
      semantic = "" } ]

(** Figures 1–3 as text: the one printer behind [ms2c figures] and
    [bench/main.exe figures]. *)
let to_text () : string =
  let b = Buffer.create 2048 in
  let pr fmt = Printf.bprintf b fmt in
  let rule title = pr "\n%s\n%s\n" title (String.make 72 '-') in
  rule "Figure 1: two-dimensional categorization of macro systems";
  pr "  %-28s %-14s %-30s %-26s %s\n" "Programmability \\ Basis" "Character"
    "Token" "Syntax" "Semantic";
  List.iter
    (fun r ->
      pr "  %-28s %-14s %-30s %-26s %s\n" r.programmability r.character
        r.token r.syntax r.semantic)
    figure1_table;
  pr "\n  Live witnesses:\n";
  pr
    "    character substitution (RE = x on \"int CORE = RE;\"):\n\
    \      %s   <- corrupts the unrelated identifier\n"
    (char_witness ());
  pr "    MUL(A, B) = A * B on A = x + y, B = m + n:\n";
  pr "      token substitution (ms2.cpp): %s   <- wrong parse\n"
    (cpp_witness ());
  pr "      syntax macros (ms2.core):     %s   <- tree-level safety\n"
    (ms2_witness ());
  rule "Figure 2: parses of the template `[int $y;] by the AST type of y";
  pr "  %-20s %s\n" "AST type of y" "Parse";
  List.iter (fun (ty, parse) -> pr "  %-20s %s\n" ty parse) (figure2 ());
  rule
    "Figure 3: parses of `{int x; $ph1 $ph2 return(x);} by placeholder \
     types";
  pr "  %-6s %-6s %s\n" "ph1" "ph2" "Parse";
  List.iter
    (fun (t1, t2, parse) -> pr "  %-6s %-6s %s\n" t1 t2 parse)
    (figure3 ());
  Buffer.contents b
