(** The parser: hand-written recursive descent at the declaration and
    statement levels, bottom-up (precedence climbing) at the expression
    level — the architecture of the paper's §3.

    Context sensitivity is handled the way the paper prescribes: typedef
    names are tracked in scoped tables; macro names are "macro keywords"
    whose invocations are parsed pattern-directed and placed according
    to the macro's declared type; placeholders inside templates are
    parsed co-routine style into typed placeholder tokens whose AST
    types drive template disambiguation (Figures 2-3). *)

open Ms2_syntax
open Ast
module Mtype = Ms2_mtype.Mtype
module Sort = Ms2_mtype.Sort
module Tenv = Ms2_typing.Tenv

(** {1 Grammar entry points on a parser state} *)

val parse_expr : State.t -> expr
val parse_assignment : State.t -> expr
val parse_statement : State.t -> stmt
val parse_compound : State.t -> stmt
val parse_declaration : State.t -> top:bool -> decl
val parse_macro_def : State.t -> macro_def
val parse_template : State.t -> template
val parse_invocation : State.t -> State.macro_sig -> invocation
val parse_node : State.t -> Sort.t -> node
val parse_by_pspec : State.t -> pspec -> actual
val parse_program : State.t -> program

(** {1 String entry points} *)

val program_of_string :
  ?macros:State.macro_sig Ms2_support.Smap.t ref ->
  ?tenv:Tenv.t ->
  ?source:string ->
  ?reject_reserved:bool ->
  string ->
  program

val expr_of_string :
  ?macros:State.macro_sig Ms2_support.Smap.t ref ->
  ?tenv:Tenv.t ->
  ?source:string ->
  string ->
  expr

val meta_expr_of_string :
  ?macros:State.macro_sig Ms2_support.Smap.t ref ->
  ?tenv:Tenv.t ->
  ?source:string ->
  string ->
  expr
(** Parse an expression of the *meta* language (templates, placeholders
    and anonymous functions are live); [tenv] supplies the types of meta
    variables that placeholders may mention. *)

val stmt_of_string :
  ?macros:State.macro_sig Ms2_support.Smap.t ref ->
  ?tenv:Tenv.t ->
  ?source:string ->
  string ->
  stmt

val decl_of_string :
  ?macros:State.macro_sig Ms2_support.Smap.t ref ->
  ?tenv:Tenv.t ->
  ?source:string ->
  string ->
  decl
