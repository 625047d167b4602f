(** C renderer: AST back to concrete C, in one [Buffer] walk.

    [strict] mode raises {!Meta_residue} on any meta construct — the
    expansion engine's guarantee that its output is pure C.  The relaxed
    mode prints meta constructs too (placeholders, templates, macro
    definitions), for diagnostics.

    Output is two-space indented and never wrapped.  Expression printing
    is precedence-aware: the printed form re-parses to a structurally
    identical tree. *)

open Ast

exception Meta_residue of string

type mode = { strict : bool }

val relaxed : mode
val strict : mode

(** {1 Token spellings} *)

val unop_str : unop -> string
val binop_str : binop -> string
val constant_str : constant -> string

(** {1 String entry points} *)

val expr_to_string : ?mode:mode -> expr -> string
val stmt_to_string : ?mode:mode -> stmt -> string
val decl_to_string : ?mode:mode -> decl -> string
val node_to_string : ?mode:mode -> node -> string

val program_to_string : ?mode:mode -> program -> string
(** Render a whole program; with {!strict}, meta residue raises
    {!Meta_residue}. *)

(** {1 Provenance: source maps and [#line] directives} *)

type result = {
  text : string;  (** exactly {!program_to_string}[ ~mode:strict], plus
                      any directives *)
  map : Ms2_support.Loc.t array;
      (** the source map: [map.(i)] is the location (expansion chain
          included) of the construct that produced line [i + 1] of
          [text]; dummy for the blank separators between
          declarations *)
}

val program : ?line_directives:bool -> program -> result
(** Render an expanded program (strict mode) with its line-by-line
    source map.  A top-level function's lines are attributed piecewise:
    header, each K&R declaration, body braces, each block item of the
    body — so lines produced by different invocations carry different
    provenance.  With [line_directives] (default false), a [#line]
    directive pointing at a construct's outermost user-written span
    ({!Ms2_support.Loc.root}) precedes it whenever the compiler's
    presumed position would otherwise be wrong; removing the directive
    lines leaves exactly the plain text. *)

val sourcemap_to_string : Ms2_support.Loc.t array -> string
(** One JSON object per line of the map, newline-separated, in line
    order: [{"out_line":N,"source":...,"line":...,"col":...,
    "end_line":...,"end_col":...,"stack":[{"macro":...,...},...]}] with
    the expansion stack innermost-first (same conventions as
    {!Ms2_support.Diag.to_json}). *)
