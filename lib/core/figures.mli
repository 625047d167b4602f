(** Regeneration of the paper's figures: the Figure 2 and Figure 3 parse
    tables (verbatim, in the paper's s-expression notation) and Figure
    1's categorization with live witnesses. *)

module Mtype = Ms2_mtype.Mtype

val parse_template_with :
  (string * Mtype.t) list -> string -> (Ms2_syntax.Ast.template, string) result
(** Parse a template under a typing of its placeholders. *)

val figure2_types : (string * Mtype.t) list
val figure2_template : string

val figure2 : unit -> (string * string) list
(** Rows: (AST type of y, parse of [`[int $y;]]). *)

val figure3_template : string
val figure3_combinations : (string * Mtype.t * string * Mtype.t) list

val figure3 : unit -> (string * string * string) list
(** Rows: (type of ph1, type of ph2, parse or "Syntactically Illegal
    Program"). *)

val char_witness : unit -> string
(** [int CORE = RE;] under character substitution with [RE = x]: the
    unrelated identifier is corrupted. *)

val cpp_witness : unit -> string
(** [MUL(x + y, m + n)] through token substitution: mis-parenthesized. *)

val ms2_witness : unit -> string
(** The same through MS²: tree-level substitution. *)

type fig1_row = {
  programmability : string;
  character : string;
  token : string;
  syntax : string;
  semantic : string;
}

val figure1_table : fig1_row list

val to_text : unit -> string
(** Figures 1–3 as text: Figure 1's table and its live witnesses, then
    the Figure 2 and Figure 3 parse tables.  The one printer behind
    [ms2c figures] and [bench/main.exe figures]. *)
