(** Parser state.

    The parser is fully re-entrant, as the paper requires: all state
    lives in a {!t} value, and nested parses share only the macro
    signature/compiled-parser tables and the meta type environment they
    were given.  The record is exposed because the grammar module
    ([Parser]) and the engine drive it directly. *)

open Ms2_syntax
open Ms2_support
module Mtype = Ms2_mtype.Mtype
module Tenv = Ms2_typing.Tenv

(** What the parser needs to know about a defined macro in order to
    parse its invocations. *)
type macro_sig = { sig_ret : Mtype.t; sig_pattern : Ast.pattern }

type t = {
  mutable compile_patterns : bool;
      (** compile each macro's pattern to a specialized parse routine at
          definition time (paper §3's suggested acceleration) *)
  stream : Lexer.stream;
  toks : Token.t array;  (** [stream.toks] *)
  mutable pos : int;
  mutable loc_pos : int;
  mutable loc_memo : Loc.t;
      (** the location {!loc} built last, for token [loc_pos] *)
  mutable typedef_scopes : (string, unit) Hashtbl.t list;
  macros : macro_sig Smap.t ref;
      (** the signatures in force; the ref is shared with the engine,
          which rolls back by storing an earlier map into it *)
  tenv : Tenv.t;
  mutable in_template : bool;  (** placeholders are live *)
  mutable in_meta : bool;  (** templates, lambdas, meta decls are live *)
  mutable ph_cache : (int * (Ast.expr * Mtype.t) * int) option;
      (** the paper's placeholder tokens: (start, parsed+typed, end) *)
  compiled_patterns : compiled_pattern Smap.t ref;
  watchdog : Watchdog.t;
      (** wall-clock deadline, polled on every token consumed *)
}

and compiled_pattern = t -> (string * Ast.actual) list

val create :
  ?macros:macro_sig Smap.t ref ->
  ?tenv:Tenv.t ->
  ?compiled:compiled_pattern Smap.t ref ->
  ?watchdog:Watchdog.t ->
  Lexer.stream ->
  t

val of_string :
  ?origin:Ms2_support.Loc.origin ->
  ?macros:macro_sig Smap.t ref ->
  ?tenv:Tenv.t ->
  ?compiled:compiled_pattern Smap.t ref ->
  ?watchdog:Watchdog.t ->
  ?source:string ->
  ?reject_reserved:bool ->
  string ->
  t
(** [?origin] is forwarded to {!Ms2_syntax.Lexer.scan}: provenance
    carried by every token (and thus AST) location. *)

(** {1 Token access} *)

val peek : t -> Token.t
val peek_ahead : t -> int -> Token.t

val loc : t -> Loc.t
(** The current token's location, built on first request and kept until
    the parser asks at another token. *)

val advance : t -> unit

val error : t -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise a [Parsing]-phase diagnostic at the current token. *)

val expect : t -> Token.t -> unit
val accept : t -> Token.t -> bool
val expect_ident : t -> Ast.ident

(** {1 Typedef scopes} *)

val push_typedef_scope : t -> unit
val pop_typedef_scope : t -> unit
val with_typedef_scope : t -> (unit -> 'a) -> 'a
val add_typedef : t -> string -> unit
val is_typedef_name : t -> string -> bool

(** {1 Macro table} *)

val find_macro : t -> string -> macro_sig option
val is_macro : t -> string -> bool
val register_macro : t -> string -> macro_sig -> unit

(** {1 Mode switches} *)

val save_modes : t -> bool * bool
val restore_modes : t -> bool * bool -> unit

val in_template_mode : t -> (unit -> 'a) -> 'a
(** Object code inside a backquote. *)

val in_meta_mode : t -> (unit -> 'a) -> 'a
(** Macro bodies and placeholder expressions. *)
