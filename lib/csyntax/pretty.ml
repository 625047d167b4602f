(** C renderer: AST back to concrete C, in one walk over a [Buffer].

    Two modes:
    - default mode prints meta constructs too (placeholders as [$(e)],
      templates with backquotes, ...), which is used for diagnostics and
      for displaying macro definitions;
    - [strict] mode raises {!Meta_residue} on any meta construct, which
      the expansion engine uses to guarantee its output is pure C.

    The walk writes explicit two-space indentation and never wraps, so
    a construct prints the same wherever it sits.  It counts output
    lines as it writes them and records, for each one, the location of
    the construct that produced it: that is the source map, and with
    [line_directives] the same bookkeeping interleaves [#line]
    directives.

    Expression printing is precedence-aware and re-parses to the same
    AST (property tests in [test/test_props.ml] check this). *)

open Ast
module Loc = Ms2_support.Loc
module Json = Ms2_support.Json

exception Meta_residue of string

type mode = { strict : bool }

let relaxed = { strict = false }
let strict = { strict = true }

(* ------------------------------------------------------------------ *)
(* Precedence                                                          *)
(* ------------------------------------------------------------------ *)

let binop_prec = function
  | Mul | Div | Mod -> 13
  | Add | Sub -> 12
  | Shl | Shr -> 11
  | Lt | Gt | Le | Ge -> 10
  | Eq | Ne -> 9
  | Band -> 8
  | Bxor -> 7
  | Bor -> 6
  | Logand -> 5
  | Logor -> 4

let expr_prec = function
  | E_comma _ -> 1
  | E_assign _ -> 2
  | E_cond _ -> 3
  | E_binary (op, _, _) -> binop_prec op
  | E_cast _ -> 14
  | E_unary _ | E_sizeof_expr _ | E_sizeof_type _ -> 15
  | E_call _ | E_index _ | E_member _ | E_arrow _ | E_postincr _
  | E_postdecr _ ->
      16
  | E_ident _ | E_const _ | E_backquote _ | E_lambda _ | E_splice _
  | E_macro _ ->
      17

let unop_str = function
  | Neg -> "-"
  | Plus -> "+"
  | Lognot -> "!"
  | Bitnot -> "~"
  | Deref -> "*"
  | Addr -> "&"
  | Preincr -> "++"
  | Predecr -> "--"

let binop_str = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Shl -> "<<" | Shr -> ">>"
  | Lt -> "<" | Gt -> ">" | Le -> "<=" | Ge -> ">="
  | Eq -> "==" | Ne -> "!="
  | Band -> "&" | Bxor -> "^" | Bor -> "|"
  | Logand -> "&&" | Logor -> "||"

let assignop_str = function
  | A_eq -> "=" | A_add -> "+=" | A_sub -> "-=" | A_mul -> "*="
  | A_div -> "/=" | A_mod -> "%=" | A_shl -> "<<=" | A_shr -> ">>="
  | A_band -> "&=" | A_bxor -> "^=" | A_bor -> "|="

let constant_str = function
  | Cint (_, text) | Cfloat (_, text) -> text
  | Cchar c -> Printf.sprintf "'%s'" (Char.escaped c)
  | Cstring s -> Printf.sprintf "%S" s

(* ------------------------------------------------------------------ *)
(* Writer state                                                        *)
(* ------------------------------------------------------------------ *)

type result = { text : string; map : Loc.t array }

type st = {
  buf : Buffer.t;
  mode : mode;
  line_directives : bool;
  mutable line_start : int;  (** buffer offset of the current line *)
  mutable loc : Loc.t;  (** producer of the current line *)
  mutable lines : int;  (** lines ended so far *)
  mutable locs : Loc.t array;  (** [locs.(i)]: producer of line [i + 1] *)
  mutable presumed : (string * int) option;
      (** where the C compiler believes it is — [Some (file, line)]
          after a [#line] directive, advanced by every line; [None]
          before any directive *)
}

let create ?(line_directives = false) mode =
  { buf = Buffer.create 256; mode; line_directives;
    line_start = 0; loc = Loc.dummy; lines = 0; locs = [||];
    presumed = None }

let residue st what = if st.mode.strict then raise (Meta_residue what)
let str st s = Buffer.add_string st.buf s
let col st = Buffer.length st.buf - st.line_start

(** End the current line, attributing it to [st.loc]. *)
let newline st =
  Buffer.add_char st.buf '\n';
  st.line_start <- Buffer.length st.buf;
  let n = st.lines in
  if n = Array.length st.locs then begin
    let grown = Array.make (max 16 (2 * n)) Loc.dummy in
    Array.blit st.locs 0 grown 0 n;
    st.locs <- grown
  end;
  st.locs.(n) <- st.loc;
  st.lines <- n + 1;
  match st.presumed with
  | Some (f, l) -> st.presumed <- Some (f, l + 1)
  | None -> ()

let indent st n =
  for _ = 1 to n do
    Buffer.add_char st.buf ' '
  done

let nl st n =
  newline st;
  indent st n

(** At the start of a line: attribute the lines that follow to [loc],
    and with [line_directives] point the C compiler at [loc]'s
    outermost user-written span ({!Loc.root}) unless it already
    presumes to be there.  Unknown locations emit no directive. *)
let attribute st (loc : Loc.t) =
  st.loc <- loc;
  if st.line_directives then begin
    let r = Loc.root loc in
    let want = (r.Loc.source, r.Loc.start_pos.Loc.line) in
    if (not (Loc.is_dummy r)) && st.presumed <> Some want then begin
      Printf.bprintf st.buf "#line %d \"%s\"" (snd want)
        (Json.escape (fst want));
      newline st;
      st.presumed <- Some want
    end
  end

let list st sep f = function
  | [] -> ()
  | x :: xs -> f x; List.iter (fun x -> str st sep; f x) xs

let opt f = function Some x -> f x | None -> ()

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let rec expr st min_prec e =
  let paren = expr_prec e.e < min_prec in
  if paren then str st "(";
  (match e.e with
  | E_ident id -> str st id.id_name
  | E_const c -> str st (constant_str c)
  | E_call (f, args) ->
      expr st 16 f; str st "("; list st ", " (expr st 2) args; str st ")"
  | E_index (a, i) -> expr st 16 a; str st "["; expr st 0 i; str st "]"
  | E_member (e, f) -> expr st 16 e; str st "."; id_or_splice st f
  | E_arrow (e, f) -> expr st 16 e; str st "->"; id_or_splice st f
  | E_postincr e -> expr st 16 e; str st "++"
  | E_postdecr e -> expr st 16 e; str st "--"
  | E_unary (op, e) ->
      str st (unop_str op);
      (* avoid gluing "- -x" into "--x", "+ +x" into "++x", and
         "& &x" into "&&x": a space keeps the lexer from max-munching
         the two operators into one token *)
      (match (op, e.e) with
      | Neg, E_unary ((Neg | Predecr), _)
      | Plus, E_unary ((Plus | Preincr), _)
      | Addr, E_unary (Addr, _) -> str st " "
      | _, _ -> ());
      expr st 15 e
  | E_cast (ct, e) -> str st "("; ctype st ct; str st ")"; expr st 14 e
  | E_sizeof_expr e -> str st "sizeof("; expr st 0 e; str st ")"
  | E_sizeof_type ct -> str st "sizeof("; ctype st ct; str st ")"
  | E_binary (op, a, b) ->
      let p = binop_prec op in
      (* left-associative: right operand needs higher precedence *)
      expr st p a; str st " "; str st (binop_str op); str st " ";
      expr st (p + 1) b
  | E_cond (c, t, e) ->
      expr st 4 c; str st " ? "; expr st 2 t; str st " : "; expr st 3 e
  | E_assign (op, l, r) ->
      (* C restricts assignment targets to unary-expressions *)
      expr st 15 l; str st " "; str st (assignop_str op); str st " ";
      expr st 2 r
  | E_comma (a, b) -> expr st 1 a; str st ", "; expr st 2 b
  | E_backquote t -> residue st "backquote template"; template st t
  | E_lambda (params, body) ->
      residue st "anonymous meta function";
      str st "("; list st ", " (param st) params; str st "; ";
      expr st 2 body; str st ")"
  | E_splice sp -> splice st sp
  | E_macro inv -> residue st "macro invocation"; invocation st inv);
  if paren then str st ")"

and id_or_splice st = function
  | Ii_id id -> str st id.id_name
  | Ii_splice sp -> splice st sp

and splice st sp =
  residue st "placeholder";
  match sp.sp_expr.e with
  | E_ident id -> str st "$"; str st id.id_name
  | _ -> str st "$("; expr st 0 sp.sp_expr; str st ")"

and invocation st inv =
  let rec actual = function
    | Act_node n -> node st n
    | Act_list l -> str st "["; list st ", " actual l; str st "]"
    | Act_tuple fields ->
        str st "(";
        list st ", " (fun (n, a) -> str st n; str st "="; actual a) fields;
        str st ")"
  in
  str st inv.inv_name.id_name;
  str st "<<";
  list st ", " (fun (name, a) -> str st name; str st ": "; actual a)
    inv.inv_actuals;
  str st ">>"

and node st = function
  | N_id id -> str st id.id_name
  | N_exp e -> expr st 0 e
  | N_num c -> str st (constant_str c)
  | N_stmt s -> stmt st s
  | N_decl d -> decl st d
  | N_typespec specs -> spec_list st specs
  | N_declarator d -> declarator st 0 d
  | N_init_declarator d -> init_declarator st d
  | N_param p -> param st p
  | N_enumerator e -> enumerator st e

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

and spec st = function
  | S_void -> str st "void"
  | S_char -> str st "char"
  | S_int -> str st "int"
  | S_float -> str st "float"
  | S_double -> str st "double"
  | S_short -> str st "short"
  | S_long -> str st "long"
  | S_signed -> str st "signed"
  | S_unsigned -> str st "unsigned"
  | S_named id -> str st id.id_name
  | S_enum es ->
      str st "enum";
      opt (fun t -> str st " "; id_or_splice st t) es.enum_tag;
      let items l = str st " {"; list st ", " (enumerator st) l; str st "}" in
      opt items es.enum_items
  | S_struct (tag, fields) -> struct_or_union st "struct" tag fields
  | S_union (tag, fields) -> struct_or_union st "union" tag fields
  | S_typedef -> str st "typedef"
  | S_extern -> str st "extern"
  | S_static -> str st "static"
  | S_auto -> str st "auto"
  | S_register -> str st "register"
  | S_const -> str st "const"
  | S_volatile -> str st "volatile"
  | S_ast sort ->
      residue st "AST type specifier";
      str st "@"; str st (Ms2_mtype.Sort.keyword sort)
  | S_splice sp -> splice st sp

and spec_list st specs = list st " " (spec st) specs

and enumerator st = function
  | Enum_item (id, None) -> id_or_splice st id
  | Enum_item (id, Some e) -> id_or_splice st id; str st " = "; expr st 2 e
  | Enum_splice sp -> splice st sp

and struct_or_union st kw tag fields =
  str st kw;
  opt (fun t -> str st " "; id_or_splice st t) tag;
  let field f =
    spec_list st f.f_specs; str st " ";
    list st ", " (declarator st 0) f.f_declarators; str st ";"
  in
  opt (fun fields -> str st " { "; list st " " field fields; str st " }") fields

(* Declarator printing uses the standard inside-out algorithm: pointers
   bind less tightly than array/function suffixes, so a pointer applied
   to an array or function declarator needs parentheses. *)
and declarator st min_prec = function
  | D_ident id -> str st id.id_name
  | D_abstract -> ()
  | D_splice sp -> splice st sp
  | D_pointer d ->
      if min_prec > 0 then str st "(";
      str st "*"; declarator st 0 d;
      if min_prec > 0 then str st ")"
  | D_array (d, size) ->
      declarator st 1 d; str st "["; opt (expr st 0) size; str st "]"
  | D_func (d, params) ->
      declarator st 1 d; str st "("; list st ", " (param st) params;
      str st ")"

and param st = function
  | P_decl (specs, d) -> ctype st { ct_specs = specs; ct_decl = d }
  | P_name id -> str st id.id_name
  | P_ellipsis -> str st "..."
  | P_splice sp -> splice st sp

and ctype st ct =
  spec_list st ct.ct_specs;
  match ct.ct_decl with
  | D_abstract -> ()
  | d -> str st " "; declarator st 0 d

and init_declarator st = function
  | Init_decl (d, None) -> declarator st 0 d
  | Init_decl (d, Some i) -> declarator st 0 d; str st " = "; init st i
  | Init_splice sp -> splice st sp

and init st = function
  | I_expr e -> expr st 2 e
  | I_list items -> str st "{"; list st ", " (init st) items; str st "}"

(* [top]: a declaration of the program itself.  A top-level function
   attributes its lines piecewise — header, each K&R declaration, the
   body braces, each block item — so lines produced by different
   invocations carry different provenance. *)
and decl ?(top = false) st d =
  match d.d with
  | Decl_plain (specs, decls) ->
      spec_list st specs;
      if decls <> [] then str st " ";
      list st ", " (init_declarator st) decls;
      str st ";"
  | Decl_fun (specs, dr, kr, body) ->
      let c = col st in
      let track = top && match body.s with St_compound _ -> true | _ -> false in
      if specs <> [] then (spec_list st specs; str st " ");
      declarator st 0 dr;
      List.iter
        (fun kd ->
          newline st;
          if track then attribute st kd.dloc;
          indent st c;
          decl st kd)
        kr;
      newline st;
      if track then attribute st body.sloc;
      indent st c;
      stmt ~track st body
  | Decl_metadcl d -> residue st "metadcl"; str st "metadcl "; decl st d
  | Decl_macro_def md ->
      residue st "macro definition";
      let c = col st in
      str st "syntax "; str st (Ms2_mtype.Mtype.to_string md.m_ret);
      str st " "; id_or_splice st md.m_name;
      str st " {| "; pattern st md.m_pattern; str st " |}";
      nl st c;
      stmt st md.m_body
  | Decl_splice sp -> splice st sp
  | Decl_macro inv -> residue st "macro invocation"; invocation st inv

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

(* [track]: the body of a top-level function (see {!decl}). *)
and stmt ?(track = false) st s =
  let c = col st in
  match s.s with
  | St_expr e -> expr st 0 e; str st ";"
  | St_compound items ->
      str st "{";
      if items = [] then nl st (c + 2);
      List.iter
        (fun item ->
          newline st;
          if track then
            attribute st
              (match item with Bi_decl d -> d.dloc | Bi_stmt s -> s.sloc);
          indent st (c + 2);
          match item with Bi_decl d -> decl st d | Bi_stmt s -> stmt st s)
        items;
      newline st;
      if track then attribute st s.sloc;
      indent st c;
      str st "}"
  | St_if (e, t, f) ->
      head st "if" e;
      sub st c t;
      opt (fun f -> nl st c; str st "else"; sub st c f) f
  | St_while (e, body) -> head st "while" e; sub st c body
  | St_do (body, e) ->
      str st "do"; sub st c body; nl st c; head st "while" e; str st ";"
  | St_for (i, cond, step, body) ->
      str st "for ("; opt (expr st 0) i;
      str st "; "; opt (expr st 0) cond;
      str st "; "; opt (expr st 0) step;
      str st ")"; sub st c body
  | St_switch (e, body) -> head st "switch" e; sub st c body
  | St_case (e, s) -> str st "case "; expr st 0 e; str st ":"; sub st c s
  | St_default s -> str st "default:"; sub st c s
  | St_return None -> str st "return;"
  | St_return (Some e) -> str st "return "; expr st 0 e; str st ";"
  | St_break -> str st "break;"
  | St_continue -> str st "continue;"
  | St_goto id -> str st "goto "; str st id.id_name; str st ";"
  | St_label (id, s) -> str st id.id_name; str st ":"; nl st c; stmt st s
  | St_null -> str st ";"
  | St_splice sp -> splice st sp
  | St_macro inv -> residue st "macro invocation"; invocation st inv

(* a substatement goes on its own line, two columns in *)
and sub st c s = nl st (c + 2); stmt st s
and head st kw e = str st kw; str st " ("; expr st 0 e; str st ")"

(* ------------------------------------------------------------------ *)
(* Meta constructs (relaxed mode only: strict raises before reaching   *)
(* them)                                                               *)
(* ------------------------------------------------------------------ *)

and template st = function
  | T_exp e -> str st "`("; expr st 0 e; str st ")"
  | T_stmt s -> str st "`{"; stmt st s; str st "}"
  | T_decl d -> str st "`["; decl st d; str st "]"
  | T_general (ps, a) ->
      let rec actual = function
        | Act_node n -> node st n
        | Act_list l -> list st " " actual l
        | Act_tuple fs -> list st " " (fun (_, a) -> actual a) fs
      in
      str st "`{|"; pspec st ps; str st " :: "; actual a; str st "|}"

and pspec st = function
  | Ps_sort s -> str st (Ms2_mtype.Sort.keyword s)
  | Ps_plus (sep, p) -> repeat st "+" "/" sep p
  | Ps_star (sep, p) -> repeat st "*" "/" sep p
  | Ps_opt (sep, p) -> repeat st "?" "" sep p
  | Ps_tuple pat -> str st ".("; pattern st pat; str st ")"

and repeat st op sep_mark sep p =
  str st op;
  opt
    (fun tok -> str st sep_mark; str st (Token.to_string tok); str st " ")
    sep;
  pspec st p

and pattern st pat =
  list st " "
    (function
      | Pe_token tok -> str st (Token.to_string tok)
      | Pe_binder b ->
          str st "$$"; pspec st b.b_spec;
          str st " :: "; str st b.b_name.id_name)
    pat

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let render mode f x =
  let st = create mode in
  f st x;
  Buffer.contents st.buf

let expr_to_string ?(mode = relaxed) e = render mode (fun st -> expr st 0) e
let stmt_to_string ?(mode = relaxed) s = render mode (fun st -> stmt st) s
let decl_to_string ?(mode = relaxed) d = render mode (fun st -> decl st) d
let node_to_string ?(mode = relaxed) n = render mode node n

let walk ?line_directives mode (prog : program) =
  let st = create ?line_directives mode in
  (* the empty program is a lone newline, not a line of C *)
  if prog = [] then Buffer.add_char st.buf '\n';
  List.iteri
    (fun i d ->
      if i > 0 then begin
        (* the blank separator belongs to no construct *)
        st.loc <- Loc.dummy;
        newline st
      end;
      attribute st d.dloc;
      decl ~top:true st d;
      newline st)
    prog;
  st

let program ?line_directives prog =
  let st = walk ?line_directives strict prog in
  { text = Buffer.contents st.buf; map = Array.sub st.locs 0 st.lines }

let program_to_string ?(mode = relaxed) prog =
  Buffer.contents (walk mode prog).buf

(* ------------------------------------------------------------------ *)
(* Source-map serialization                                            *)
(* ------------------------------------------------------------------ *)

let loc_fields (loc : Loc.t) =
  if Loc.is_dummy loc then
    {|"source":null,"line":null,"col":null,"end_line":null,"end_col":null|}
  else
    Printf.sprintf
      {|"source":"%s","line":%d,"col":%d,"end_line":%d,"end_col":%d|}
      (Json.escape loc.Loc.source)
      loc.Loc.start_pos.Loc.line loc.Loc.start_pos.Loc.col
      loc.Loc.end_pos.Loc.line loc.Loc.end_pos.Loc.col

let entry_to_json out_line loc =
  let frame f =
    Printf.sprintf {|{"macro":"%s",%s}|}
      (Json.escape f.Loc.macro)
      (loc_fields f.Loc.call_site)
  in
  Printf.sprintf {|{"out_line":%d,%s,"stack":[%s]}|} out_line
    (loc_fields loc)
    (String.concat "," (List.map frame (Loc.backtrace loc)))

let sourcemap_to_string (map : Loc.t array) : string =
  Array.to_list map
  |> List.mapi (fun i loc -> entry_to_json (i + 1) loc ^ "\n")
  |> String.concat ""
