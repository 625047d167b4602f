(** The parser: hand-written recursive descent at the declaration and
    statement levels, bottom-up (precedence climbing) at the expression
    level — the architecture the paper describes in §3.

    Context sensitivity is handled exactly as the paper prescribes:

    - [typedef] names are tracked in scoped tables and change parses;
    - macro names are "macro keywords": on encountering one, the parser
      parses the invocation according to the macro's pattern, packages it
      up for later expansion, and uses the macro's declared type to
      decide how to continue the parse;
    - placeholders inside templates are parsed co-routine style: the
      [$]-expression is parsed and typed in the meta environment, cached
      as a "placeholder token" ({!State.t.ph_cache}), and its AST type
      guides template disambiguation (Figures 2 and 3 of the paper). *)

open Ms2_syntax
open Ms2_support
open Ast
open State
module Mtype = Ms2_mtype.Mtype
module Sort = Ms2_mtype.Sort
module Tenv = Ms2_typing.Tenv
module Infer = Ms2_typing.Infer
module Of_cdecl = Ms2_typing.Of_cdecl
module Firstset = Ms2_pattern.Firstset
module Determinism = Ms2_pattern.Determinism

(* ------------------------------------------------------------------ *)
(* Placeholder tokens                                                  *)
(* ------------------------------------------------------------------ *)

(* Type predicates used to decide which syntactic positions a
   placeholder may fill. *)
let stmt_like = function
  | Mtype.Ast Sort.Stmt | Mtype.List (Mtype.Ast Sort.Stmt) -> true
  | _ -> false

let decl_like = function
  | Mtype.Ast Sort.Decl | Mtype.List (Mtype.Ast Sort.Decl) -> true
  | _ -> false

let exp_like ty = Mtype.subtype ty (Mtype.Ast Sort.Exp)
let exp_list_like = function
  | Mtype.List t -> Mtype.subtype t (Mtype.Ast Sort.Exp)
  | _ -> false

let typespec_like = function Mtype.Ast Sort.Typespec -> true | _ -> false

let id_like = function Mtype.Ast Sort.Id -> true | _ -> false

let declarator_like = function
  | Mtype.Ast (Sort.Declarator | Sort.Id) -> true
  | _ -> false

let init_declarator_like = function
  | Mtype.Ast Sort.Init_declarator -> true
  | _ -> false

let init_declarator_list_like = function
  | Mtype.List (Mtype.Ast (Sort.Init_declarator | Sort.Declarator | Sort.Id))
    ->
      true
  | _ -> false

let enumerator_like = function
  | Mtype.Ast (Sort.Enumerator | Sort.Id)
  | Mtype.List (Mtype.Ast (Sort.Enumerator | Sort.Id)) ->
      true
  | _ -> false

let param_like = function
  | Mtype.Ast Sort.Param | Mtype.List (Mtype.Ast Sort.Param) -> true
  | _ -> false

(* [peek_placeholder st] implements the paper's placeholder tokens: when
   the next token is [$] inside a template, parse the placeholder
   expression in the meta context, perform AST type analysis on it, and
   cache expression and type without consuming input.  Subsequent parser
   routines look at the cached type to decide whether the placeholder is
   the phrase they are looking for. *)
let rec peek_placeholder st : (expr * Mtype.t) option =
  if (not st.in_template) || peek st <> Token.DOLLAR then None
  else
    match st.ph_cache with
    | Some (start, parsed, _) when start = st.pos -> Some parsed
    | _ ->
        let start = st.pos in
        let start_loc = loc st in
        advance st (* over $ *);
        let e =
          in_meta_mode st (fun () ->
              match peek st with
              | Token.IDENT name ->
                  let l = loc st in
                  advance st;
                  mk_expr ~loc:l (E_ident { id_name = name; id_loc = l })
              | Token.LPAREN ->
                  advance st;
                  let e = parse_expr st in
                  expect st Token.RPAREN;
                  e
              | tok ->
                  error st
                    "expected an identifier or a parenthesized expression \
                     after $, found %S"
                    (Token.to_string tok))
        in
        let ty = Infer.type_of st.tenv e in
        let stop = st.pos in
        st.pos <- start;
        st.ph_cache <- Some (start, (e, ty), stop);
        ignore start_loc;
        Some (e, ty)

(** Does the next token begin a placeholder whose type satisfies [pred]? *)
and placeholder_matches st pred =
  match peek_placeholder st with
  | Some (_, ty) -> pred ty
  | None -> false

(** Consume a placeholder; [pred] must accept its type (checked by the
    caller via {!placeholder_matches} or here with [what] naming the
    expected position). *)
and take_placeholder st ~what pred : splice =
  let start_loc = loc st in
  match peek_placeholder st with
  | None -> error st "expected a placeholder"
  | Some (e, ty) ->
      if not (pred ty) then
        Diag.error ~loc:start_loc Diag.Type_check
          "placeholder of type %s cannot stand for %s" (Mtype.to_string ty)
          what;
      (match st.ph_cache with
      | Some (start, _, stop) when start = st.pos -> st.pos <- stop
      | _ -> assert false);
      { sp_expr = e; sp_type = ty; sp_depth = 1; sp_loc = start_loc }

(* ------------------------------------------------------------------ *)
(* Lookahead classification                                            *)
(* ------------------------------------------------------------------ *)

and starts_typename st =
  match peek st with
  | Token.KW
      ( Token.Kvoid | Token.Kchar | Token.Kint | Token.Kfloat | Token.Kdouble
      | Token.Kshort | Token.Klong | Token.Ksigned | Token.Kunsigned
      | Token.Kenum | Token.Kstruct | Token.Kunion | Token.Kconst
      | Token.Kvolatile ) ->
      true
  | Token.AT -> true
  | Token.IDENT name -> is_typedef_name st name
  | Token.DOLLAR -> placeholder_matches st typespec_like
  | _ -> false

and starts_declaration st =
  match peek st with
  | Token.KW
      ( Token.Ktypedef | Token.Kextern | Token.Kstatic | Token.Kauto
      | Token.Kregister | Token.Kmetadcl | Token.Ksyntax ) ->
      true
  | Token.IDENT name when is_macro st name ->
      (* a macro keyword opens a declaration iff the macro returns one *)
      (match find_macro st name with
      | Some msig -> decl_like msig.sig_ret
      | None -> false)
  | Token.DOLLAR ->
      placeholder_matches st (fun ty -> decl_like ty || typespec_like ty)
  | _ -> starts_typename st

(* ------------------------------------------------------------------ *)
(* Expressions (bottom-up precedence parsing)                          *)
(* ------------------------------------------------------------------ *)

and binop_of_token = function
  | Token.STAR -> Some (Mul, 13)
  | Token.SLASH -> Some (Div, 13)
  | Token.PERCENT -> Some (Mod, 13)
  | Token.PLUS -> Some (Add, 12)
  | Token.MINUS -> Some (Sub, 12)
  | Token.SHL -> Some (Shl, 11)
  | Token.SHR -> Some (Shr, 11)
  | Token.LT -> Some (Lt, 10)
  | Token.GT -> Some (Gt, 10)
  | Token.LE -> Some (Le, 10)
  | Token.GE -> Some (Ge, 10)
  | Token.EQEQ -> Some (Eq, 9)
  | Token.NE -> Some (Ne, 9)
  | Token.AMP -> Some (Band, 8)
  | Token.CARET -> Some (Bxor, 7)
  | Token.BAR -> Some (Bor, 6)
  | Token.ANDAND -> Some (Logand, 5)
  | Token.OROR -> Some (Logor, 4)
  | _ -> None

and assignop_of_token = function
  | Token.ASSIGN -> Some A_eq
  | Token.PLUS_ASSIGN -> Some A_add
  | Token.MINUS_ASSIGN -> Some A_sub
  | Token.STAR_ASSIGN -> Some A_mul
  | Token.SLASH_ASSIGN -> Some A_div
  | Token.PERCENT_ASSIGN -> Some A_mod
  | Token.SHL_ASSIGN -> Some A_shl
  | Token.SHR_ASSIGN -> Some A_shr
  | Token.AMP_ASSIGN -> Some A_band
  | Token.CARET_ASSIGN -> Some A_bxor
  | Token.BAR_ASSIGN -> Some A_bor
  | _ -> None

(** Full expression, including the (left-associative) comma operator. *)
and parse_expr st : expr =
  let l = loc st in
  let e = ref (parse_assignment st) in
  while accept st Token.COMMA do
    e := mk_expr ~loc:l (E_comma (!e, parse_assignment st))
  done;
  !e

and parse_assignment st : expr =
  let l = loc st in
  let lhs = parse_conditional st in
  match assignop_of_token (peek st) with
  | Some op ->
      advance st;
      let rhs = parse_assignment st in
      mk_expr ~loc:l (E_assign (op, lhs, rhs))
  | None -> lhs

and parse_conditional st : expr =
  let l = loc st in
  let cond = parse_binary st 4 in
  if accept st Token.QUESTION then begin
    let t = parse_expr st in
    expect st Token.COLON;
    let e = parse_conditional st in
    mk_expr ~loc:l (E_cond (cond, t, e))
  end
  else cond

(* The bottom-up part: precedence climbing over binary operators. *)
and parse_binary st min_prec : expr =
  let l = loc st in
  let lhs = ref (parse_unary st) in
  let continue = ref true in
  while !continue do
    match binop_of_token (peek st) with
    | Some (op, prec) when prec >= min_prec ->
        advance st;
        let rhs = parse_binary st (prec + 1) in
        lhs := mk_expr ~loc:l (E_binary (op, !lhs, rhs))
    | Some _ | None -> continue := false
  done;
  !lhs

and parse_unary st : expr =
  let l = loc st in
  match peek st with
  | Token.PLUSPLUS ->
      advance st;
      mk_expr ~loc:l (E_unary (Preincr, parse_unary st))
  | Token.MINUSMINUS ->
      advance st;
      mk_expr ~loc:l (E_unary (Predecr, parse_unary st))
  | Token.PLUS ->
      advance st;
      mk_expr ~loc:l (E_unary (Plus, parse_unary st))
  | Token.MINUS ->
      advance st;
      mk_expr ~loc:l (E_unary (Neg, parse_unary st))
  | Token.BANG ->
      advance st;
      mk_expr ~loc:l (E_unary (Lognot, parse_unary st))
  | Token.TILDE ->
      advance st;
      mk_expr ~loc:l (E_unary (Bitnot, parse_unary st))
  | Token.STAR ->
      advance st;
      mk_expr ~loc:l (E_unary (Deref, parse_unary st))
  | Token.AMP ->
      advance st;
      mk_expr ~loc:l (E_unary (Addr, parse_unary st))
  | Token.KW Token.Ksizeof ->
      advance st;
      if
        Token.equal (peek st) Token.LPAREN
        && (st.pos <- st.pos + 1;
            let starts = starts_typename st in
            st.pos <- st.pos - 1;
            starts)
      then begin
        expect st Token.LPAREN;
        let ct = parse_type_name st in
        expect st Token.RPAREN;
        mk_expr ~loc:l (E_sizeof_type ct)
      end
      else mk_expr ~loc:l (E_sizeof_expr (parse_unary st))
  | Token.LPAREN
    when (st.pos <- st.pos + 1;
          let starts = starts_typename st in
          st.pos <- st.pos - 1;
          starts) ->
      if st.in_meta then parse_lambda st
      else begin
        (* a cast: ( type-name ) cast-expression *)
        expect st Token.LPAREN;
        let ct = parse_type_name st in
        expect st Token.RPAREN;
        mk_expr ~loc:l (E_cast (ct, parse_unary st))
      end
  | _ -> parse_postfix st (parse_primary st)

(** Anonymous meta function: [( param-declarations ; expression )].  The
    paper's downward-only anonymous functions, heavily used with [map]. *)
and parse_lambda st : expr =
  let l = loc st in
  expect st Token.LPAREN;
  let params = ref [] in
  let rec params_loop () =
    let specs = parse_decl_specs st ~allow_storage:false in
    let d = parse_declarator st ~allow_abstract:true in
    params := P_decl (specs, d) :: !params;
    if accept st Token.COMMA then params_loop ()
  in
  params_loop ();
  if Token.equal (peek st) Token.RPAREN then
    (* "(type)" followed by ")" can only have been a cast attempt *)
    error st "casts are not part of the macro language";
  expect st Token.SEMI;
  let params = List.rev !params in
  (* the body sees the parameters: bind them for placeholder typing *)
  let body =
    Tenv.with_scope st.tenv (fun () ->
        List.iter
          (fun (n, ty) -> Tenv.add st.tenv n ty)
          (Of_cdecl.params_of_func ~loc:l params);
        parse_expr st)
  in
  expect st Token.RPAREN;
  mk_expr ~loc:l (E_lambda (params, body))

and parse_postfix st e : expr =
  let l = loc st in
  match peek st with
  | Token.LPAREN ->
      advance st;
      let args = parse_arg_list st in
      expect st Token.RPAREN;
      parse_postfix st (mk_expr ~loc:l (E_call (e, args)))
  | Token.LBRACKET ->
      advance st;
      let i = parse_expr st in
      expect st Token.RBRACKET;
      parse_postfix st (mk_expr ~loc:l (E_index (e, i)))
  | Token.DOT ->
      advance st;
      let f = parse_member_name st in
      parse_postfix st (mk_expr ~loc:l (E_member (e, f)))
  | Token.ARROW ->
      advance st;
      let f = parse_member_name st in
      parse_postfix st (mk_expr ~loc:l (E_arrow (e, f)))
  | Token.PLUSPLUS ->
      advance st;
      parse_postfix st (mk_expr ~loc:l (E_postincr e))
  | Token.MINUSMINUS ->
      advance st;
      parse_postfix st (mk_expr ~loc:l (E_postdecr e))
  | _ -> e

(* Member names after . and -> may be placeholders inside templates
   (e.g. the getter pattern [o->$field]). *)
and parse_member_name st : id_or_splice =
  match peek st with
  | Token.DOLLAR when st.in_template && placeholder_matches st id_like ->
      Ii_splice (take_placeholder st ~what:"a member name" id_like)
  | _ -> Ii_id (expect_ident st)

and parse_arg_list st : expr list =
  if Token.equal (peek st) Token.RPAREN then []
  else begin
    let rec go acc =
      let arg =
        (* a list-typed placeholder splices several arguments; scalar
           placeholders go through the expression parser so they can be
           part of larger argument expressions *)
        if placeholder_matches st exp_list_like then
          let sp = take_placeholder st ~what:"arguments" exp_list_like in
          mk_expr ~loc:sp.sp_loc (E_splice sp)
        else parse_assignment st
      in
      let acc = arg :: acc in
      if accept st Token.COMMA then go acc else List.rev acc
    in
    go []
  end

and parse_primary st : expr =
  let l = loc st in
  match peek st with
  | Token.INT_LIT (v, text) ->
      advance st;
      mk_expr ~loc:l (E_const (Cint (v, text)))
  | Token.FLOAT_LIT (v, text) ->
      advance st;
      mk_expr ~loc:l (E_const (Cfloat (v, text)))
  | Token.CHAR_LIT c ->
      advance st;
      mk_expr ~loc:l (E_const (Cchar c))
  | Token.STRING_LIT s ->
      advance st;
      mk_expr ~loc:l (E_const (Cstring s))
  | Token.IDENT name when is_macro st name ->
      let msig = Option.get (find_macro st name) in
      if not (exp_like msig.sig_ret) then
        error st
          "macro %s returns %s and cannot be invoked where an expression is \
           expected"
          name
          (Mtype.to_string msig.sig_ret);
      let inv = parse_invocation st msig in
      mk_expr ~loc:l (E_macro inv)
  | Token.IDENT name ->
      advance st;
      mk_expr ~loc:l (E_ident { id_name = name; id_loc = l })
  | Token.LPAREN ->
      advance st;
      let e = parse_expr st in
      expect st Token.RPAREN;
      e
  | Token.BACKQUOTE ->
      if not st.in_meta then
        error st "code templates (backquote) are only allowed in meta code";
      mk_expr ~loc:l (E_backquote (parse_template st))
  | Token.DOLLAR when st.in_template ->
      let sp = take_placeholder st ~what:"an expression" exp_like in
      mk_expr ~loc:l (E_splice sp)
  | Token.DOLLAR ->
      error st "placeholder outside a code template"
  | tok -> error st "expected an expression, found %S" (Token.to_string tok)

(* ------------------------------------------------------------------ *)
(* Type names (casts, sizeof)                                          *)
(* ------------------------------------------------------------------ *)

and parse_type_name st : ctype =
  let specs = parse_decl_specs st ~allow_storage:false in
  let d =
    if Token.equal (peek st) Token.RPAREN then D_abstract
    else parse_declarator st ~allow_abstract:true
  in
  { ct_specs = specs; ct_decl = d }

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

and parse_statement st : stmt =
  let l = loc st in
  match peek st with
  | Token.LBRACE -> parse_compound st
  | Token.SEMI ->
      advance st;
      mk_stmt ~loc:l St_null
  | Token.KW Token.Kif ->
      advance st;
      expect st Token.LPAREN;
      let c = parse_expr st in
      expect st Token.RPAREN;
      let t = parse_statement st in
      let e =
        if accept st (Token.KW Token.Kelse) then Some (parse_statement st)
        else None
      in
      mk_stmt ~loc:l (St_if (c, t, e))
  | Token.KW Token.Kwhile ->
      advance st;
      expect st Token.LPAREN;
      let c = parse_expr st in
      expect st Token.RPAREN;
      mk_stmt ~loc:l (St_while (c, parse_statement st))
  | Token.KW Token.Kdo ->
      advance st;
      let body = parse_statement st in
      expect st (Token.KW Token.Kwhile);
      expect st Token.LPAREN;
      let c = parse_expr st in
      expect st Token.RPAREN;
      expect st Token.SEMI;
      mk_stmt ~loc:l (St_do (body, c))
  | Token.KW Token.Kfor ->
      advance st;
      expect st Token.LPAREN;
      let init =
        if Token.equal (peek st) Token.SEMI then None else Some (parse_expr st)
      in
      expect st Token.SEMI;
      let cond =
        if Token.equal (peek st) Token.SEMI then None else Some (parse_expr st)
      in
      expect st Token.SEMI;
      let step =
        if Token.equal (peek st) Token.RPAREN then None
        else Some (parse_expr st)
      in
      expect st Token.RPAREN;
      mk_stmt ~loc:l (St_for (init, cond, step, parse_statement st))
  | Token.KW Token.Kswitch ->
      advance st;
      expect st Token.LPAREN;
      let e = parse_expr st in
      expect st Token.RPAREN;
      mk_stmt ~loc:l (St_switch (e, parse_statement st))
  | Token.KW Token.Kcase ->
      advance st;
      let e = parse_conditional st in
      expect st Token.COLON;
      mk_stmt ~loc:l (St_case (e, parse_statement st))
  | Token.KW Token.Kdefault ->
      advance st;
      expect st Token.COLON;
      mk_stmt ~loc:l (St_default (parse_statement st))
  | Token.KW Token.Kreturn ->
      advance st;
      let e =
        if Token.equal (peek st) Token.SEMI then None else Some (parse_expr st)
      in
      expect st Token.SEMI;
      mk_stmt ~loc:l (St_return e)
  | Token.KW Token.Kbreak ->
      advance st;
      expect st Token.SEMI;
      mk_stmt ~loc:l St_break
  | Token.KW Token.Kcontinue ->
      advance st;
      expect st Token.SEMI;
      mk_stmt ~loc:l St_continue
  | Token.KW Token.Kgoto ->
      advance st;
      let id = expect_ident st in
      expect st Token.SEMI;
      mk_stmt ~loc:l (St_goto id)
  | Token.IDENT _ when Token.equal (peek_ahead st 1) Token.COLON ->
      let id = expect_ident st in
      expect st Token.COLON;
      mk_stmt ~loc:l (St_label (id, parse_statement st))
  | Token.IDENT name when is_macro st name ->
      let msig = Option.get (find_macro st name) in
      if stmt_like msig.sig_ret then begin
        let inv = parse_invocation st msig in
        (* the paper writes "throw result;" — tolerate one decorative
           semicolon after a statement-macro invocation *)
        ignore (accept st Token.SEMI);
        mk_stmt ~loc:l (St_macro inv)
      end
      else if exp_like msig.sig_ret then begin
        (* expression-macro used as an expression statement *)
        let e = parse_expr st in
        expect st Token.SEMI;
        mk_stmt ~loc:l (St_expr e)
      end
      else
        error st
          "macro %s returns %s and cannot be invoked where a statement is \
           expected"
          name
          (Mtype.to_string msig.sig_ret)
  | Token.DOLLAR when placeholder_matches st stmt_like ->
      let sp = take_placeholder st ~what:"a statement" stmt_like in
      (* the paper writes "$s;" — tolerate one decorative semicolon *)
      ignore (accept st Token.SEMI);
      mk_stmt ~loc:l (St_splice sp)
  | _ ->
      let e = parse_expr st in
      expect st Token.SEMI;
      mk_stmt ~loc:l (St_expr e)

(** Compound statements.  C89 compounds are a declaration list followed
    by a statement list; the parser uses placeholder types to put
    placeholders in the right part, and rejects declarations (or
    declaration-typed placeholders) after the first statement — this is
    what makes the (stmt, decl) row of the paper's Figure 3 a syntax
    error. *)
and parse_compound st : stmt =
  let l = loc st in
  expect st Token.LBRACE;
  let finally_meta_scope =
    if st.in_meta then begin
      Tenv.push_scope st.tenv;
      fun () -> Tenv.pop_scope st.tenv
    end
    else fun () -> ()
  in
  Fun.protect ~finally:finally_meta_scope (fun () ->
      with_typedef_scope st (fun () ->
          let items = ref [] in
          let seen_stmt = ref false in
          let add_decl d =
            if !seen_stmt then
              Diag.error ~loc:d.dloc Diag.Parsing
                "declaration after the first statement of a compound \
                 statement (C89)";
            items := Bi_decl d :: !items
          in
          let add_stmt s =
            seen_stmt := true;
            items := Bi_stmt s :: !items
          in
          while not (Token.equal (peek st) Token.RBRACE) do
            if Token.equal (peek st) Token.EOF then
              error st "unterminated compound statement";
            if starts_declaration st then add_decl (parse_declaration st ~top:false)
            else add_stmt (parse_statement st)
          done;
          expect st Token.RBRACE;
          mk_stmt ~loc:l (St_compound (List.rev !items))))

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

and parse_decl_specs st ~allow_storage : spec list =
  let specs = ref [] in
  let push s = specs := s :: !specs in
  let storage kw s =
    if not allow_storage then
      error st "storage class %S not allowed here" (Token.keyword_name kw);
    push s
  in
  let seen_type_spec () =
    List.exists
      (function
        | S_void | S_char | S_int | S_float | S_double | S_short | S_long
        | S_signed | S_unsigned | S_named _ | S_enum _ | S_struct _
        | S_union _ | S_ast _ | S_splice _ ->
            true
        | _ -> false)
      !specs
  in
  let continue = ref true in
  while !continue do
    match peek st with
    | Token.KW Token.Kvoid -> advance st; push S_void
    | Token.KW Token.Kchar -> advance st; push S_char
    | Token.KW Token.Kint -> advance st; push S_int
    | Token.KW Token.Kfloat -> advance st; push S_float
    | Token.KW Token.Kdouble -> advance st; push S_double
    | Token.KW Token.Kshort -> advance st; push S_short
    | Token.KW Token.Klong -> advance st; push S_long
    | Token.KW Token.Ksigned -> advance st; push S_signed
    | Token.KW Token.Kunsigned -> advance st; push S_unsigned
    | Token.KW Token.Kconst -> advance st; push S_const
    | Token.KW Token.Kvolatile -> advance st; push S_volatile
    | Token.KW (Token.Ktypedef as kw) -> advance st; storage kw S_typedef
    | Token.KW (Token.Kextern as kw) -> advance st; storage kw S_extern
    | Token.KW (Token.Kstatic as kw) -> advance st; storage kw S_static
    | Token.KW (Token.Kauto as kw) -> advance st; storage kw S_auto
    | Token.KW (Token.Kregister as kw) -> advance st; storage kw S_register
    | Token.KW Token.Kenum ->
        advance st;
        push (S_enum (parse_enum_spec st))
    | Token.KW Token.Kstruct ->
        advance st;
        let tag, fields = parse_su_spec st in
        push (S_struct (tag, fields))
    | Token.KW Token.Kunion ->
        advance st;
        let tag, fields = parse_su_spec st in
        push (S_union (tag, fields))
    | Token.AT ->
        advance st;
        let id = expect_ident st in
        (match Ms2_mtype.Sort.of_keyword id.id_name with
        | Some sort -> push (S_ast sort)
        | None ->
            Diag.error ~loc:id.id_loc Diag.Parsing
              "unknown AST type @%s" id.id_name)
    | Token.IDENT name
      when is_typedef_name st name && not (seen_type_spec ()) ->
        advance st;
        push (S_named { id_name = name; id_loc = loc st })
    | Token.DOLLAR
      when (not (seen_type_spec ())) && placeholder_matches st typespec_like
      ->
        let sp = take_placeholder st ~what:"a type specifier" typespec_like in
        push (S_splice sp)
    | _ -> continue := false
  done;
  List.rev !specs

and parse_enum_spec st : enum_spec =
  let tag =
    match peek st with
    | Token.IDENT _ -> Some (Ii_id (expect_ident st))
    | Token.DOLLAR when st.in_template && placeholder_matches st id_like ->
        Some (Ii_splice (take_placeholder st ~what:"an enum tag" id_like))
    | _ -> None
  in
  if accept st Token.LBRACE then begin
    let items = ref [] in
    let rec go () =
      (match peek st with
      | Token.DOLLAR when placeholder_matches st enumerator_like ->
          let sp =
            take_placeholder st ~what:"enumeration constants" enumerator_like
          in
          items := Enum_splice sp :: !items
      | _ ->
          let id = parse_member_name st in
          let value =
            if accept st Token.ASSIGN then Some (parse_conditional st)
            else None
          in
          items := Enum_item (id, value) :: !items);
      if accept st Token.COMMA then
        if not (Token.equal (peek st) Token.RBRACE) then go ()
    in
    if not (Token.equal (peek st) Token.RBRACE) then go ();
    expect st Token.RBRACE;
    { enum_tag = tag; enum_items = Some (List.rev !items) }
  end
  else begin
    if tag = None then error st "expected an enum tag or enumerator list";
    { enum_tag = tag; enum_items = None }
  end

and parse_su_spec st : id_or_splice option * field list option =
  let tag =
    match peek st with
    | Token.IDENT _ -> Some (Ii_id (expect_ident st))
    | Token.DOLLAR when st.in_template && placeholder_matches st id_like ->
        Some
          (Ii_splice (take_placeholder st ~what:"a struct/union tag" id_like))
    | _ -> None
  in
  if accept st Token.LBRACE then begin
    let fields = ref [] in
    while not (Token.equal (peek st) Token.RBRACE) do
      let specs = parse_decl_specs st ~allow_storage:false in
      let rec decls acc =
        let d = parse_declarator st ~allow_abstract:false in
        if accept st Token.COMMA then decls (d :: acc)
        else List.rev (d :: acc)
      in
      let ds = decls [] in
      expect st Token.SEMI;
      fields := { f_specs = specs; f_declarators = ds } :: !fields
    done;
    expect st Token.RBRACE;
    (tag, Some (List.rev !fields))
  end
  else begin
    if tag = None then
      error st "expected a struct/union tag or member list";
    (tag, None)
  end

and parse_declarator st ~allow_abstract : declarator =
  if accept st Token.STAR then
    D_pointer (parse_declarator st ~allow_abstract)
  else parse_direct_declarator st ~allow_abstract

and parse_direct_declarator st ~allow_abstract : declarator =
  let base =
    match peek st with
    | Token.IDENT _ -> D_ident (expect_ident st)
    | Token.DOLLAR when st.in_template && placeholder_matches st declarator_like
      ->
        D_splice (take_placeholder st ~what:"a declarator" declarator_like)
    | Token.LPAREN
      when (match peek_ahead st 1 with
           | Token.STAR | Token.IDENT _ | Token.LPAREN | Token.DOLLAR -> true
           | _ -> false) ->
        advance st;
        let d = parse_declarator st ~allow_abstract in
        expect st Token.RPAREN;
        d
    | _ when allow_abstract -> D_abstract
    | tok -> error st "expected a declarator, found %S" (Token.to_string tok)
  in
  parse_declarator_suffixes st base

and parse_declarator_suffixes st d : declarator =
  match peek st with
  | Token.LBRACKET ->
      advance st;
      let size =
        if Token.equal (peek st) Token.RBRACKET then None
        else Some (parse_conditional st)
      in
      expect st Token.RBRACKET;
      parse_declarator_suffixes st (D_array (d, size))
  | Token.LPAREN ->
      advance st;
      let params = parse_params st in
      expect st Token.RPAREN;
      parse_declarator_suffixes st (D_func (d, params))
  | _ -> d

and parse_params st : param list =
  if Token.equal (peek st) Token.RPAREN then []
  else if
    Token.equal (peek st) (Token.KW Token.Kvoid)
    && Token.equal (peek_ahead st 1) Token.RPAREN
  then begin
    advance st;
    []
  end
  else begin
    let rec go acc =
      let p =
        match peek st with
        | Token.ELLIPSIS ->
            advance st;
            P_ellipsis
        | Token.DOLLAR when placeholder_matches st param_like ->
            P_splice (take_placeholder st ~what:"parameters" param_like)
        | Token.IDENT name when not (is_typedef_name st name) ->
            P_name (expect_ident st)
        | _ ->
            let specs = parse_decl_specs st ~allow_storage:false in
            let d = parse_declarator st ~allow_abstract:true in
            P_decl (specs, d)
      in
      if p = P_ellipsis then begin
        (* "..." must be the last parameter *)
        if accept st Token.COMMA then
          error st "\"...\" must be the last parameter";
        List.rev (p :: acc)
      end
      else if accept st Token.COMMA then go (p :: acc)
      else List.rev (p :: acc)
    in
    go []
  end

and parse_initializer st : init =
  if accept st Token.LBRACE then begin
    let items = ref [] in
    let rec go () =
      items := parse_initializer st :: !items;
      if accept st Token.COMMA then
        if not (Token.equal (peek st) Token.RBRACE) then go ()
    in
    if not (Token.equal (peek st) Token.RBRACE) then go ();
    expect st Token.RBRACE;
    I_list (List.rev !items)
  end
  else I_expr (parse_assignment st)

(* Innermost declared name of a declarator, for typedef registration. *)
and declarator_name = function
  | D_ident id -> Some id.id_name
  | D_abstract | D_splice _ -> None
  | D_pointer d | D_array (d, _) | D_func (d, _) -> declarator_name d

(** Declarations, including function definitions (at top level), macro
    definitions, and meta declarations. *)
and parse_declaration st ~top : decl =
  let l = loc st in
  match peek st with
  | Token.KW Token.Ksyntax ->
      if not top then
        error st "macro definitions are only allowed at top level";
      let md = parse_macro_def st in
      mk_decl ~loc:l (Decl_macro_def md)
  | Token.KW Token.Kmetadcl ->
      advance st;
      let inner = in_meta_mode st (fun () -> parse_declaration st ~top) in
      (* meta declarations extend the global meta type environment *)
      register_meta_bindings st ~global:true inner;
      mk_decl ~loc:l (Decl_metadcl inner)
  | Token.IDENT name when is_macro st name ->
      let msig = Option.get (find_macro st name) in
      if not (decl_like msig.sig_ret) then
        error st
          "macro %s returns %s and cannot be invoked where a declaration is \
           expected"
          name
          (Mtype.to_string msig.sig_ret);
      let inv = parse_invocation st msig in
      mk_decl ~loc:l (Decl_macro inv)
  | Token.DOLLAR when placeholder_matches st decl_like ->
      let sp = take_placeholder st ~what:"a declaration" decl_like in
      ignore (accept st Token.SEMI);
      mk_decl ~loc:l (Decl_splice sp)
  | _ ->
      let specs = parse_decl_specs st ~allow_storage:true in
      if specs <> [] && accept st Token.SEMI then
        (* e.g. a bare "enum color {...};" or "struct s {...};" *)
        mk_decl ~loc:l (Decl_plain (specs, []))
      else begin
        if specs = [] && not top then
          error st "expected a declaration";
        (* whole-init-declarator-list placeholder (paper Fig. 2 row 1) *)
        if
          st.in_template && placeholder_matches st init_declarator_list_like
        then begin
          let sp =
            take_placeholder st ~what:"an init-declarator list"
              init_declarator_list_like
          in
          expect st Token.SEMI;
          mk_decl ~loc:l (Decl_plain (specs, [ Init_splice sp ]))
        end
        else begin
          let first = parse_init_declarator_head st in
          match first with
          | Init_decl (d, None)
            when top
                 && is_function_declarator d
                 && not
                      (Token.equal (peek st) Token.SEMI
                      || Token.equal (peek st) Token.COMMA
                      || Token.equal (peek st) Token.ASSIGN) ->
              parse_function_definition st ~loc:l specs d
          | first ->
              let idecls = ref [ first ] in
              while accept st Token.COMMA do
                idecls := parse_init_declarator st :: !idecls
              done;
              expect st Token.SEMI;
              let idecls = List.rev !idecls in
              register_typedefs st specs idecls;
              if st.in_meta then begin
                (* meta locals must be visible to later placeholders *)
                let decl = mk_decl ~loc:l (Decl_plain (specs, idecls)) in
                register_meta_bindings st ~global:false decl;
                decl
              end
              else mk_decl ~loc:l (Decl_plain (specs, idecls))
        end
      end

and parse_init_declarator_head st : init_declarator =
  parse_init_declarator st

and parse_init_declarator st : init_declarator =
  match peek st with
  | Token.DOLLAR when st.in_template && placeholder_matches st init_declarator_like
    ->
      Init_splice
        (take_placeholder st ~what:"an init-declarator" init_declarator_like)
  | _ ->
      let d = parse_declarator st ~allow_abstract:false in
      let init =
        if accept st Token.ASSIGN then Some (parse_initializer st) else None
      in
      Init_decl (d, init)

and is_function_declarator = function
  | D_func (_, _) -> true
  | D_pointer d -> is_function_declarator d
  | D_ident _ | D_abstract -> false
  | D_splice _ ->
      (* a declarator placeholder followed by a body brace can only be a
         function definition (e.g. `[int $d { return 0; }]) *)
      true
  | D_array (d, _) -> is_function_declarator d

and parse_function_definition st ~loc:l specs d : decl =
  (* K&R parameter declarations, if any, then the body *)
  let kr = ref [] in
  while not (Token.equal (peek st) Token.LBRACE) do
    if Token.equal (peek st) Token.EOF then
      error st "expected a function body";
    kr := parse_declaration st ~top:false :: !kr
  done;
  let kr = List.rev !kr in
  (* a definition mentioning AST types anywhere is a meta function *)
  let is_meta =
    st.in_meta
    || Of_cdecl.specs_mention_ast specs
    || Of_cdecl.declarator_mentions_ast d
  in
  let body =
    if is_meta then
      in_meta_mode st (fun () ->
          (* bind the function's own name (for recursion) and parameters *)
          let name, ty = Of_cdecl.of_decl ~loc:l specs d in
          if name <> "" then Tenv.add_global st.tenv name ty;
          Tenv.with_scope st.tenv (fun () ->
              (match Of_cdecl.func_params d with
              | Some ps ->
                  List.iter
                    (fun (n, t) -> Tenv.add st.tenv n t)
                    (Of_cdecl.params_of_func ~loc:l ps)
              | None -> ());
              parse_compound st))
    else parse_compound st
  in
  mk_decl ~loc:l (Decl_fun (specs, d, kr, body))

and register_typedefs st specs idecls =
  if List.mem S_typedef specs then
    List.iter
      (function
        | Init_decl (d, _) -> (
            match declarator_name d with
            | Some name -> add_typedef st name
            | None -> ())
        | Init_splice _ -> ())
      idecls

(* Extend the meta type environment with the bindings of a meta
   declaration, so later placeholders can be typed at parse time. *)
and register_meta_bindings st ~global (decl : decl) : unit =
  let add n ty =
    if global then Tenv.add_global st.tenv n ty else Tenv.add st.tenv n ty
  in
  let rec go (decl : decl) =
    match decl.d with
    | Decl_plain (specs, idecls) ->
        List.iter
          (function
            | Init_decl (d, _) ->
                let name, ty = Of_cdecl.of_decl ~loc:decl.dloc specs d in
                if name <> "" then add name ty
            | Init_splice _ -> ())
          idecls
    | Decl_fun (specs, d, _, _) ->
        let name, ty = Of_cdecl.of_decl ~loc:decl.dloc specs d in
        if name <> "" then add name ty
    | Decl_metadcl inner -> go inner
    | Decl_macro_def _ | Decl_splice _ | Decl_macro _ -> ()
  in
  go decl

(* ------------------------------------------------------------------ *)
(* Macro definitions                                                   *)
(* ------------------------------------------------------------------ *)

and parse_sort st : Sort.t =
  ignore (accept st Token.AT);
  let id = expect_ident st in
  match Sort.of_keyword id.id_name with
  | Some sort -> sort
  | None ->
      Diag.error ~loc:id.id_loc Diag.Parsing "unknown AST type %s" id.id_name

and parse_macro_def st : macro_def =
  let l = loc st in
  expect st (Token.KW Token.Ksyntax);
  let sort = parse_sort st in
  (* inside templates the macro name may be a placeholder, so that
     macro-generating macros can parameterize the name of the macro
     they define *)
  let name =
    match peek st with
    | Token.DOLLAR when st.in_template && placeholder_matches st id_like ->
        Ii_splice
          (take_placeholder st ~what:"the name of the generated macro"
             id_like)
    | _ -> Ii_id (expect_ident st)
  in
  (* array suffixes on the macro name make the return type a list *)
  let ret = ref (Mtype.Ast sort) in
  while accept st Token.LBRACKET do
    expect st Token.RBRACKET;
    ret := Mtype.List !ret
  done;
  let ret = !ret in
  expect st Token.LMETA;
  let pattern = parse_pattern_elems st ~stop:Token.RMETA in
  expect st Token.RMETA;
  Determinism.check_pattern ~loc:l pattern;
  (* register before parsing the body so the macro can recurse, and so
     invocation sites following the definition parse correctly *)
  (match name with
  | Ii_id name when not st.in_template ->
      register_macro st name.id_name { sig_ret = ret; sig_pattern = pattern }
  | Ii_id _ | Ii_splice _ -> ());
  let body =
    in_meta_mode st (fun () ->
        Tenv.with_scope st.tenv (fun () ->
            List.iter
              (fun (n, ty) -> Tenv.add st.tenv n ty)
              (pattern_bindings pattern);
            let body = parse_compound st in
            (* full definition-time checking of the meta-code body *)
            Ms2_typing.Check.check_body st.tenv ~ret body;
            body))
  in
  { m_name = name; m_ret = ret; m_pattern = pattern; m_body = body; m_loc = l }

and pattern_bindings (pat : pattern) : (string * Mtype.t) list =
  List.filter_map
    (function
      | Pe_token _ -> None
      | Pe_binder b -> Some (b.b_name.id_name, pspec_type b.b_spec))
    pat

and parse_pattern_elems st ~stop : pattern =
  let elems = ref [] in
  while not (Token.equal (peek st) stop) do
    (match peek st with
    | Token.EOF -> error st "unterminated macro pattern"
    | Token.DOLLARDOLLAR ->
        advance st;
        let spec = parse_pspec st in
        expect st Token.COLONCOLON;
        let name = expect_ident st in
        elems := Pe_binder { b_spec = spec; b_name = name } :: !elems
    | Token.LMETA | Token.RMETA | Token.DOLLAR ->
        error st "token %S cannot appear in a macro pattern"
          (Token.to_string (peek st))
    | tok ->
        advance st;
        elems := Pe_token tok :: !elems);
  done;
  List.rev !elems

and starts_pspec st =
  match peek st with
  | Token.PLUS | Token.STAR | Token.QUESTION | Token.DOT | Token.AT -> true
  | Token.IDENT name -> Sort.of_keyword name <> None
  | _ -> false

and parse_pspec st : pspec =
  match peek st with
  | Token.PLUS ->
      advance st;
      let sep = parse_opt_separator st in
      Ps_plus (sep, parse_pspec st)
  | Token.STAR ->
      advance st;
      let sep = parse_opt_separator st in
      Ps_star (sep, parse_pspec st)
  | Token.QUESTION ->
      advance st;
      if starts_pspec st then Ps_opt (None, parse_pspec st)
      else begin
        let tok = peek st in
        (match tok with
        | Token.EOF | Token.RMETA | Token.COLONCOLON ->
            error st "expected an optional-element token or pattern specifier"
        | _ -> advance st);
        Ps_opt (Some tok, parse_pspec st)
      end
  | Token.DOT ->
      advance st;
      expect st Token.LPAREN;
      let pat = parse_pattern_elems st ~stop:Token.RPAREN in
      expect st Token.RPAREN;
      Ps_tuple pat
  | _ -> Ps_sort (parse_sort st)

and parse_opt_separator st : Token.t option =
  if accept st Token.SLASH then begin
    let tok = peek st in
    match tok with
    | Token.EOF | Token.RMETA -> error st "expected a separator token after /"
    | _ ->
        advance st;
        Some tok
  end
  else None

(* ------------------------------------------------------------------ *)
(* Templates                                                           *)
(* ------------------------------------------------------------------ *)

and parse_template st : template =
  expect st Token.BACKQUOTE;
  match peek st with
  | Token.LBRACE ->
      (* `{ statements } — the braces delimit a compound statement; a
         template holding exactly one statement (and no declarations)
         denotes that statement alone, per the paper's grammar
         "backquote-stmt-expression: ` { statement }" *)
      in_template_mode st (fun () ->
          let compound = parse_compound st in
          match compound.s with
          | St_compound [ Bi_stmt s ] -> T_stmt s
          | _ -> T_stmt compound)
  | Token.LPAREN ->
      advance st;
      let e = in_template_mode st (fun () -> parse_expr st) in
      expect st Token.RPAREN;
      T_exp e
  | Token.LBRACKET ->
      advance st;
      let d = in_template_mode st (fun () -> parse_declaration st ~top:true) in
      expect st Token.RBRACKET;
      T_decl d
  | Token.LMETA ->
      advance st;
      let ps = parse_pspec st in
      expect st Token.COLONCOLON;
      let a = in_template_mode st (fun () -> parse_by_pspec st ps) in
      expect st Token.RMETA;
      T_general (ps, a)
  | tok ->
      error st "expected (, {, [ or {| after backquote, found %S"
        (Token.to_string tok)

(* ------------------------------------------------------------------ *)
(* Macro invocations (pattern-directed parsing)                        *)
(* ------------------------------------------------------------------ *)

and parse_invocation st (msig : macro_sig) : invocation =
  let l = loc st in
  Failpoint.hit ~watchdog:st.watchdog ~loc:l "parser/invocation";
  let name = expect_ident st in
  let actuals =
    (* the pattern-directed parse is a pipeline stage of its own in the
       trace: one span per invocation, labeled with the macro *)
    Obs.with_span ~cat:"pattern"
      ~args:(fun () -> [ ("macro", Obs.Str name.id_name) ])
      "pattern-match"
      (fun () -> parse_pattern_actuals st msig.sig_pattern)
  in
  { inv_name = name; inv_actuals = actuals; inv_ret = msig.sig_ret;
    inv_loc = l }

(* The one invocation matcher: it interprets the pattern at each use.
   The paper's §3 suggests compiling a parse routine per macro, but
   invocation parsing is "a relatively small part of compiling": a
   compiled variant measured about 3% on a pattern-heavy benchmark
   (EXPERIMENTS.md, A1), too little to keep a second matcher. *)
and parse_pattern_actuals st (pat : pattern) : (string * actual) list =
  List.filter_map
    (function
      | Pe_token tok ->
          expect st tok;
          None
      | Pe_binder b -> Some (b.b_name.id_name, parse_by_pspec st b.b_spec))
    pat

and parse_by_pspec st (ps : pspec) : actual =
  match ps with
  | Ps_sort sort -> Act_node (parse_node st sort)
  | Ps_plus (sep, p) ->
      let first = parse_by_pspec st p in
      Act_list (first :: parse_repetition_tail st sep p)
  | Ps_star (sep, p) ->
      if pspec_can_start st p then
        let first = parse_by_pspec st p in
        Act_list (first :: parse_repetition_tail st sep p)
      else Act_list []
  | Ps_opt (Some tok, p) ->
      if accept st tok then Act_list [ parse_by_pspec st p ]
      else Act_list []
  | Ps_opt (None, p) ->
      if pspec_can_start st p then Act_list [ parse_by_pspec st p ]
      else Act_list []
  | Ps_tuple pat -> Act_tuple (parse_pattern_actuals st pat)

and parse_repetition_tail st sep p : actual list =
  let items = ref [] in
  let rec go () =
    let continue =
      match sep with
      | Some tok -> accept st tok
      | None -> pspec_can_start st p
    in
    if continue then begin
      items := parse_by_pspec st p :: !items;
      go ()
    end
  in
  go ();
  List.rev !items

and pspec_can_start st p = Firstset.pspec_starts_with p (peek st)

(** Parse one phrase of the given sort — used for invocation actuals and
    for the general backquote form. *)
and parse_node st (sort : Sort.t) : node =
  match sort with
  | Sort.Id -> (
      match peek st with
      | Token.DOLLAR when st.in_template && placeholder_matches st id_like ->
          (* an identifier-typed placeholder as an actual: represented as
             an expression splice, resolved to an identifier at fill *)
          let sp = take_placeholder st ~what:"an identifier" id_like in
          N_exp (mk_expr ~loc:sp.sp_loc (E_splice sp))
      | _ -> N_id (expect_ident st))
  | Sort.Exp -> N_exp (parse_assignment st)
  | Sort.Num -> (
      match peek st with
      | Token.INT_LIT (v, text) ->
          advance st;
          N_num (Cint (v, text))
      | Token.FLOAT_LIT (v, text) ->
          advance st;
          N_num (Cfloat (v, text))
      | Token.CHAR_LIT c ->
          advance st;
          N_num (Cchar c)
      | Token.DOLLAR
        when st.in_template
             && placeholder_matches st (fun ty -> ty = Mtype.Ast Sort.Num) ->
          let sp =
            take_placeholder st ~what:"a numeric literal" (fun ty ->
                ty = Mtype.Ast Sort.Num)
          in
          N_exp (mk_expr ~loc:sp.sp_loc (E_splice sp))
      | tok ->
          error st "expected a numeric literal, found %S" (Token.to_string tok)
      )
  | Sort.Stmt -> N_stmt (parse_statement st)
  | Sort.Decl -> N_decl (parse_declaration st ~top:true)
  | Sort.Typespec ->
      let specs = parse_decl_specs st ~allow_storage:false in
      if specs = [] then error st "expected a type specifier";
      N_typespec specs
  | Sort.Declarator -> N_declarator (parse_declarator st ~allow_abstract:false)
  | Sort.Init_declarator -> N_init_declarator (parse_init_declarator st)
  | Sort.Param -> (
      match peek st with
      | Token.IDENT name when not (is_typedef_name st name) ->
          N_param (P_name (expect_ident st))
      | _ ->
          let specs = parse_decl_specs st ~allow_storage:false in
          let d = parse_declarator st ~allow_abstract:true in
          N_param (P_decl (specs, d)))
  | Sort.Enumerator ->
      let id = parse_member_name st in
      let value =
        if accept st Token.ASSIGN then Some (parse_conditional st) else None
      in
      N_enumerator (Enum_item (id, value))

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

and parse_program st : program =
  let decls = ref [] in
  while not (Token.equal (peek st) Token.EOF) do
    (* tolerate stray semicolons between top-level declarations *)
    if accept st Token.SEMI then ()
    else decls := parse_declaration st ~top:true :: !decls
  done;
  List.rev !decls

(* ------------------------------------------------------------------ *)
(* String entry points                                                 *)
(* ------------------------------------------------------------------ *)

let program_of_string ?macros ?tenv ?source ?reject_reserved text : program =
  parse_program (State.of_string ?macros ?tenv ?source ?reject_reserved text)

let finish st v =
  if not (Token.equal (peek st) Token.EOF) then
    error st "trailing input after a complete parse: %S"
      (Token.to_string (peek st));
  v

let expr_of_string ?macros ?tenv ?source text : expr =
  let st = State.of_string ?macros ?tenv ?source text in
  finish st (parse_expr st)

(** Parse an expression of the *meta* language (templates, placeholders
    and anonymous functions are live).  [tenv] supplies the types of the
    meta variables that placeholders may mention. *)
let meta_expr_of_string ?macros ?tenv ?source text : expr =
  let st = State.of_string ?macros ?tenv ?source text in
  st.State.in_meta <- true;
  finish st (parse_expr st)

let stmt_of_string ?macros ?tenv ?source text : stmt =
  let st = State.of_string ?macros ?tenv ?source text in
  finish st (parse_statement st)

let decl_of_string ?macros ?tenv ?source text : decl =
  let st = State.of_string ?macros ?tenv ?source text in
  finish st (parse_declaration st ~top:true)
