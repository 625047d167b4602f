(** S-expression rendering of ASTs in the paper's notation.

    The paper displays parse trees as [(node-name child1 ... childn)]
    with list elements written within parentheses (Figure 2), and uses
    abbreviations in Figure 3: [c-s] compound-statement, [r-s]
    return-statement, [decl-list], [stmt-list], [exp], [id], [decl]
    (a declaration abbreviated to its quoted source text).  We follow
    both conventions so the regenerated figures can be compared with the
    paper line by line. *)

open Ast

type t = Atom of string | L of t list

let rec to_string = function
  | Atom s -> s
  | L items -> "(" ^ String.concat " " (List.map to_string items) ^ ")"

let atom fmt = Format.kasprintf (fun s -> Atom s) fmt

(* A placeholder prints as its meta-variable name when it is a simple
   [$x]; otherwise as [$( ... )]. *)
let splice_atom sp =
  match sp.sp_expr.e with
  | E_ident id -> Atom id.id_name
  | _ -> atom "$(%s)" (Pretty.expr_to_string sp.sp_expr)

let rec of_expr expr =
  match expr.e with
  | E_ident id -> L [ Atom "id"; Atom id.id_name ]
  | E_const c -> L [ Atom "const"; Atom (Pretty.constant_str c) ]
  | E_splice sp -> splice_atom sp
  | E_call (f, args) -> L (Atom "call" :: of_expr f :: List.map of_expr args)
  | E_binary (op, a, b) ->
      L [ Atom (Pretty.binop_str op); of_expr a; of_expr b ]
  | E_unary (op, e) -> L [ Atom (Pretty.unop_str op); of_expr e ]
  | _ -> L [ Atom "exp"; Atom (Pretty.expr_to_string expr) ]

(* an expression in expression-statement / return position is wrapped in
   an (exp ...) node, as in the paper's "(r-s (exp (id x)))" *)
let of_expr_node e = L [ Atom "exp"; of_expr e ]

let of_declarator_sexp d =
  let rec go = function
    | D_ident id -> L [ Atom "direct-declarator"; Atom id.id_name ]
    | D_abstract -> Atom "<abstract>"
    | D_pointer d -> L [ Atom "pointer"; go d ]
    | D_array (d, _) -> L [ Atom "array"; go d ]
    | D_func (d, _) -> L [ Atom "function"; go d ]
    | D_splice sp -> (
        (* an identifier-typed placeholder in declarator position keeps
           its direct-declarator wrapper (paper Fig. 2, last row) *)
        match Ms2_mtype.Mtype.head_sort sp.sp_type with
        | Some Ms2_mtype.Sort.Id ->
            L [ Atom "direct-declarator"; splice_atom sp ]
        | _ -> splice_atom sp)
  in
  go d

let of_init_declarator = function
  | Init_splice sp -> splice_atom sp
  | Init_decl (d, init) ->
      let init_sexp =
        match init with
        | None -> L []
        | Some (I_expr e) -> of_expr e
        | Some (I_list _) -> Atom "<init-list>"
      in
      L [ Atom "init-declarator"; of_declarator_sexp d; init_sexp ]

(* The init-declarator list of a declaration: when the whole list is a
   single list-typed placeholder, the placeholder *is* the list (paper
   Fig. 2, first row); otherwise print the elements within parens. *)
let of_init_declarators = function
  | [ Init_splice sp ]
    when match sp.sp_type with Ms2_mtype.Mtype.List _ -> true | _ -> false ->
      splice_atom sp
  | decls -> L (List.map of_init_declarator decls)

let spec_atom spec = Atom (Pretty.node_to_string (N_typespec [ spec ]))

let of_decl decl =
  match decl.d with
  | Decl_plain (specs, idecls) ->
      L
        [ Atom "declaration";
          L (List.map spec_atom specs);
          of_init_declarators idecls ]
  | Decl_splice sp -> splice_atom sp
  | Decl_fun _ -> atom "(function-definition %S)" (Pretty.decl_to_string decl)
  | Decl_metadcl _ | Decl_macro_def _ | Decl_macro _ ->
      atom "(meta %S)" (Pretty.decl_to_string decl)

(* Abbreviated declaration as in Figure 3: (decl "int x") *)
let of_decl_abbrev decl =
  match decl.d with
  | Decl_splice sp -> splice_atom sp
  | _ ->
      let text = Pretty.decl_to_string decl in
      (* drop the trailing ";" the pretty-printer adds, as the paper does *)
      let text =
        let n = String.length text in
        if n > 0 && text.[n - 1] = ';' then String.sub text 0 (n - 1) else text
      in
      L [ Atom "decl"; atom "%S" text ]

let rec of_stmt stmt =
  match stmt.s with
  | St_splice sp -> splice_atom sp
  | St_expr e -> L [ Atom "e-s"; of_expr_node e ]
  | St_return None -> L [ Atom "r-s" ]
  | St_return (Some e) -> L [ Atom "r-s"; of_expr_node e ]
  | St_compound items ->
      (* (c-s (decl-list (...)) (stmt-list (...))) — list-typed splices
         standing for a whole sublist print bare, elementwise otherwise *)
      let decls =
        List.filter_map
          (function Bi_decl d -> Some (of_decl_abbrev d) | Bi_stmt _ -> None)
          items
      and stmts =
        List.filter_map
          (function Bi_stmt s -> Some (of_stmt s) | Bi_decl _ -> None)
          items
      in
      L
        [ Atom "c-s";
          L [ Atom "decl-list"; L decls ];
          L [ Atom "stmt-list"; L stmts ] ]
  | St_if (c, t, None) -> L [ Atom "if"; of_expr c; of_stmt t ]
  | St_if (c, t, Some e) -> L [ Atom "if"; of_expr c; of_stmt t; of_stmt e ]
  | St_while (c, b) -> L [ Atom "while"; of_expr c; of_stmt b ]
  | St_do (b, c) -> L [ Atom "do"; of_stmt b; of_expr c ]
  | St_for _ -> atom "(for %S)" (Pretty.stmt_to_string stmt)
  | St_switch (e, b) -> L [ Atom "switch"; of_expr e; of_stmt b ]
  | St_case (e, s) -> L [ Atom "case"; of_expr e; of_stmt s ]
  | St_default s -> L [ Atom "default"; of_stmt s ]
  | St_break -> Atom "break"
  | St_continue -> Atom "continue"
  | St_goto id -> L [ Atom "goto"; Atom id.id_name ]
  | St_label (id, s) -> L [ Atom "label"; Atom id.id_name; of_stmt s ]
  | St_null -> Atom "null"
  | St_macro inv -> atom "(macro %s)" inv.inv_name.id_name

let of_node n =
  match n with
  | N_id id -> L [ Atom "id"; Atom id.id_name ]
  | N_exp e -> of_expr e
  | N_num c -> L [ Atom "num"; Atom (Pretty.constant_str c) ]
  | N_stmt s -> of_stmt s
  | N_decl d -> of_decl d
  | N_typespec specs -> L (Atom "typespec" :: List.map spec_atom specs)
  | N_declarator d -> of_declarator_sexp d
  | N_init_declarator d -> of_init_declarator d
  | N_param _ -> atom "(param %S)" (Pretty.node_to_string n)
  | N_enumerator _ -> atom "(enumerator %S)" (Pretty.node_to_string n)

let decl_to_string d = to_string (of_decl d)
let stmt_to_string s = to_string (of_stmt s)
let expr_to_string e = to_string (of_expr e)
let node_to_string n = to_string (of_node n)
