(** Conversion of C declaration syntax to meta types.

    The macro language reuses C declaration syntax for meta declarations:
    [@id ids[]] declares a list of identifiers (array syntax), struct
    declarations declare tuples, [@stmt f(@stmt s) {...}] declares a meta
    function, and [char *s] declares a meta string.  This module turns
    (specifier list, declarator) pairs into {!Ms2_mtype.Mtype.t}
    values. *)

open Ms2_syntax.Ast
open Ms2_support
module Mtype = Ms2_mtype.Mtype

let error loc fmt = Diag.error ~loc Diag.Type_check fmt

(* The base of a declaration: we must remember whether it was [char]
   so that exactly one pointer layer turns it into the string type. *)
type base = Scalar of Mtype.t | Char

let strip_storage specs =
  List.filter
    (function
      | S_typedef | S_extern | S_static | S_auto | S_register | S_const
      | S_volatile ->
          false
      | _ -> true)
    specs

let rec base_of_specs ~loc (specs : spec list) : base =
  match strip_storage specs with
  | [ S_ast sort ] -> Scalar (Mtype.Ast sort)
  | [ S_void ] -> Scalar Mtype.Void
  | [ S_char ] -> Char
  | [ S_struct (_, Some fields) ] ->
      let tuple_field f =
        List.map
          (fun d ->
            let name, ty = of_declarator ~loc (base_of_specs ~loc f.f_specs) d in
            { Mtype.fld_name = name; fld_type = ty })
          f.f_declarators
      in
      Scalar (Mtype.Tuple (List.concat_map tuple_field fields))
  | [] -> error loc "missing type specifier in meta declaration"
  | rest
    when List.for_all
           (function
             | S_int | S_short | S_long | S_signed | S_unsigned -> true
             | _ -> false)
           rest ->
      Scalar Mtype.Int
  | rest ->
      error loc "these specifiers do not form a meta-level type: %s"
        (Ms2_syntax.Pretty.node_to_string (N_typespec rest))

(** [of_declarator base d] applies the declarator [d] to the base type
    using the standard C inside-out reading: the type constructor is
    threaded down through the declarator, so [@id ids[]] is a list of
    identifiers, [char *argv[]] is a list of strings, and
    [@stmt f(@id x)[]] is a meta function returning a *list* of
    statements.  Returns the declared name (empty for abstract
    declarators) and the resulting type. *)
and of_declarator ~loc (base : base) (d : declarator) : string * Mtype.t =
  let scalar = function
    | Scalar t -> t
    | Char -> Mtype.Int (* bare char is an int at the meta level *)
  in
  let param_type p =
    match p with
    | P_decl (specs, pd) ->
        let _, ty = of_declarator ~loc (base_of_specs ~loc specs) pd in
        ty
    | P_name id ->
        error id.id_loc
          "meta function parameters need declared types (K&R style is \
           object-level only)"
    | P_ellipsis ->
        error loc "variadic parameters are object-level only"
    | P_splice _ -> error loc "placeholder in meta function parameters"
  in
  let rec go d (t : base) : string * Mtype.t =
    match d with
    | D_ident id -> (id.id_name, scalar t)
    | D_abstract -> ("", scalar t)
    | D_array (inner, _size) -> go inner (Scalar (Mtype.List (scalar t)))
    | D_pointer inner -> (
        match t with
        | Char -> go inner (Scalar Mtype.String)
        | Scalar _ ->
            error loc
              "pointer declarators are not meaningful at the meta level \
               (except char *)")
    | D_func (inner, params) ->
        (* the paper's anonymous functions "may only be passed
           downwards": no function-returning meta functions *)
        (match t with
        | Scalar (Mtype.Fun _) ->
            error loc
              "meta functions cannot return functions (anonymous functions \
               may only be passed downward)"
        | Scalar _ | Char -> ());
        go inner (Scalar (Mtype.Fun (List.map param_type params, scalar t)))
    | D_splice _ -> error loc "placeholder in meta declarator"
  in
  go d base

(** Meta type and name declared by [specs d], e.g. [@id ids[]] gives
    [("ids", List (Ast Id))] and [char *s] gives [("s", String)]. *)
let of_decl ~loc (specs : spec list) (d : declarator) : string * Mtype.t =
  of_declarator ~loc (base_of_specs ~loc specs) d

(** The parameter list of a function declarator, looking through array
    and pointer layers (so [f(@id x)[]], a function returning a list,
    yields [x]'s declaration). *)
let rec func_params : declarator -> param list option = function
  | D_func ((D_ident _ | D_abstract), ps) -> Some ps
  | D_func (inner, ps) -> (
      match func_params inner with Some ps' -> Some ps' | None -> Some ps)
  | D_array (d, _) | D_pointer d -> func_params d
  | D_ident _ | D_abstract | D_splice _ -> None

(** Named parameters of a meta function declarator, in order. *)
let params_of_func ~loc (params : param list) : (string * Mtype.t) list =
  List.map
    (function
      | P_decl (specs, pd) -> of_decl ~loc specs pd
      | P_name id ->
          error id.id_loc "meta function parameters need declared types"
      | P_ellipsis ->
        error loc "variadic parameters are object-level only"
    | P_splice _ -> error loc "placeholder in meta function parameters")
    params

(** Does a specifier list mention an AST type anywhere (directly or in a
    struct field)?  Used to classify top-level definitions as meta
    functions. *)
let rec specs_mention_ast specs =
  List.exists
    (function
      | S_ast _ -> true
      | S_struct (_, Some fields) | S_union (_, Some fields) ->
          List.exists (fun f -> specs_mention_ast f.f_specs) fields
      | _ -> false)
    specs

let rec declarator_mentions_ast = function
  | D_ident _ | D_abstract | D_splice _ -> false
  | D_pointer d | D_array (d, _) -> declarator_mentions_ast d
  | D_func (d, params) ->
      declarator_mentions_ast d
      || List.exists
           (function
             | P_decl (specs, pd) ->
                 specs_mention_ast specs || declarator_mentions_ast pd
             | P_name _ | P_ellipsis | P_splice _ -> false)
           params
