(** Conversion of C declaration syntax to object-level {!Ctype}s, and
    binding of declarations into a {!Senv}.

    Conversion has the side effect of registering struct/union layouts
    and enum constants it encounters, mirroring how a C compiler
    processes declarations left to right. *)

open Ms2_syntax.Ast

let const_int_of (e : expr) : int option =
  match e.e with E_const (Cint (v, _)) -> Some v | _ -> None

(* The type-specifier keywords of a specifier list, as bits. *)
let kw_void = 1
let kw_float = 2
let kw_double = 4
let kw_char = 8
let kw_short = 16
let kw_long = 32
let kw_int = 64
let kw_signed = 128
let kw_unsigned = 256

let rec of_specs (senv : Senv.t) (specs : spec list) : Ctype.t =
  scan_specs senv 0 None None None specs

(* One pass over the specifiers: the keywords present, and the first
   enum, struct/union and typedef name, then the type they make. *)
and scan_specs senv kw enum su named = function
  | spec :: rest -> (
      match spec with
      | S_void -> scan_specs senv (kw lor kw_void) enum su named rest
      | S_float -> scan_specs senv (kw lor kw_float) enum su named rest
      | S_double -> scan_specs senv (kw lor kw_double) enum su named rest
      | S_char -> scan_specs senv (kw lor kw_char) enum su named rest
      | S_short -> scan_specs senv (kw lor kw_short) enum su named rest
      | S_long -> scan_specs senv (kw lor kw_long) enum su named rest
      | S_int -> scan_specs senv (kw lor kw_int) enum su named rest
      | S_signed -> scan_specs senv (kw lor kw_signed) enum su named rest
      | S_unsigned -> scan_specs senv (kw lor kw_unsigned) enum su named rest
      | S_named id when Option.is_none named ->
          scan_specs senv kw enum su (Some id.id_name) rest
      | S_enum es when Option.is_none enum ->
          scan_specs senv kw (Some es) su named rest
      | S_struct (tag, fields) when Option.is_none su ->
          scan_specs senv kw enum (Some (`Struct, tag, fields)) named rest
      | S_union (tag, fields) when Option.is_none su ->
          scan_specs senv kw enum (Some (`Union, tag, fields)) named rest
      | _ -> scan_specs senv kw enum su named rest)
  | [] -> (
      let unsigned = kw land kw_unsigned <> 0 in
      if kw land kw_void <> 0 then Ctype.Void
      else if kw land kw_float <> 0 then Ctype.Floating { double = false }
      else if kw land kw_double <> 0 then Ctype.Floating { double = true }
      else if kw land kw_char <> 0 then
        Ctype.Integer { unsigned; rank = Ctype.Rchar }
      else if kw land kw_short <> 0 then
        Ctype.Integer { unsigned; rank = Ctype.Rshort }
      else if kw land kw_long <> 0 then
        Ctype.Integer { unsigned; rank = Ctype.Rlong }
      else
        match (enum, su, named) with
        | Some es, _, _ -> of_enum senv es
        | None, Some (kind, tag, fields), _ -> of_su senv kind tag fields
        | None, None, Some name -> (
            match Senv.find_typedef senv name with
            | Some ty -> ty
            | None -> Ctype.Unknown)
        | None, None, None ->
            if kw land (kw_int lor kw_signed lor kw_unsigned) <> 0 then
              Ctype.Integer { unsigned; rank = Ctype.Rint }
            else Ctype.Unknown)

and of_enum senv (es : enum_spec) : Ctype.t =
  let tag =
    match es.enum_tag with
    | Some (Ii_id id) -> id.id_name
    | Some (Ii_splice _) | None -> Senv.fresh_tag senv
  in
  let ty = Ctype.Enum_t tag in
  (match es.enum_items with
  | None -> ()
  | Some items ->
      (* enum constants enter the variable namespace with the enum type *)
      List.iter
        (function
          | Enum_item (Ii_id id, _) -> Senv.add_var senv id.id_name ty
          | Enum_item (Ii_splice _, _) | Enum_splice _ -> ())
        items);
  ty

and of_su senv kind tag fields : Ctype.t =
  let tag =
    match tag with
    | Some (Ii_id id) -> id.id_name
    | Some (Ii_splice _) | None -> Senv.fresh_tag senv
  in
  (match fields with
  | None -> ()
  | Some fields ->
      let layout =
        List.concat_map
          (fun f ->
            let base = of_specs senv f.f_specs in
            List.filter_map
              (fun d ->
                match of_declarator senv base d with
                | "", _ -> None
                | name, ty -> Some (name, ty))
              f.f_declarators)
          fields
      in
      Senv.add_layout senv tag layout);
  match kind with
  | `Struct -> Ctype.Struct_t tag
  | `Union -> Ctype.Union_t tag

(** Standard C declarator reading: thread the type constructor down. *)
and of_declarator senv (base : Ctype.t) (d : declarator) : string * Ctype.t =
  match d with
  | D_ident id -> (id.id_name, base)
  | D_abstract -> ("", base)
  | D_pointer inner -> of_declarator senv (Ctype.Pointer base) inner
  | D_array (inner, size) ->
      let size = Option.bind size const_int_of in
      of_declarator senv (Ctype.Array (base, size)) inner
  | D_func (inner, []) ->
      (* "()" — unprototyped in our subset (also matches "(void)") *)
      of_declarator senv (Ctype.Func (None, base)) inner
  | D_func (inner, params) when List.mem P_ellipsis params ->
      (* variadic prototype: treated as unprototyped for arity checks *)
      of_declarator senv (Ctype.Func (None, base)) inner
  | D_func (inner, params) ->
      let params = List.map (param_type senv) params in
      of_declarator senv (Ctype.Func (Some params, base)) inner
  | D_splice _ -> ("", Ctype.Unknown)

and param_type senv = function
  | P_decl (specs, pd) ->
      let _, ty = of_declarator senv (of_specs senv specs) pd in
      Ctype.decay ty
  | P_name _ -> Ctype.Unknown (* K&R: typed by separate declarations *)
  | P_ellipsis | P_splice _ -> Ctype.Unknown

let of_type_name senv (ct : ctype) : Ctype.t =
  snd (of_declarator senv (of_specs senv ct.ct_specs) ct.ct_decl)

(* ------------------------------------------------------------------ *)
(* Binding declarations into the environment                           *)
(* ------------------------------------------------------------------ *)

(** Process a declaration as a C compiler would: register tags, enum
    constants, typedefs, and declared names. *)
let bind_decl (senv : Senv.t) (decl : decl) : unit =
  match decl.d with
  | Decl_plain (specs, idecls) ->
      let base = of_specs senv specs in
      let is_typedef = List.mem S_typedef specs in
      List.iter
        (function
          | Init_decl (d, _) -> (
              match of_declarator senv base d with
              | "", _ -> ()
              | name, ty ->
                  if is_typedef then Senv.add_typedef senv name ty
                  else Senv.add_var senv name ty)
          | Init_splice _ -> ())
        idecls
  | Decl_fun (specs, d, _, _) -> (
      let base = of_specs senv specs in
      match of_declarator senv base d with
      | "", _ -> ()
      | name, ty -> Senv.add_var senv name ty)
  | Decl_metadcl _ | Decl_macro_def _ | Decl_splice _ | Decl_macro _ -> ()

(** Bind a function definition's parameters in the current scope (call
    after [Senv.push_scope]).  K&R parameter names take their types from
    the K&R declarations, defaulting to [int]. *)
let bind_params (senv : Senv.t) (d : declarator) (kr : decl list) : unit =
  let kr_type name =
    let found = ref None in
    List.iter
      (fun (decl : decl) ->
        match decl.d with
        | Decl_plain (specs, idecls) ->
            let base = of_specs senv specs in
            List.iter
              (function
                | Init_decl (dd, _) -> (
                    match of_declarator senv base dd with
                    | n, ty when n = name -> found := Some ty
                    | _ -> ())
                | Init_splice _ -> ())
              idecls
        | _ -> ())
      kr;
    match !found with Some ty -> ty | None -> Ctype.int_t
  in
  let rec params_of = function
    | D_func (inner, ps) -> (
        match params_of inner with [] -> ps | deeper -> deeper)
    | D_pointer d | D_array (d, _) -> params_of d
    | D_ident _ | D_abstract | D_splice _ -> []
  in
  List.iter
    (fun p ->
      match p with
      | P_decl (specs, pd) -> (
          let base = of_specs senv specs in
          match of_declarator senv base pd with
          | "", _ -> ()
          | name, ty -> Senv.add_var senv name (Ctype.decay ty))
      | P_name id -> Senv.add_var senv id.id_name (kr_type id.id_name)
      | P_ellipsis | P_splice _ -> ())
    (params_of d)
