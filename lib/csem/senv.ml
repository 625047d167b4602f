(** Scoped symbol tables for the object-level semantic analysis.

    Tracks, per scope: variables and functions (name → type), typedefs
    (name → type), enum constants (name → enum type), and — globally,
    since C tags share one file-scope namespace per kind in our subset —
    struct/union field layouts.

    Every table is an immutable map keyed by spelling, gathered in one
    immutable {!tables} value: the engine checkpoints the environment by
    keeping that value and rolls back by storing it again, and a cache
    entry's post-state shares all but the changed paths with the live
    session.  Field layouts keep their declared order (the public
    [(string * Ctype.t) list] view) alongside a field index, so
    [field_type] is a map lookup rather than an association-list walk —
    wide structs made the linear scan a real cost. *)

module Smap = Ms2_support.Smap

type scope = { vars : Ctype.t Smap.t; typedefs : Ctype.t Smap.t }

(** A struct/union layout: declared field order plus a lookup index. *)
type layout = {
  fields : (string * Ctype.t) list;  (** declared order, public view *)
  index : Ctype.t Smap.t;  (** field name → type *)
}

type tables = {
  scopes : scope list;  (** innermost first *)
  layouts : layout Smap.t;  (** struct/union tag → field layout *)
  anon : int;  (** anonymous tags minted so far *)
}

type t = { mutable tables : tables }

let empty_scope = { vars = Smap.empty; typedefs = Smap.empty }

let create () =
  { tables = { scopes = [ empty_scope ]; layouts = Smap.empty; anon = 0 } }

let tables t = t.tables
let set_tables t tables = t.tables <- tables

let push_scope t =
  t.tables <- { t.tables with scopes = empty_scope :: t.tables.scopes }

let pop_scope t =
  match t.tables.scopes with
  | _ :: rest when rest <> [] ->
      t.tables <- { t.tables with scopes = rest }
  | _ -> invalid_arg "Senv.pop_scope: global scope"

let with_scope t f =
  push_scope t;
  Fun.protect ~finally:(fun () -> pop_scope t) f

let depth tables = List.length tables.scopes

let fresh_tag t =
  t.tables <- { t.tables with anon = t.tables.anon + 1 };
  Printf.sprintf "<anonymous-%d>" t.tables.anon

let anon_count tables = tables.anon

(* Bind [name] in the innermost scope's variables or typedefs. *)
let bind_innermost t ~typedef name ty =
  match t.tables.scopes with
  | s :: rest ->
      let s =
        if typedef then { s with typedefs = Smap.add name ty s.typedefs }
        else { s with vars = Smap.add name ty s.vars }
      in
      t.tables <- { t.tables with scopes = s :: rest }
  | [] -> assert false

let add_var t name ty = bind_innermost t ~typedef:false name ty
let add_typedef t name ty = bind_innermost t ~typedef:true name ty

let add_layout t tag fields =
  let index =
    List.fold_left
      (fun index (name, ty) ->
        (* first declaration of a duplicated field name wins, matching the
           old [List.assoc_opt] front-to-back resolution *)
        if Smap.mem name index then index else Smap.add name ty index)
      Smap.empty fields
  in
  t.tables <-
    { t.tables with layouts = Smap.add tag { fields; index } t.tables.layouts }

let find tbl_of t name =
  let rec go = function
    | [] -> None
    | scope :: rest -> (
        match Smap.find_opt name (tbl_of scope) with
        | Some v -> Some v
        | None -> go rest)
  in
  go t.tables.scopes

let find_var t name = find (fun s -> s.vars) t name
let find_typedef t name = find (fun s -> s.typedefs) t name

let find_layout t tag =
  match Smap.find_opt tag t.tables.layouts with
  | Some layout -> Some layout.fields
  | None -> None

(** Field type within a struct/union, [Unknown] when the layout (or the
    field) is unknown. *)
let field_type t tag field : Ctype.t =
  match Smap.find_opt tag t.tables.layouts with
  | None -> Ctype.Unknown
  | Some layout -> (
      match Smap.find_opt field layout.index with
      | Some ty -> ty
      | None -> Ctype.Unknown)

(* The digest's text grows with the session and is rebuilt for every
   cache key; one buffer per domain is reused, so a key does not leave a
   freshly grown buffer of that size behind for the collector. *)
let digest_buffer = Domain.DLS.new_key (fun () -> Buffer.create 4096)

(** A deterministic digest of the whole environment (scope structure,
    bindings, layouts), for content-addressed cache keys; every table is
    written in key order.  The anonymous-tag count is included: it
    feeds [fresh_tag], so two states differing only in the count can
    still produce different output.  [Ctype.t] is pure data, so
    marshalling is faithful. *)
let digest (t : t) : string =
  let b = Domain.DLS.get digest_buffer in
  Buffer.clear b;
  let add_tbl label tbl =
    Buffer.add_string b label;
    Smap.iter
      (fun name ty ->
        Buffer.add_string b name;
        Buffer.add_char b '=';
        Buffer.add_string b (Marshal.to_string (ty : Ctype.t) []))
      tbl
  in
  List.iter
    (fun scope ->
      add_tbl "(vars" scope.vars;
      add_tbl ")(typedefs" scope.typedefs;
      Buffer.add_char b ')')
    t.tables.scopes;
  Buffer.add_string b "(layouts";
  Smap.iter
    (fun tag layout ->
      Buffer.add_string b tag;
      Buffer.add_char b '=';
      Buffer.add_string b
        (Marshal.to_string (layout.fields : (string * Ctype.t) list) []))
    t.tables.layouts;
  Buffer.add_char b ')';
  Buffer.add_string b (string_of_int t.tables.anon);
  Digest.string (Buffer.contents b)
