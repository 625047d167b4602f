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

type t = {
  mutable tables : tables;
  (* Read/write odometers for the speculative fragment commit protocol
     (see engine.ml): a speculative fragment expanded against the
     run-start tables is only committable when either it read nothing
     from a table kind, or nothing of that kind was written since.  The
     counters are monotonic and never rolled back;
     callers measure deltas.  Writes count only top-scope mutations —
     function-local scopes are popped before a fragment boundary, so
     they cannot be observed across fragments. *)
  mutable reads_vars : int;
  mutable reads_typedefs : int;
  mutable reads_layouts : int;
  mutable writes_vars : int;
  mutable writes_typedefs : int;
  mutable writes_layouts : int;
  (* The names written into the top scope (and layout table) since the
     last [set_tables] to [log_base], kept only once [log_top_writes]
     turns it on: a speculation worker diffs a fragment's writes in time
     proportional to them, not to the whole top scope. *)
  mutable logging : bool;
  mutable log_base : tables;
  mutable log_vars : string list;
  mutable log_typedefs : string list;
  mutable log_layouts : string list;
}

let empty_scope = { vars = Smap.empty; typedefs = Smap.empty }

let create () =
  let tables = { scopes = [ empty_scope ]; layouts = Smap.empty; anon = 0 } in
  {
    tables;
    reads_vars = 0;
    reads_typedefs = 0;
    reads_layouts = 0;
    writes_vars = 0;
    writes_typedefs = 0;
    writes_layouts = 0;
    logging = false;
    log_base = tables;
    log_vars = [];
    log_typedefs = [];
    log_layouts = [];
  }

let tables t = t.tables

let set_tables t tables =
  t.tables <- tables;
  if t.logging then begin
    t.log_base <- tables;
    t.log_vars <- [];
    t.log_typedefs <- [];
    t.log_layouts <- []
  end

let log_top_writes t =
  t.logging <- true;
  set_tables t t.tables

let push_scope t =
  t.tables <- { t.tables with scopes = empty_scope :: t.tables.scopes }

let pop_scope t =
  match t.tables.scopes with
  | [] | [ _ ] -> invalid_arg "Senv.pop_scope: global scope"
  | _ :: rest -> t.tables <- { t.tables with scopes = rest }

let with_scope t f =
  push_scope t;
  Fun.protect ~finally:(fun () -> pop_scope t) f

let depth tables = List.length tables.scopes

let fresh_tag t =
  t.tables <- { t.tables with anon = t.tables.anon + 1 };
  Printf.sprintf "<anonymous-%d>" t.tables.anon

let anon_count tables = tables.anon

(* Replace the innermost scope by [f] of it; [true] when that scope is
   the top (global) one, whose writes the odometers count. *)
let update_scope t f : bool =
  match t.tables.scopes with
  | scope :: rest ->
      t.tables <- { t.tables with scopes = f scope :: rest };
      rest == []
  | [] -> assert false

let add_var t name ty =
  if update_scope t (fun s -> { s with vars = Smap.add name ty s.vars }) then begin
    t.writes_vars <- t.writes_vars + 1;
    if t.logging then t.log_vars <- name :: t.log_vars
  end

let add_typedef t name ty =
  if
    update_scope t (fun s ->
        { s with typedefs = Smap.add name ty s.typedefs })
  then begin
    t.writes_typedefs <- t.writes_typedefs + 1;
    if t.logging then t.log_typedefs <- name :: t.log_typedefs
  end

let add_layout t tag fields =
  t.writes_layouts <- t.writes_layouts + 1;
  if t.logging then t.log_layouts <- tag :: t.log_layouts;
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

let find_var t name =
  t.reads_vars <- t.reads_vars + 1;
  find (fun s -> s.vars) t name

let find_typedef t name =
  t.reads_typedefs <- t.reads_typedefs + 1;
  find (fun s -> s.typedefs) t name

let find_layout t tag =
  t.reads_layouts <- t.reads_layouts + 1;
  match Smap.find_opt tag t.tables.layouts with
  | Some layout -> Some layout.fields
  | None -> None

(** Field type within a struct/union, [Unknown] when the layout (or the
    field) is unknown. *)
let field_type t tag field : Ctype.t =
  t.reads_layouts <- t.reads_layouts + 1;
  match Smap.find_opt tag t.tables.layouts with
  | None -> Ctype.Unknown
  | Some layout -> (
      match Smap.find_opt field layout.index with
      | Some ty -> ty
      | None -> Ctype.Unknown)

(* -- speculative-commit support ------------------------------------- *)

(** Per-kind (vars, typedefs, layouts) counter triples, as deltas of
    monotonic odometers.  See the field comments on [t]. *)
let reads t = (t.reads_vars, t.reads_typedefs, t.reads_layouts)
let writes t = (t.writes_vars, t.writes_typedefs, t.writes_layouts)

(** The top-scope difference between [t] and the tables it was last set
    to: what a speculative fragment wrote, found by looking up each
    logged name.  [None] when the environments are not at a comparable
    fragment boundary (both must be a single open scope).
    Unchanged-binding detection is physical first: a binding the
    fragment did not touch is the very value the base holds. *)
type top_delta = {
  dl_vars : (string * Ctype.t) list;
  dl_typedefs : (string * Ctype.t) list;
  dl_layouts : (string * (string * Ctype.t) list) list;
}

let diff_top (t : t) : top_delta option =
  if not t.logging then invalid_arg "Senv.diff_top: writes are not logged";
  let base = t.log_base in
  match (t.tables.scopes, base.scopes) with
  | [ top ], [ base_top ] ->
      (* the changed bindings, in descending key order *)
      let map_delta same log cur base =
        List.fold_left
          (fun acc name ->
            let v = Smap.find name cur in
            match Smap.find_opt name base with
            | Some v0 when same v0 v -> acc
            | _ -> (name, v) :: acc)
          [] (List.sort_uniq String.compare log)
      in
      let same_type ty0 ty = ty0 == ty || ty0 = ty in
      Some
        {
          dl_vars = map_delta same_type t.log_vars top.vars base_top.vars;
          dl_typedefs =
            map_delta same_type t.log_typedefs top.typedefs base_top.typedefs;
          dl_layouts =
            List.map
              (fun (tag, layout) -> (tag, layout.fields))
              (map_delta ( == ) t.log_layouts t.tables.layouts base.layouts);
        }
  | _ -> None

let delta_counts (d : top_delta) : int * int * int =
  (List.length d.dl_vars, List.length d.dl_typedefs, List.length d.dl_layouts)

(** Replay a delta into [t]'s innermost scope.  [add_layout] rebuilds
    the field index exactly as the original binding would have, so the
    committed state is indistinguishable from a sequential run. *)
let apply_top (t : t) (d : top_delta) : unit =
  List.iter (fun (name, ty) -> add_var t name ty) d.dl_vars;
  List.iter (fun (name, ty) -> add_typedef t name ty) d.dl_typedefs;
  List.iter (fun (tag, fields) -> add_layout t tag fields) d.dl_layouts

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
