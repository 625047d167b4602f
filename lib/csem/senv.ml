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
  (* Once [log_top_writes] turns logging on, [set_tables] to [log_base]
     opens a fresh top-level layer over the base's scopes ([floor]), so
     the layer holds exactly the top-scope bindings written since (a
     speculation worker's delta, built by its own writes), and the
     bindings written into the layer and the layout table are logged,
     so a worker measures a fragment's writes in time proportional to
     them.  Without logging, [floor] is []: the top scope is the
     outermost one. *)
  mutable logging : bool;
  mutable floor : scope list;
  mutable log_base : tables;
  mutable log_vars : (string * Ctype.t) list;  (** newest first *)
  mutable log_typedefs : (string * Ctype.t) list;
  mutable log_layouts : (string * layout) list;
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
    floor = [];
    log_base = tables;
    log_vars = [];
    log_typedefs = [];
    log_layouts = [];
  }

let tables t = t.tables

let set_tables t tables =
  if not t.logging then t.tables <- tables
  else begin
    t.tables <- { tables with scopes = empty_scope :: tables.scopes };
    t.floor <- tables.scopes;
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
  | _ :: rest when rest != t.floor ->
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

(* Bind [name] in the innermost scope's variables or typedefs; [true]
   when that scope is the top (global) one, whose writes the odometers
   count. *)
let bind_innermost t ~typedef name ty : bool =
  match t.tables.scopes with
  | s :: rest ->
      let s =
        if typedef then { s with typedefs = Smap.add name ty s.typedefs }
        else { s with vars = Smap.add name ty s.vars }
      in
      t.tables <- { t.tables with scopes = s :: rest };
      rest == t.floor
  | [] -> assert false

let add_var t name ty =
  if bind_innermost t ~typedef:false name ty then begin
    t.writes_vars <- t.writes_vars + 1;
    if t.logging then t.log_vars <- (name, ty) :: t.log_vars
  end

let add_typedef t name ty =
  if bind_innermost t ~typedef:true name ty then begin
    t.writes_typedefs <- t.writes_typedefs + 1;
    if t.logging then t.log_typedefs <- (name, ty) :: t.log_typedefs
  end

let add_layout t tag fields =
  t.writes_layouts <- t.writes_layouts + 1;
  let index =
    List.fold_left
      (fun index (name, ty) ->
        (* first declaration of a duplicated field name wins, matching the
           old [List.assoc_opt] front-to-back resolution *)
        if Smap.mem name index then index else Smap.add name ty index)
      Smap.empty fields
  in
  let layout = { fields; index } in
  if t.logging then t.log_layouts <- (tag, layout) :: t.log_layouts;
  t.tables <- { t.tables with layouts = Smap.add tag layout t.tables.layouts }

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

(** A point in a logging environment's write log: the tables it was
    last {!set_tables} to, and the bindings written since, newest first.
    The writes between two marks are the front of the later mark's logs
    down to the earlier mark's (a suffix of them, by sharing), so a mark
    costs one small record and keeps no version of the tables alive. *)
type mark = {
  mk_base : tables;
  mk_vars : (string * Ctype.t) list;
  mk_typedefs : (string * Ctype.t) list;
  mk_layouts : (string * layout) list;
}

let mark t =
  if not t.logging then invalid_arg "Senv.mark: writes are not logged";
  { mk_base = t.log_base; mk_vars = t.log_vars;
    mk_typedefs = t.log_typedefs; mk_layouts = t.log_layouts }

(* The entries of [log] written after [stop] (a suffix of [log]). *)
let rec exists_since p log stop =
  log != stop
  && match log with [] -> false | e :: rest -> p e || exists_since p rest stop

(* The latest value of every name written after [stop], as a map. *)
let rec latest_since log stop acc =
  if log == stop then acc
  else
    match log with
    | [] -> acc
    | (name, v) :: rest ->
        latest_since rest stop
          (if Smap.mem name acc then acc else Smap.add name v acc)

(* The logs [since] leaves off at ([] = everything since the base). *)
let stops ~base = function
  | None -> ([], [], [])
  | Some s ->
      if s.mk_base != base then invalid_arg "Senv: marks of different bases";
      (s.mk_vars, s.mk_typedefs, s.mk_layouts)

(* [t]'s top-level layer and its base's one scope, when both are at a
   fragment boundary. *)
let boundary t =
  match (t.tables.scopes, t.log_base.scopes) with
  | layer :: floor, [ base_top ] when t.logging && floor == t.log_base.scopes ->
      Some (layer, base_top)
  | _ -> None

let same_type (ty0 : Ctype.t) ty = ty0 == ty || ty0 = ty

let changed ?since t : (bool * bool * bool) option =
  match boundary t with
  | None -> None
  | Some (layer, base_top) ->
      let sv, st, sl = stops ~base:t.log_base since in
      let differs same cur base (name, _) =
        match Smap.find_opt name base with
        | Some v0 -> not (same v0 (Smap.find name cur))
        | None -> true
      in
      Some
        ( exists_since
            (differs same_type layer.vars base_top.vars)
            t.log_vars sv,
          exists_since
            (differs same_type layer.typedefs base_top.typedefs)
            t.log_typedefs st,
          exists_since
            (differs ( == ) t.tables.layouts t.log_base.layouts)
            t.log_layouts sl )

(** Every top-scope binding written over a stretch of a write log,
    valued as at its end.  Unchanged rewrites are kept: the tables a
    delta lands on need not be the base it was measured from. *)
type top_delta = {
  dl_vars : Ctype.t Smap.t;
  dl_typedefs : Ctype.t Smap.t;
  dl_layouts : layout Smap.t;
}

let written t : top_delta =
  match boundary t with
  | None -> invalid_arg "Senv.written: not at a fragment boundary"
  | Some (layer, _) ->
      (* the layer is every write since the base *)
      { dl_vars = layer.vars; dl_typedefs = layer.typedefs;
        dl_layouts = latest_since t.log_layouts [] Smap.empty }

let delta ?since (m : mark) : top_delta =
  let sv, st, sl = stops ~base:m.mk_base since in
  { dl_vars = latest_since m.mk_vars sv Smap.empty;
    dl_typedefs = latest_since m.mk_typedefs st Smap.empty;
    dl_layouts = latest_since m.mk_layouts sl Smap.empty }

(** Lay a delta over [t]'s innermost scope and the layout table, the
    delta's bindings winning: one map union per table.  Not counted by
    the write odometers, which measure what an expansion on [t] wrote. *)
let apply_top (t : t) (d : top_delta) : unit =
  let over base d = Smap.union (fun _ _ v -> Some v) base d in
  match t.tables.scopes with
  | scope :: rest ->
      t.tables <-
        { t.tables with
          scopes =
            { vars = over scope.vars d.dl_vars;
              typedefs = over scope.typedefs d.dl_typedefs }
            :: rest;
          layouts = over t.tables.layouts d.dl_layouts }
  | [] -> assert false

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
