(** Runtime values of the macro (meta) language.

    Meta programs run at macro-expansion time; their values are C scalars
    (ints, strings), AST nodes, lists, tuples, and the paper's
    anonymous functions. *)

open Ms2_syntax
open Ms2_support
module Mtype = Ms2_mtype.Mtype
module Sort = Ms2_mtype.Sort

type t =
  | Vint of int
  | Vstring of string
  | Vnode of Ast.node
  | Vlist of t list
  | Vtuple of (string * t) list
  | Vclosure of closure
  | Vbuiltin of string  (** a primitive function used as a value *)
  | Vvoid  (** value of [error]/[print]; also "uninitialized" *)

and closure = {
  cl_params : (string * Mtype.t) list;
  cl_body : body;
  cl_scopes : scope list;
      (** the local scopes it was created under, by reference (a
          [Frozen] copy in a global, [[]] for meta functions).  Globals
          are read from the calling session *)
}

(** Anonymous functions have expression bodies (no [return] needed, per
    the paper); meta functions have statement bodies. *)
and body = Body_expr of Ast.expr | Body_stmt of Ast.stmt

(** One local scope, assigned in place, or an escaped lambda's frozen
    captures. *)
and scope = Local of (string, t ref) Hashtbl.t | Frozen of t Smap.t

(** Runtime environments: a stack of mutable local scopes over one
    persistent map of globals.  The globals hold [metadcl] variables
    and meta functions, and persist across macro expansions — which is
    what makes the paper's non-local transformations (the
    window-procedure example) work.  No value refers to an env, so the
    map is a session's whole meta state, valid on any engine. *)
and env = {
  mutable scopes : scope list;
      (** local scopes, innermost first; [[]] at top level, where
          {!bind} binds globals *)
  globals : t Smap.t ref;
      (** [metadcl] globals and meta functions; the ref is shared by
          {!derived} environments *)
  gensym : Gensym.t;
  mutable hygienic : bool;
      (** rename template-introduced block locals automatically when
          filling templates (the paper's future-work hygiene, opt-in) *)
  mutable semantic : Ms2_csem.Senv.t option;
      (** the object-level symbol table at the current expansion point,
          maintained by the engine; powers the semantic-macro primitives
          (exp_typespec, type_name_of, ...) *)
  expand_invocation : (Ast.invocation -> t) ref;
      (** hook installed by the expansion engine so meta code (and filled
          templates) can expand macro invocations *)
  budget : budget;
      (** fuel and output-size accounting, shared (not copied) by every
          {!derived} environment so all meta code drains one pool *)
  provenance : Loc.origin ref;
      (** the expansion frame the engine is currently inside ([User]
          outside any invocation); shared by every {!derived}
          environment.  The template filler reads it to stamp the
          origin of every node it produces *)
}

(** Mutable resource counters.  [fuel] and [nodes] count *down*;
    [max_int] effectively disables a bound (decrements still happen, so
    consumption can always be observed via the [_initial] baselines).
    The engine narrows both to per-invocation caps around each macro
    invocation. *)
and budget = {
  mutable fuel : int;  (** remaining interpreter steps *)
  mutable nodes : int;  (** remaining produced-AST node allowance *)
  fuel_initial : int;  (** the fuel one arming grants *)
  nodes_initial : int;
  mutable fuel_spent : int;  (** fuel consumed before the last re-arm *)
  watchdog : Watchdog.t;
      (** wall-clock deadline, polled from the fuel hook so a stalling
          meta-program is bounded in time as well as in steps *)
}

(* No dummy default: every expansion-error site must say where.  Sites
   with genuinely no span pass [Loc.dummy] explicitly. *)
let error ~loc fmt = Diag.error ~loc Diag.Expansion fmt

let create_budget ?(fuel = max_int) ?(nodes = max_int) ?watchdog () : budget =
  let watchdog =
    match watchdog with Some w -> w | None -> Watchdog.create ()
  in
  { fuel; nodes; fuel_initial = fuel; nodes_initial = nodes; fuel_spent = 0;
    watchdog }

let fuel_consumed b = b.fuel_spent + (b.fuel_initial - b.fuel)
let nodes_produced b = b.nodes_initial - b.nodes

let rearm_fuel b =
  b.fuel_spent <- fuel_consumed b;
  b.fuel <- b.fuel_initial

let out_of_fuel ~loc =
  Diag.error ~loc ~code:Diag.code_fuel Diag.Resource
    "meta-program fuel budget exhausted; is a macro body looping forever?"

(** Charge one interpreter step; raises a [Resource] diagnostic once the
    budget runs dry.  Kept tiny — it runs on every statement executed
    and expression evaluated. *)
let charge_fuel env ~loc =
  let b = env.budget in
  let f = b.fuel - 1 in
  b.fuel <- f;
  if f < 0 then out_of_fuel ~loc;
  Watchdog.poll b.watchdog ~loc

let out_of_nodes ~loc =
  Diag.error ~loc ~code:Diag.code_nodes Diag.Resource
    "macro expansion exceeded its produced-AST node budget (an expansion \
     bomb?)"

(** Charge one produced AST node (called by the template filler). *)
let charge_node env ~loc =
  let b = env.budget in
  let n = b.nodes - 1 in
  b.nodes <- n;
  if n < 0 then out_of_nodes ~loc

let create_env ?gensym ?budget () : env =
  {
    scopes = [];
    globals = ref Smap.empty;
    gensym = (match gensym with Some g -> g | None -> Gensym.create ());
    hygienic = false;
    semantic = None;
    expand_invocation =
      ref (fun (inv : Ast.invocation) ->
          error ~loc:inv.Ast.inv_loc
            "macro invocations inside meta code need an expansion engine");
    budget = (match budget with Some b -> b | None -> create_budget ());
    provenance = ref Loc.User;
  }

let push_scope env = env.scopes <- Local (Hashtbl.create 16) :: env.scopes

let pop_scope env =
  match env.scopes with
  | [] -> invalid_arg "Value.pop_scope: no local scope"
  | _ :: rest -> env.scopes <- rest

let with_scope env f =
  push_scope env;
  Fun.protect ~finally:(fun () -> pop_scope env) f

(** A child environment over [scopes] sharing the globals — the frame a
    macro body or a closure runs in: its locals do not leak, [metadcl]
    globals are shared. *)
let derived ?(scopes = []) env : env =
  { env with scopes = Local (Hashtbl.create 16) :: scopes }

(* [List.map f l], or [l] itself when [f] returns every element (before
   the tail [stop]) itself *)
let rec map_shared ?(stop = []) f l =
  if l == stop then l
  else
    match l with
    | [] -> l
    | x :: rest ->
        let x' = f x and rest' = map_shared ~stop f rest in
        if x' == x && rest' == rest then l else x' :: rest'

exception Cyclic

(* [v] with each lambda over [Local] scopes (a lambda's innermost one
   is, until frozen) holding its captures by value instead.  A capture
   holding a lambda over a scope being frozen ([busy]) would contain
   itself: it is left out.  [old] is a frozen list [v] may extend. *)
let rec freeze ?(old = []) ~busy v =
  match v with
  | Vclosure ({ cl_scopes = Local _ :: _; _ } as cl) ->
      if List.exists (fun s -> List.memq s busy) cl.cl_scopes then
        raise Cyclic;
      let busy = cl.cl_scopes @ busy in
      let captured =
        List.fold_right
          (fun scope acc ->
            match scope with
            | Frozen m -> Smap.union (fun _ _ inner -> Some inner) acc m
            | Local tbl ->
                Hashtbl.fold
                  (fun name r acc ->
                    match freeze ~busy !r with
                    | v -> Smap.add name v acc
                    | exception Cyclic -> Smap.remove name acc)
                  tbl acc)
          cl.cl_scopes Smap.empty
      in
      Vclosure { cl with cl_scopes = [ Frozen captured ] }
  | Vlist items ->
      let items' = map_shared ~stop:old (freeze ~busy) items in
      if items' == items then v else Vlist items'
  | Vtuple fields ->
      let fields' =
        map_shared
          (fun ((n, x) as f) ->
            let x' = freeze ~busy x in
            if x' == x then f else (n, x'))
          fields
      in
      if fields' == fields then v else Vtuple fields'
  | Vclosure _ | Vint _ | Vstring _ | Vnode _ | Vbuiltin _ | Vvoid -> v

(* A global outlives the scopes a lambda in it captured: it holds a
   frozen copy, closed like every other global. *)
let bind_global env name v =
  let old =
    match Smap.find_opt name !(env.globals) with
    | Some (Vlist l) -> l
    | _ -> []
  in
  env.globals := Smap.add name (freeze ~old ~busy:[] v) !(env.globals)

let bind env name v =
  match env.scopes with
  | Local tbl :: _ -> Hashtbl.replace tbl name (ref v)
  | Frozen _ :: _ -> invalid_arg "Value.bind: no local scope"
  | [] -> bind_global env name v

let lookup env name : t option =
  let rec go = function
    | Local tbl :: rest -> (
        match Hashtbl.find_opt tbl name with
        | Some r -> Some !r
        | None -> go rest)
    | Frozen m :: rest -> (
        match Smap.find_opt name m with Some _ as v -> v | None -> go rest)
    | [] -> Smap.find_opt name !(env.globals)
  in
  go env.scopes

let assign env ~loc name v : bool =
  let rec go = function
    | Local tbl :: rest -> (
        match Hashtbl.find_opt tbl name with
        | Some r -> r := v; true
        | None -> go rest)
    | Frozen m :: rest ->
        if Smap.mem name m then
          error ~loc "cannot assign %s: a lambda in a global captured it \
                      by value" name
        else go rest
    | [] when Smap.mem name !(env.globals) ->
        bind_global env name v;
        true
    | [] -> false
  in
  go env.scopes

(** Default value for a declared-but-uninitialized meta variable: lists
    start empty (so [metadcl @stmt frags[];] can be accumulated into),
    ints are 0, strings are empty; AST variables start out void and
    reading one is an expansion error. *)
let rec default_of_type : Mtype.t -> t = function
  | Mtype.Int -> Vint 0
  | Mtype.String -> Vstring ""
  | Mtype.List _ -> Vlist []
  | Mtype.Tuple fields ->
      Vtuple
        (List.map
           (fun f -> (f.Mtype.fld_name, default_of_type f.Mtype.fld_type))
           fields)
  | Mtype.Ast _ | Mtype.Void | Mtype.Fun _ -> Vvoid

let type_name = function
  | Vint _ -> "int"
  | Vstring _ -> "string"
  | Vnode n -> "@" ^ Sort.keyword (Ast.node_sort n)
  | Vlist _ -> "list"
  | Vtuple _ -> "tuple"
  | Vclosure _ | Vbuiltin _ -> "function"
  | Vvoid -> "void"

let rec pp ppf = function
  | Vint n -> Fmt.int ppf n
  | Vstring s -> Fmt.pf ppf "%S" s
  | Vnode n -> Fmt.pf ppf "@[%s@]" (Pretty.node_to_string n)
  | Vlist items -> Fmt.pf ppf "[%a]" (Fmt.list ~sep:(Fmt.any "; ") pp) items
  | Vtuple fields ->
      let f ppf (n, v) = Fmt.pf ppf "%s = %a" n pp v in
      Fmt.pf ppf "{%a}" (Fmt.list ~sep:(Fmt.any "; ") f) fields
  | Vclosure _ -> Fmt.string ppf "<function>"
  | Vbuiltin name -> Fmt.pf ppf "<builtin %s>" name
  | Vvoid -> Fmt.string ppf "<void>"

let to_string v = Fmt.str "%a" pp v

(** Convert a parsed actual parameter to a runtime value. *)
let rec of_actual : Ast.actual -> t = function
  | Ast.Act_node n -> Vnode n
  | Ast.Act_list items -> Vlist (List.map of_actual items)
  | Ast.Act_tuple fields ->
      Vtuple (List.map (fun (n, a) -> (n, of_actual a)) fields)

(* -- tuple field selection ------------------------------------------ *)

(* Below this width a linear scan is cheaper than any index. *)
let tuple_index_threshold = 16

(* Tiny identity-keyed cache of field indexes for wide tuples.  Keyed by
   the physical fields list, so a hot loop selecting from the same tuple
   value builds its index once.  Fixed size, round-robin eviction: the
   cache can never retain more than [Array.length] dead tuples.  An
   index is complete before it is published to a slot and never written
   after, so domains read it concurrently. *)
let tuple_index_cache :
    ((string * t) list * (string, t) Hashtbl.t) option array =
  Array.make 8 None

let tuple_index_next = ref 0

let tuple_index (fields : (string * t) list) : (string, t) Hashtbl.t =
  let n = Array.length tuple_index_cache in
  let rec probe i =
    if i >= n then None
    else
      match tuple_index_cache.(i) with
      | Some (key, idx) when key == fields -> Some idx
      | _ -> probe (i + 1)
  in
  match probe 0 with
  | Some idx -> idx
  | None ->
      let idx = Hashtbl.create (List.length fields * 2) in
      List.iter
        (fun (name, v) ->
          (* first field wins, matching assoc-style resolution *)
          if not (Hashtbl.mem idx name) then Hashtbl.replace idx name v)
        fields;
      tuple_index_cache.(!tuple_index_next) <- Some (fields, idx);
      tuple_index_next := (!tuple_index_next + 1) mod n;
      idx

(** [tuple_field fields name] resolves a field of a [Vtuple] payload.
    Narrow tuples use a linear scan; wide ones (≥ 16 fields) go through
    a per-value memoized index, so repeated selections cost O(1) instead
    of O(width). *)
let tuple_field (fields : (string * t) list) (name : string) : t option =
  let rec scan n = function
    | [] -> None
    | (f, v) :: rest ->
        if String.equal f name then Some v
        else if n >= tuple_index_threshold then
          Hashtbl.find_opt (tuple_index fields) name
        else scan (n + 1) rest
  in
  scan 0 fields

(** Truthiness for meta conditionals: ints like C; other values err. *)
let truthy ~loc = function
  | Vint n -> n <> 0
  | v -> error ~loc "expected an int in a condition, got a %s" (type_name v)

let as_int ~loc ~what = function
  | Vint n -> n
  | v -> error ~loc "%s: expected an int, got a %s" what (type_name v)

let as_string ~loc ~what = function
  | Vstring s -> s
  | v -> error ~loc "%s: expected a string, got a %s" what (type_name v)

let as_list ~loc ~what = function
  | Vlist l -> l
  | v -> error ~loc "%s: expected a list, got a %s" what (type_name v)

let as_node ~loc ~what = function
  | Vnode n -> n
  | v -> error ~loc "%s: expected an AST value, got a %s" what (type_name v)

(** Does a runtime value conform to a meta type?  Used to validate macro
    return values against the declared return type. *)
let rec conforms (v : t) (ty : Mtype.t) : bool =
  match (v, ty) with
  | Vint _, Mtype.Int -> true
  | Vstring _, Mtype.String -> true
  | Vnode n, Mtype.Ast s -> Sort.subsort (Ast.node_sort n) s
  | Vlist items, Mtype.List t -> List.for_all (fun v -> conforms v t) items
  | Vtuple fields, Mtype.Tuple tfields ->
      List.length fields = List.length tfields
      && List.for_all2
           (fun (n, v) f -> n = f.Mtype.fld_name && conforms v f.Mtype.fld_type)
           fields tfields
  | (Vclosure _ | Vbuiltin _), Mtype.Fun _ -> true
  | Vvoid, Mtype.Void -> true
  | _, _ -> false
