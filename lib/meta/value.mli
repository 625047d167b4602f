(** Runtime values and environments of the macro (meta) language. *)

open Ms2_syntax
open Ms2_support
module Mtype = Ms2_mtype.Mtype

type t =
  | Vint of int
  | Vstring of string
  | Vnode of Ast.node
  | Vlist of t list
  | Vtuple of (string * t) list
  | Vclosure of closure
  | Vbuiltin of string
  | Vvoid  (** also "uninitialized" for AST-typed variables *)

and closure = {
  cl_params : (string * Mtype.t) list;
  cl_body : body;
  cl_scopes : scope list;
      (** the local scopes the closure was created under (a [Frozen]
          copy in a global, [[]] for meta functions); globals are read
          from the calling session, so no value refers to an engine *)
}

and body = Body_expr of Ast.expr | Body_stmt of Ast.stmt

(** assigned in place, or an escaped lambda's read-only captures *)
and scope = Local of (string, t ref) Hashtbl.t | Frozen of t Smap.t

and env = {
  mutable scopes : scope list;  (** local scopes, innermost first *)
  globals : t Smap.t ref;
      (** [metadcl] globals and meta functions: the session's meta
          state, shared by derived environments *)
  gensym : Gensym.t;
  mutable hygienic : bool;
      (** rename template-introduced block locals automatically *)
  mutable semantic : Ms2_csem.Senv.t option;
      (** object-level symbol table at the current expansion point *)
  expand_invocation : (Ast.invocation -> t) ref;
      (** engine hook for macro invocations inside meta code *)
  budget : budget;
      (** fuel / output-size accounting, shared by derived environments *)
  provenance : Loc.origin ref;
      (** the expansion frame currently being filled ([User] outside any
          invocation); shared by derived environments, maintained by the
          engine, read by the template filler *)
  greads : int ref;
      (** monotonic odometer of lookups resolving in [globals]
          (shared by derived environments): the speculative fragment
          commit protocol measures its delta to learn whether a fragment
          observed shared [metadcl] state *)
}

(** Countdown resource counters ([max_int] = effectively unlimited). *)
and budget = {
  mutable fuel : int;  (** remaining interpreter steps *)
  mutable nodes : int;  (** remaining produced-AST node allowance *)
  fuel_initial : int;  (** the fuel one arming grants *)
  nodes_initial : int;
  mutable fuel_spent : int;  (** fuel consumed before the last re-arm *)
  watchdog : Watchdog.t;  (** wall-clock deadline, polled with the fuel *)
}

val error :
  loc:Loc.t -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise an [Expansion]-phase diagnostic.  The location is required so
    no raise site silently drops provenance; pass [Loc.dummy] explicitly
    at the (rare) sites with genuinely no span. *)

val create_budget :
  ?fuel:int -> ?nodes:int -> ?watchdog:Watchdog.t -> unit -> budget
val fuel_consumed : budget -> int
(** Fuel consumed since the budget was created, across re-arms. *)

val nodes_produced : budget -> int

val rearm_fuel : budget -> unit
(** Grant the whole [fuel_initial] again, as at creation; what was
    consumed stays counted in {!fuel_consumed}. *)

val charge_fuel : env -> loc:Loc.t -> unit
(** Charge one interpreter step; raises a [Resource]-phase diagnostic
    (code {!Ms2_support.Diag.code_fuel}) when the budget is exhausted. *)

val charge_node : env -> loc:Loc.t -> unit
(** Charge one produced AST node; raises with code
    {!Ms2_support.Diag.code_nodes} when the allowance is exhausted. *)

val create_env : ?gensym:Gensym.t -> ?budget:budget -> unit -> env
val push_scope : env -> unit
val pop_scope : env -> unit
val with_scope : env -> (unit -> 'a) -> 'a

val derived : ?scopes:scope list -> env -> env
(** A child environment with a fresh local scope over [scopes] (default
    none), sharing the globals — the frame a macro body or a closure
    runs in ([metadcl] globals shared, the caller's locals isolated). *)

val bind : env -> string -> t -> unit
(** Bind in the innermost local scope, or as a global at top level. *)

val bind_global : env -> string -> t -> unit
(** Bind a global to [v] with every lambda over [Local] scopes in it
    frozen: a global is a closed value. *)

val lookup : env -> string -> t option
(** Local scopes first, then the globals (a global hit counts in
    [greads]). *)

val assign : env -> loc:Loc.t -> string -> t -> bool
(** Rebind a bound variable where it is bound; [false] when unbound.  A
    global counts in [greads] as a lookup does.  A [Frozen] variable is
    an error at [loc]. *)

val default_of_type : Mtype.t -> t
(** Lists start empty, ints 0, strings empty; AST variables start
    [Vvoid] and reading one is an error. *)

val type_name : t -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string
val of_actual : Ast.actual -> t

val tuple_field : (string * t) list -> string -> t option
(** Resolve a field of a [Vtuple] payload (first declaration wins).
    Wide tuples (≥ 16 fields) resolve through a memoized interned-key
    index, so repeated selections are O(1) instead of O(width). *)

val truthy : loc:Loc.t -> t -> bool
val as_int : loc:Loc.t -> what:string -> t -> int
val as_string : loc:Loc.t -> what:string -> t -> string
val as_list : loc:Loc.t -> what:string -> t -> t list
val as_node : loc:Loc.t -> what:string -> t -> Ast.node

val conforms : t -> Mtype.t -> bool
(** Does a runtime value conform to a meta type?  Validates macro return
    values against declared return types. *)
