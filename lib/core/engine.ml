(** The macro-expansion engine.

    Drives the whole MS² pipeline over a parsed program:

    - [syntax] macro definitions are recorded (their bodies were fully
      type checked at parse time);
    - [metadcl] declarations and meta functions are *executed*,
      extending the persistent meta environment ("the meta-program is
      fully run during macro-expansion; none of it exists at runtime");
    - macro invocations are expanded by running the macro body in the
      interpreter on the pattern-bound actuals, and the produced ASTs
      replace the invocation; expansion is repeated on the produced code
      (macros may produce invocations of other macros), with a depth
      guard;
    - everything else is walked for embedded invocations and emitted.

    The result is a pure C program: {!expand_program} guarantees no meta
    construct survives. *)

open Ms2_syntax
open Ms2_syntax.Ast
open Ms2_support
module Mtype = Ms2_mtype.Mtype
module Tenv = Ms2_typing.Tenv
module Of_cdecl = Ms2_typing.Of_cdecl
module State = Ms2_parser.State
module Parser = Ms2_parser.Parser
module Prescan = Ms2_parser.Prescan
module Value = Ms2_meta.Value
module Interp = Ms2_meta.Interp
module Fill = Ms2_meta.Fill
module Senv = Ms2_csem.Senv
module Of_ast = Ms2_csem.Of_ast

type stats = {
  mutable invocations_expanded : int;
  mutable meta_declarations_run : int;
  mutable macros_defined : int;
  mutable cache_hits : int;  (** fragments replayed from the cache *)
  mutable cache_misses : int;  (** keyed lookups that found nothing *)
  mutable cache_evictions : int;  (** entries dropped for the byte budget *)
  mutable cache_bypasses : int;
      (** fragments the cache stood aside for (the sum of the labeled
          bypass counters below) *)
  mutable cache_bypass_trace : int;
      (** bypasses because trace mode was on (the trace log is a side
          effect a replay would skip) *)
  mutable cache_bypass_failpoints : int;
      (** bypasses because failpoints were armed (replays would mask
          injected failures) *)
  mutable cache_bypass_uncacheable : int;
      (** bypasses because the session state had no trustworthy digest
          (e.g. a meta closure over local scopes) *)
  mutable cache_bypass_budget : int;
      (** bypasses because a replay would overdraw the remaining global
          budget (the real run must happen, and fail, for real) *)
  mutable frag_speculated : int;
      (** fragments that ran speculatively on a worker domain and
          produced a verdict; always [frag_committed +
          frag_revalidated] *)
  mutable frag_committed : int;
      (** speculative results that passed commit-time validation and
          were spliced into the output *)
  mutable frag_revalidated : int;
      (** speculative results discarded at commit time (stale reads,
          shared-state writes, worker failure) and re-expanded
          sequentially *)
  mutable frag_abort_defs_bump : int;
      (** aborts because the fragment defined or redefined a macro
          (the worker's [defs_version] moved) *)
  mutable frag_abort_gensym_mint : int;
      (** aborts because the fragment minted generated names or
          anonymous tags (name identity differs across replays) *)
  mutable frag_abort_meta_decl : int;
      (** aborts because the fragment ran a [metadcl] (meta-program
          side effects must execute on the main engine, in order) *)
  mutable frag_abort_stale_read : int;
      (** aborts because the fragment's reads could not be proven
          fresh: open scopes, an undiffable symbol-table delta, or a
          commit-time validation failure against earlier commits *)
  mutable frag_abort_foreign_closure : int;
      (** aborts because the fragment bound a global to a meta closure
          (closures cannot be transplanted between engines) *)
}

type t = {
  macros : (string, State.macro_sig) Hashtbl.t;
      (** signatures, shared with every parser state the engine creates *)
  compiled : (string, State.compiled_pattern) Hashtbl.t;
      (** compiled invocation parsers, likewise shared *)
  defs : (string, macro_def) Hashtbl.t;
  tenv : Tenv.t;
  env : Value.env;  (** persistent global meta environment *)
  senv : Senv.t;
      (** object-level symbol table, maintained during the expansion
          walk so semantic primitives see the scope at the invocation
          point *)
  gensym : Gensym.t;
  limits : Limits.t;
      (** resource governance: fuel, output size, depth, error cap *)
  watchdog : Watchdog.t;
      (** wall-clock deadline (same object the budget polls): armed per
          fragment from [limits.timeout_ms], narrowed per invocation *)
  transactional : bool;
      (** checkpoint session state on {!expand_source} entry and roll it
          back when the fragment fails, so one bad fragment cannot
          corrupt the session.  On by default; the [false] setting
          exists so the bench harness can measure checkpoint overhead *)
  compile_patterns : bool;
  provenance : bool;
      (** stamp expansion provenance (macro + call site) onto every
          produced location, forming diagnostic backtraces.  On by
          default; the [false] setting exists so the bench harness can
          measure the stamping overhead *)
  mutable recover : bool;
      (** graceful degradation: a failed invocation is recorded in
          [diags] and replaced by a placeholder of its syntactic type
          instead of aborting the run *)
  diags : Diag.collector;
      (** diagnostics recorded by recovery mode, bounded by
          [limits.max_errors] *)
  mutable trace : Format.formatter option;
      (** when set, every invocation expansion is logged ("the ease of
          debugging macros depends upon the quality of the debugger",
          paper §3 — this is the poor man's version) *)
  stats : stats;
  mutable defs_version : int;
      (** moved on every macro-table mutation the engine performs
          (definition registration, rollback).  Equal versions imply
          equal table contents at fragment boundaries, which is what
          lets the expansion-cache key and the memoized {!fingerprint}
          summarize the tables by a single integer.  Versions are
          allocated from a process-global atomic counter (see
          {!fresh_version}) so the implication holds across {e all}
          engines, not just within one — the precondition for sharing a
          cache store between the per-file engines of
          [--jobs-mode=domains].  Version [0] is reserved for the
          pristine empty tables every fresh engine starts with *)
  mutable fp_tables_memo : (int * string) option;
      (** memoized macro-tables section of {!fingerprint}, keyed by
          [defs_version] (the dirty flag) *)
  cache : cached_run Cache.t option;  (** [None] = caching disabled *)
}

(** What a cache hit replays: the produced program, the post-run session
    state (a checkpoint — restoring it {e is} the state delta, replayed
    through the same rollback machinery the transaction layer uses), and
    the run's resource/statistics deltas. *)
and cached_run = {
  ca_program : program;
  ca_post : checkpoint;
  ca_version : int;
      (** [defs_version] after the recorded run.  Replay re-establishes
          it together with the post-state tables: a version number is
          permanently associated with the table content it was allocated
          for, so restoring the pair keeps the version→content mapping
          single-valued (and lets an idempotent fragment's key recur, so
          repeat replays keep hitting) *)
  ca_pre_version : int;
      (** [defs_version] {e before} the recorded run — the version the
          cache key was computed against.  Invisible inside the key (keys
          are digests), so it is recorded here explicitly: snapshot
          loading must check {e every} version number an entry mentions
          against the live counter before trusting it (see
          {!load_store}), and the pre-version is the one a lookup key
          will quote *)
  ca_fuel : int;  (** interpreter steps the run consumed *)
  ca_nodes : int;  (** AST nodes the run charged *)
  ca_invocations : int;
  ca_meta_runs : int;
  ca_macros_defined : int;
  ca_profile : (string * int) list;
      (** per-macro invocation counts of the recorded run, captured only
          when the profiler was enabled at store time; a replay credits
          them to the profiler as cache-satisfied invocations *)
}

(* What a checkpoint captures is the *session* state a failed fragment
   could corrupt: macro tables, the meta type environment, the global
   meta environment, and the object-level symbol table.  What it
   deliberately does NOT capture: the gensym counter (rolled-back names
   must stay burned, or a retry could collide with names the aborted
   attempt leaked into diagnostics), stats, fuel consumed, and recorded
   diagnostics (the whole point of the rollback is to keep them).

   Rollback restores the engine's tables IN PLACE (reset + re-add)
   because parser states created before the checkpoint alias the same
   table objects; swapping in fresh tables would silently detach them.
   The checkpoint's own copies are never mutated, so one checkpoint
   supports any number of rollbacks. *)
and checkpoint = {
  cp_macros : (string, State.macro_sig) Hashtbl.t;
  cp_compiled : (string, State.compiled_pattern) Hashtbl.t;
  cp_defs : (string, macro_def) Hashtbl.t;
  cp_tenv : Tenv.t;
  cp_globals : (string * Value.t) list;
      (** global meta bindings, deref'd — {!Value.t} is structurally
          immutable, so a shallow capture is a deep one *)
  cp_senv : Senv.t;
  cp_version : int;
      (** [defs_version] at capture.  Rollback restores it rather than
          bumping: content at a given version is unique (every mutation
          bumps), so returning to the captured tables *is* returning to
          that version — the same argument that lets cache replay restore
          [ca_version].  Keeps cache keys stable across the
          rollback-per-request pattern of the serve daemon's sessions. *)
}

(* No dummy default: every expansion-error site must say where. *)
let error ~loc fmt = Diag.error ~loc Diag.Expansion fmt

(* ------------------------------------------------------------------ *)
(* Invocation expansion                                                *)
(* ------------------------------------------------------------------ *)

let truncate_for_trace s =
  let s = String.map (function '\n' -> ' ' | c -> c) s in
  if String.length s > 120 then String.sub s 0 117 ^ "..." else s

(** Narrow the shared budget to this invocation's caps for the duration
    of [f], then restore it, deducting whatever [f] consumed.  Nested
    invocations compose: an inner invocation's consumption counts
    against every enclosing cap and the global budget. *)
let with_invocation_budget (t : t) (f : unit -> 'a) : 'a =
  let b = t.env.Value.budget in
  let entry_fuel = b.Value.fuel and entry_nodes = b.Value.nodes in
  let cap_fuel = min entry_fuel t.limits.Limits.invocation_fuel in
  let cap_nodes = min entry_nodes t.limits.Limits.max_nodes in
  b.Value.fuel <- cap_fuel;
  b.Value.nodes <- cap_nodes;
  let saved_deadline =
    Watchdog.narrow t.watchdog ~ms:t.limits.Limits.invocation_timeout_ms
  in
  let restore () =
    b.Value.fuel <- entry_fuel - (cap_fuel - b.Value.fuel);
    b.Value.nodes <- entry_nodes - (cap_nodes - b.Value.nodes);
    Watchdog.restore t.watchdog saved_deadline
  in
  match f () with
  | v ->
      restore ();
      v
  | exception e ->
      restore ();
      raise e

(** Run a macro body on the invocation's actual parameters and return
    the produced value, checked against the declared return type. *)
let expand_invocation (t : t) (inv : invocation) : Value.t =
  let loc = inv.inv_loc in
  Failpoint.hit ~watchdog:t.watchdog ~loc "engine/invoke";
  match Hashtbl.find_opt t.defs inv.inv_name.id_name with
  | None ->
      error ~loc "macro %s is declared but has no recorded definition"
        inv.inv_name.id_name
  | Some md ->
      t.stats.invocations_expanded <- t.stats.invocations_expanded + 1;
      (match t.trace with
      | Some ppf ->
          (* the call site's own backtrace follows the header, one frame
             per line, so traces of nested expansions are grep-able by
             source line *)
          Format.fprintf ppf "@[<v 2>[ms2] expanding %s at %s%a@,"
            inv.inv_name.id_name (Loc.to_string loc) Loc.pp_backtrace loc;
          List.iter
            (fun (name, actual) ->
              Format.fprintf ppf "%s = %s@," name
                (truncate_for_trace
                   (Value.to_string (Value.of_actual actual))))
            inv.inv_actuals
      | None -> ());
      let call_env = Value.derived t.env in
      List.iter
        (fun (name, actual) ->
          Value.bind call_env name (Value.of_actual actual))
        inv.inv_actuals;
      (* The frame every location produced by this invocation is stamped
         with.  Allocated once: the filler stores this exact value, so
         the error handler below can recognize "already carries *this*
         frame" by physical equality. *)
      let frame =
        Loc.Macro { Loc.macro = inv.inv_name.id_name; call_site = loc }
      in
      let run () =
        with_invocation_budget t (fun () -> Interp.run_body call_env md.m_body)
      in
      let compute () =
        try
          if not t.provenance then run ()
          else begin
            (* push the frame for the duration of the body: the filler
               reads it to stamp everything this invocation produces *)
            let saved = !(t.env.Value.provenance) in
            t.env.Value.provenance := frame;
            Fun.protect
              ~finally:(fun () -> t.env.Value.provenance := saved)
              run
          end
        with
        | Diag.Error ({ Diag.phase = Diag.Expansion | Diag.Resource; _ } as d)
          ->
            (* point the user at their invocation (and name the macro —
               essential for resource diagnostics), keeping the macro-body
               location for the macro writer.  The location also gains
               this invocation as an (outermost) backtrace frame, unless
               it is already stamped with it. *)
            let loc' =
              if Loc.is_dummy d.Diag.loc then loc
              else if
                (not t.provenance) || Loc.origin d.Diag.loc == frame
              then d.Diag.loc
              else
                Loc.push_frame ~macro:inv.inv_name.id_name ~call_site:loc
                  d.Diag.loc
            in
            raise
              (Diag.Error
                 { d with
                   Diag.loc = loc';
                   Diag.message =
                     Printf.sprintf
                       "%s (while expanding macro %s invoked at %s)"
                       d.Diag.message inv.inv_name.id_name (Loc.to_string loc)
                 })
      in
      (* Telemetry wrapper: a trace span per invocation (labeled with
         the call site and the producing macro read off the Loc.origin
         chain — see DESIGN.md on span parentage), and a profiler
         activation charged with the invocation's fuel/node deltas.
         Both are closed on the failure path too, so a diverging macro
         still shows up in the timeline and the profile. *)
      let v =
        let profiling = Obs.Profile.enabled () in
        if not (profiling || Obs.recording ()) then compute ()
        else begin
          let b = t.env.Value.budget in
          let fuel0 = Value.fuel_consumed b
          and nodes0 = Value.nodes_produced b in
          let pframe =
            if profiling then
              Some
                (Obs.Profile.enter
                   ~depth:(List.length (Loc.backtrace loc) + 1)
                   inv.inv_name.id_name)
            else None
          in
          let close_profile () =
            match pframe with
            | Some f ->
                Obs.Profile.exit f
                  ~fuel:(Value.fuel_consumed b - fuel0)
                  ~nodes:(Value.nodes_produced b - nodes0)
            | None -> ()
          in
          Obs.with_span ~cat:"expand"
            ~args:(fun () ->
              let parent, depth = Loc.backtrace_summary loc in
              [ ("call_site", Obs.Str (Loc.to_string loc));
                ("parent_macro", Obs.Str parent);
                ("expansion_depth", Obs.Int depth) ])
            inv.inv_name.id_name
            (fun () -> Fun.protect ~finally:close_profile compute)
        end
      in
      if not (Value.conforms v md.m_ret) then
        error ~loc
          "macro %s returned a %s, but its declaration promises %s"
          inv.inv_name.id_name (Value.type_name v)
          (Mtype.to_string md.m_ret);
      (match t.trace with
      | Some ppf ->
          Format.fprintf ppf "=> %s@]@."
            (truncate_for_trace (Value.to_string v))
      | None -> ());
      v

(* Definition-table versions come from one process-global counter:
   version 0 is the pristine empty tables (identical in every fresh
   engine, so pristine-state expansions may be shared across engines),
   and every mutation anywhere allocates a number no other engine has
   ever associated with different contents.  Rollback and cache replay
   *restore* stored versions — sound because the content a version was
   allocated for is globally unique. *)
let version_counter = Atomic.make 0
let fresh_version () = 1 + Atomic.fetch_and_add version_counter 1

let create_store ?budget_bytes () : cached_run Cache.t =
  Cache.create ?budget_bytes ()

let create ?(limits = Limits.default) ?(compile_patterns = true)
    ?(hygienic = false) ?(recover = false) ?(provenance = true)
    ?(transactional = true) ?(cache = true) ?cache_bytes ?cache_store () : t =
  let gensym = Gensym.create () in
  let budget = Value.create_budget ~fuel:limits.Limits.fuel () in
  let env = Value.create_env ~gensym ~budget () in
  env.Value.hygienic <- hygienic;
  let senv = Senv.create () in
  env.Value.semantic <- Some senv;
  let t =
    {
      macros = Hashtbl.create 16;
      compiled = Hashtbl.create 16;
      defs = Hashtbl.create 16;
      tenv = Tenv.create ();
      env;
      senv;
      gensym;
      limits;
      watchdog = budget.Value.watchdog;
      transactional;
      compile_patterns;
      provenance;
      recover;
      diags = Diag.collector ~max_errors:limits.Limits.max_errors ();
      trace = None;
      stats =
        { invocations_expanded = 0; meta_declarations_run = 0;
          macros_defined = 0; cache_hits = 0; cache_misses = 0;
          cache_evictions = 0; cache_bypasses = 0; cache_bypass_trace = 0;
          cache_bypass_failpoints = 0; cache_bypass_uncacheable = 0;
          cache_bypass_budget = 0; frag_speculated = 0; frag_committed = 0;
          frag_revalidated = 0; frag_abort_defs_bump = 0;
          frag_abort_gensym_mint = 0; frag_abort_meta_decl = 0;
          frag_abort_stale_read = 0; frag_abort_foreign_closure = 0 };
      defs_version = 0;
      fp_tables_memo = None;
      cache =
        (if not cache then None
         else
           match cache_store with
           | Some store -> Some store  (* shared across engines *)
           | None -> Some (Cache.create ?budget_bytes:cache_bytes ()));
    }
  in
  (t.env).Value.expand_invocation := (fun inv -> expand_invocation t inv);
  t

(** Diagnostics recorded by recovery mode so far, oldest first. *)
let diagnostics (t : t) : Diag.t list = Diag.items t.diags

let fuel_consumed (t : t) : int = Value.fuel_consumed t.env.Value.budget
let nodes_produced (t : t) : int = Value.nodes_produced t.env.Value.budget

(* ------------------------------------------------------------------ *)
(* Transactional checkpoints                                           *)
(* ------------------------------------------------------------------ *)

let global_scope (t : t) : (string, Value.t ref) Hashtbl.t =
  match List.rev t.env.Value.scopes with
  | global :: _ -> global
  | [] -> assert false

let checkpoint (t : t) : checkpoint =
  {
    cp_macros = Hashtbl.copy t.macros;
    cp_compiled = Hashtbl.copy t.compiled;
    cp_defs = Hashtbl.copy t.defs;
    cp_tenv = Tenv.copy t.tenv;
    cp_globals =
      Hashtbl.fold (fun name r acc -> (name, !r) :: acc) (global_scope t) [];
    cp_senv = Senv.snapshot t.senv;
    cp_version = t.defs_version;
  }

let restore_table dst src =
  Hashtbl.reset dst;
  Hashtbl.iter (fun k v -> Hashtbl.replace dst k v) src

let rollback (t : t) (cp : checkpoint) : unit =
  (* restore, not bump: see [cp_version].  Callers that mutated tables
     without a checkpoint still bump explicitly before failing. *)
  t.defs_version <- cp.cp_version;
  restore_table t.macros cp.cp_macros;
  restore_table t.compiled cp.cp_compiled;
  restore_table t.defs cp.cp_defs;
  Tenv.restore t.tenv cp.cp_tenv;
  let global = global_scope t in
  Hashtbl.reset global;
  List.iter (fun (name, v) -> Hashtbl.replace global name (ref v))
    cp.cp_globals;
  (* also unwinds scopes a mid-fragment abort left open *)
  t.env.Value.scopes <- [ global ];
  t.env.Value.provenance := Loc.User;
  Senv.restore t.senv cp.cp_senv

(** A structural digest of the rollback-covered session state, for
    asserting the rollback invariant in tests.  Values are summarized by
    name and type (closures have no structural identity).

    The macro-tables section is memoized under [defs_version] as the
    dirty flag: every engine-side table mutation (registration,
    rollback) bumps the version, so the sorted-name lists are only
    rebuilt when the tables actually changed.  The parser registers
    signatures directly into the shared tables {e during} a fragment
    parse; every such mid-fragment mutation is followed by either a
    definition registration or a rollback before [expand_source]
    returns, so the memo is valid whenever fingerprints are taken at
    fragment boundaries (the only supported use). *)
let fingerprint (t : t) : string =
  let tables =
    match t.fp_tables_memo with
    | Some (version, s) when version = t.defs_version -> s
    | _ ->
        let names tbl =
          Hashtbl.fold (fun k _ acc -> k :: acc) tbl []
          |> List.sort compare |> String.concat ","
        in
        let s =
          Printf.sprintf "macros=[%s] compiled=[%s] defs=[%s]"
            (names t.macros) (names t.compiled) (names t.defs)
        in
        t.fp_tables_memo <- Some (t.defs_version, s);
        s
  in
  let globals =
    Hashtbl.fold
      (fun name r acc -> (name ^ ":" ^ Value.type_name !r) :: acc)
      (global_scope t) []
    |> List.sort compare |> String.concat ","
  in
  Printf.sprintf "%s globals=[%s] scopes=%d senv-depth=%d" tables globals
    (List.length t.env.Value.scopes)
    (Senv.depth t.senv)

(* ------------------------------------------------------------------ *)
(* Error recovery                                                      *)
(* ------------------------------------------------------------------ *)

(* A failed invocation is recoverable when recovery is on, the failure
   happened while *running* the meta-program (definition-time errors
   still abort: the paper's staging guarantee means they are the macro
   writer's bugs, not the user's), the error cap has room, and the
   *global* fuel budget is not what ran out (once that pool is dry every
   later invocation would fail identically — degrading further would
   just repeat one diagnostic per invocation). *)
let recoverable (t : t) (d : Diag.t) : bool =
  t.recover
  && (match d.Diag.phase with
     | Diag.Expansion | Diag.Resource -> true
     | Diag.Lexing | Diag.Parsing | Diag.Pattern_check | Diag.Type_check ->
         false)
  && t.env.Value.budget.Value.fuel >= 0

(** Record a recovered diagnostic; aborts with [E0604] when the
    collector is full. *)
let record (t : t) (d : Diag.t) : unit =
  if Diag.is_full t.diags then begin
    Diag.add t.diags d;
    Diag.error ~loc:d.Diag.loc ~code:Diag.code_too_many_errors Diag.Resource
      "too many errors (%d); giving up on recovery" (Diag.count t.diags)
  end
  else Diag.add t.diags d

(* ------------------------------------------------------------------ *)
(* Expansion walk over object code                                     *)
(* ------------------------------------------------------------------ *)

(** Record a macro definition — from the source program, or produced by
    a macro-generating macro (in which case its name placeholder must
    already be filled). *)
let register_macro_def (t : t) (md : macro_def) : unit =
  Failpoint.hit ~watchdog:t.watchdog ~loc:md.m_loc "engine/register";
  let name =
    match md.m_name with
    | Ii_id id -> id.id_name
    | Ii_splice sp ->
        error ~loc:sp.sp_loc
          "generated macro definition still has a placeholder for its name"
  in
  t.stats.macros_defined <- t.stats.macros_defined + 1;
  t.defs_version <- fresh_version ();
  Hashtbl.replace t.defs name md;
  Hashtbl.replace t.macros name
    { State.sig_ret = md.m_ret; sig_pattern = md.m_pattern };
  if t.compile_patterns then
    Hashtbl.replace t.compiled name (Parser.compile_pattern md.m_pattern)

let check_depth t ~loc depth =
  if depth > t.limits.Limits.max_depth then
    Diag.error ~loc ~code:Diag.code_depth Diag.Resource
      "macro expansion exceeded the maximum nesting depth (%d); is a macro \
       expanding into itself?"
      t.limits.Limits.max_depth

let rec expand_expr t ~depth (expr : expr) : expr =
  let re e = { expr with e } in
  match expr.e with
  | E_macro inv -> (
      (* on failure in recovery mode: record, substitute a well-typed
         placeholder of the invocation's syntactic type (the paper's
         type guarantee is what makes this safe to keep parsing), and
         keep going so later errors still surface *)
      try
        check_depth t ~loc:expr.eloc depth;
        let v = expand_invocation t inv in
        let e = Fill.value_to_expr ~loc:expr.eloc v in
        expand_expr t ~depth:(depth + 1) e
      with Diag.Error d when recoverable t d ->
        record t d;
        e_int ~loc:expr.eloc 0)
  | E_ident _ | E_const _ -> expr
  | E_call (f, args) ->
      re
        (E_call
           (expand_expr t ~depth f, List.map (expand_expr t ~depth) args))
  | E_index (a, i) ->
      re (E_index (expand_expr t ~depth a, expand_expr t ~depth i))
  | E_member (e, f) -> re (E_member (expand_expr t ~depth e, f))
  | E_arrow (e, f) -> re (E_arrow (expand_expr t ~depth e, f))
  | E_postincr e -> re (E_postincr (expand_expr t ~depth e))
  | E_postdecr e -> re (E_postdecr (expand_expr t ~depth e))
  | E_unary (op, e) -> re (E_unary (op, expand_expr t ~depth e))
  | E_cast (ct, e) ->
      re (E_cast (expand_ctype t ~depth ct, expand_expr t ~depth e))
  | E_sizeof_expr e -> re (E_sizeof_expr (expand_expr t ~depth e))
  | E_sizeof_type ct -> re (E_sizeof_type (expand_ctype t ~depth ct))
  | E_binary (op, a, b) ->
      re (E_binary (op, expand_expr t ~depth a, expand_expr t ~depth b))
  | E_cond (c, a, b) ->
      re
        (E_cond
           ( expand_expr t ~depth c,
             expand_expr t ~depth a,
             expand_expr t ~depth b ))
  | E_assign (op, l, r) ->
      re (E_assign (op, expand_expr t ~depth l, expand_expr t ~depth r))
  | E_comma (a, b) ->
      re (E_comma (expand_expr t ~depth a, expand_expr t ~depth b))
  | E_backquote _ | E_lambda _ | E_splice _ ->
      error ~loc:expr.eloc
        "meta construct left in object code (%s)"
        (Pretty.expr_to_string expr)

(* specifiers and declarators can embed expressions (enum constant
   values, array sizes): macro invocations there are expanded too *)
and expand_specs t ~depth (specs : spec list) : spec list =
  List.map
    (fun spec ->
      match spec with
      | S_enum es ->
          let enum_items =
            Option.map
              (List.map (function
                | Enum_item (id, value) ->
                    Enum_item (id, Option.map (expand_expr t ~depth) value)
                | Enum_splice _ as e -> e))
              es.enum_items
          in
          S_enum { es with enum_items }
      | S_struct (tag, fields) -> S_struct (tag, expand_fields t ~depth fields)
      | S_union (tag, fields) -> S_union (tag, expand_fields t ~depth fields)
      | spec -> spec)
    specs

and expand_fields t ~depth = function
  | None -> None
  | Some fields ->
      Some
        (List.map
           (fun f ->
             { f_specs = expand_specs t ~depth f.f_specs;
               f_declarators =
                 List.map (expand_declarator t ~depth) f.f_declarators })
           fields)

and expand_declarator t ~depth (d : declarator) : declarator =
  match d with
  | D_ident _ | D_abstract | D_splice _ -> d
  | D_pointer inner -> D_pointer (expand_declarator t ~depth inner)
  | D_array (inner, size) ->
      D_array
        (expand_declarator t ~depth inner,
         Option.map (expand_expr t ~depth) size)
  | D_func (inner, params) ->
      D_func
        ( expand_declarator t ~depth inner,
          List.map
            (function
              | P_decl (specs, pd) ->
                  P_decl
                    (expand_specs t ~depth specs, expand_declarator t ~depth pd)
              | (P_name _ | P_ellipsis | P_splice _) as p -> p)
            params )

and expand_ctype t ~depth (ct : ctype) : ctype =
  { ct_specs = expand_specs t ~depth ct.ct_specs;
    ct_decl = expand_declarator t ~depth ct.ct_decl }

and expand_stmts t ~depth (stmt : stmt) : stmt list =
  let rs s = [ { stmt with s } ] in
  match stmt.s with
  | St_macro inv -> (
      try
        check_depth t ~loc:stmt.sloc depth;
        let v = expand_invocation t inv in
        let stmts = Fill.value_to_stmts ~loc:stmt.sloc v in
        List.concat_map (expand_stmts t ~depth:(depth + 1)) stmts
      with Diag.Error d when recoverable t d ->
        record t d;
        [ mk_stmt ~loc:stmt.sloc St_null ])
  | St_expr e -> rs (St_expr (expand_expr t ~depth e))
  | St_compound items ->
      (* a block opens an object-level scope for the semantic env *)
      Senv.push_scope t.senv;
      Fun.protect
        ~finally:(fun () -> Senv.pop_scope t.senv)
        (fun () -> rs (St_compound (expand_block_items t ~depth items)))
  | St_if (c, th, el) ->
      rs
        (St_if
           ( expand_expr t ~depth c,
             expand_stmt1 t ~depth th,
             Option.map (expand_stmt1 t ~depth) el ))
  | St_while (c, body) ->
      rs (St_while (expand_expr t ~depth c, expand_stmt1 t ~depth body))
  | St_do (body, c) ->
      rs (St_do (expand_stmt1 t ~depth body, expand_expr t ~depth c))
  | St_for (i, c, s, body) ->
      rs
        (St_for
           ( Option.map (expand_expr t ~depth) i,
             Option.map (expand_expr t ~depth) c,
             Option.map (expand_expr t ~depth) s,
             expand_stmt1 t ~depth body ))
  | St_switch (e, body) ->
      rs (St_switch (expand_expr t ~depth e, expand_stmt1 t ~depth body))
  | St_case (e, s) ->
      rs (St_case (expand_expr t ~depth e, expand_stmt1 t ~depth s))
  | St_default s -> rs (St_default (expand_stmt1 t ~depth s))
  | St_return e -> rs (St_return (Option.map (expand_expr t ~depth) e))
  | St_break | St_continue | St_goto _ | St_null -> [ stmt ]
  | St_label (id, s) -> rs (St_label (id, expand_stmt1 t ~depth s))
  | St_splice _ ->
      error ~loc:stmt.sloc "placeholder left in object code"

(** Expansion in a position holding exactly one statement: a
    list-returning macro is wrapped in a block. *)
and expand_stmt1 t ~depth (stmt : stmt) : stmt =
  match expand_stmts t ~depth stmt with
  | [ s ] -> s
  | [] -> mk_stmt ~loc:stmt.sloc St_null
  | many ->
      mk_stmt ~loc:stmt.sloc
        (St_compound (List.map (fun s -> Bi_stmt s) many))

and expand_block_items t ~depth (items : block_item list) : block_item list =
  List.concat_map
    (function
      | Bi_decl ({ d = Decl_metadcl _; _ } as d) ->
          (* block-scope meta declaration: run it, emit nothing *)
          t.stats.meta_declarations_run <- t.stats.meta_declarations_run + 1;
          (try with_invocation_budget t (fun () -> Interp.exec_decl t.env d)
           with Diag.Error diag when recoverable t diag -> record t diag);
          []
      | Bi_decl d ->
          List.map (fun d -> Bi_decl d) (expand_decls t ~depth d)
      | Bi_stmt s -> List.map (fun s -> Bi_stmt s) (expand_stmts t ~depth s))
    items

and expand_decls t ~depth (decl : decl) : decl list =
  let rd d = [ { decl with d } ] in
  match decl.d with
  | Decl_macro inv -> (
      try
        check_depth t ~loc:decl.dloc depth;
        let v = expand_invocation t inv in
        let decls = Fill.value_to_decls ~loc:decl.dloc v in
        List.concat_map (expand_decls t ~depth:(depth + 1)) decls
      with Diag.Error d when recoverable t d ->
        record t d;
        [])
  | Decl_plain (specs, idecls) ->
      let specs = expand_specs t ~depth specs in
      (* declared names enter the semantic env before their initializers
         are expanded (a name is in scope in its own initializer) *)
      Of_ast.bind_decl t.senv { decl with d = Decl_plain (specs, idecls) };
      let idecls =
        List.map
          (function
            | Init_decl (d, init) ->
                Init_decl
                  ( expand_declarator t ~depth d,
                    Option.map (expand_init t ~depth) init )
            | Init_splice _ ->
                error ~loc:decl.dloc "placeholder left in object code")
          idecls
      in
      rd (Decl_plain (specs, idecls))
  | Decl_fun (specs, d, kr, body) ->
      Of_ast.bind_decl t.senv decl;
      let specs = expand_specs t ~depth specs in
      let d = expand_declarator t ~depth d in
      Senv.push_scope t.senv;
      Fun.protect
        ~finally:(fun () -> Senv.pop_scope t.senv)
        (fun () ->
          let kr = List.concat_map (expand_decls t ~depth) kr in
          Of_ast.bind_params t.senv d kr;
          rd (Decl_fun (specs, d, kr, expand_stmt1 t ~depth body)))
  | Decl_macro_def md ->
      (* a macro-generating macro produced a new macro definition: its
         body was parsed and checked when the template was parsed;
         register it so *subsequent fragments* can invoke it (uses in
         the same fragment were already parsed and cannot know it).
         Generated macros must be self-contained: their placeholders may
         only reference their own formals. *)
      register_macro_def t md;
      []
  | Decl_metadcl _ ->
      error ~loc:decl.dloc
        "meta declaration in a position where object code was expected"
  | Decl_splice _ -> error ~loc:decl.dloc "placeholder left in object code"

and expand_init t ~depth = function
  | I_expr e -> I_expr (expand_expr t ~depth e)
  | I_list items -> I_list (List.map (expand_init t ~depth) items)

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

(** Is this top-level definition part of the meta-program?  Macro
    definitions and [metadcl] are explicitly so; following the paper's
    examples ([@stmt paint_function(@stmt s) {...}]), any definition
    whose type mentions an AST type is a meta function / meta variable
    even without [metadcl]. *)
let is_meta_top (decl : decl) : bool =
  match decl.d with
  | Decl_metadcl _ | Decl_macro_def _ -> true
  | Decl_fun (specs, d, _, _) | Decl_plain (specs, (Init_decl (d, _) :: _))
    ->
      Of_cdecl.specs_mention_ast specs || Of_cdecl.declarator_mentions_ast d
  | Decl_plain (_, _) | Decl_splice _ | Decl_macro _ -> false

(** Process one top-level declaration: meta-program elements are
    recorded/executed and emit nothing; object code is expanded. *)
let rec process_top (t : t) (decl : decl) : decl list =
  match decl.d with
  | Decl_macro_def md ->
      register_macro_def t md;
      []
  | Decl_metadcl inner ->
      t.stats.meta_declarations_run <- t.stats.meta_declarations_run + 1;
      (try with_invocation_budget t (fun () -> Interp.exec_decl t.env inner)
       with Diag.Error d when recoverable t d -> record t d);
      (* parse-time types were registered by the parser; runtime values
         must live in the *global* scope *)
      promote_globals t inner;
      []
  | _ when is_meta_top decl ->
      t.stats.meta_declarations_run <- t.stats.meta_declarations_run + 1;
      (try with_invocation_budget t (fun () -> Interp.exec_decl t.env decl)
       with Diag.Error d when recoverable t d -> record t d);
      promote_globals t decl;
      []
  | _ -> expand_decls t ~depth:0 decl

(* Interp.exec_decl binds in the current (global, for the engine's env)
   scope already — the engine env's scope stack is just the global
   scope, so nothing further is needed; kept as an explicit hook. *)
and promote_globals _t _decl = ()

(** Expand a whole program to pure C. *)
let expand_program (t : t) (prog : program) : program =
  List.concat_map (process_top t) prog

(** The location failures with no better span (end-of-input,
    [Stack_overflow]) are reported at: the start of the fragment. *)
let fragment_start ~source : Loc.t =
  let p = { Loc.line = 1; col = 0; offset = 0 } in
  Loc.make ~source ~start_pos:p ~end_pos:p

(** Parse (with this engine's macro table and meta type environment,
    so definitions from earlier calls remain in force) and expand.

    The transactional boundary: session state is checkpointed on entry
    and rolled back if the fragment fails — whether by a fatal
    diagnostic, a stack overflow (converted to a located [E0606]
    resource diagnostic), or any other escaping exception — so the
    session stays usable for the next fragment.  The fragment watchdog
    ([limits.timeout_ms]) is armed for the duration; [deadline_ms] (a
    caller's remaining budget, e.g. a serve request's propagated
    deadline) can only narrow it, never extend it. *)
let expand_source_uncached (t : t) ?deadline_ms ~source (text : string) :
    program =
  let loc0 = fragment_start ~source in
  let cp =
    if t.transactional then
      Some (Obs.with_span ~cat:"txn" "checkpoint" (fun () -> checkpoint t))
    else None
  in
  let rollback_traced cp =
    Obs.with_span ~cat:"txn" "rollback" (fun () -> rollback t cp)
  in
  let fragment_ms =
    match deadline_ms with
    | Some d -> min t.limits.Limits.timeout_ms d
    | None -> t.limits.Limits.timeout_ms
  in
  Watchdog.arm t.watchdog ~ms:fragment_ms;
  let run () =
    Failpoint.hit ~watchdog:t.watchdog ~loc:loc0 "engine/fragment";
    let st =
      (* State.of_string tokenizes eagerly: this span is the lexer's *)
      Obs.with_span ~cat:"lex"
        ~args:(fun () -> [ ("bytes", Obs.Int (String.length text)) ])
        "lex"
        (fun () ->
          State.of_string ~macros:t.macros ~tenv:t.tenv ~compiled:t.compiled
            ~watchdog:t.watchdog ~source text)
    in
    st.State.compile_patterns <- t.compile_patterns;
    let prog =
      Obs.with_span ~cat:"parse" "parse" (fun () ->
          Parser.parse_program st)
    in
    Obs.with_span ~cat:"expand" "expand-walk" (fun () ->
        expand_program t prog)
  in
  match run () with
  | prog ->
      Watchdog.disarm t.watchdog;
      prog
  | exception Stack_overflow ->
      Watchdog.disarm t.watchdog;
      (* even without a rollback, the aborted parse may have registered
         signatures into the shared tables — the version must move *)
      t.defs_version <- fresh_version ();
      Option.iter rollback_traced cp;
      Diag.error ~loc:loc0 ~code:Diag.code_stack Diag.Resource
        "stack overflow while expanding %s (a pathologically deep program, \
         or runaway recursion in a macro)"
        source
  | exception e ->
      Watchdog.disarm t.watchdog;
      t.defs_version <- fresh_version ();
      Option.iter rollback_traced cp;
      raise e

(* ------------------------------------------------------------------ *)
(* Intra-file fragment parallelism                                     *)
(* ------------------------------------------------------------------ *)

(* One translation unit, many fragments: a cheap token pre-scan
   ({!Ms2_parser.Prescan}) finds top-level fragment boundaries and
   conservatively classifies each fragment.  Definition-bearing
   fragments are sequential *barriers*; runs of pure-invocation
   fragments between barriers expand speculatively on the work-stealing
   pool against snapshot-isolated per-domain engines, and their results
   commit *in fragment order* on the main engine — or are discarded and
   re-expanded sequentially when commit-time validation finds the
   speculation observed state a predecessor has since changed.  The
   output is byte-identical to a sequential run by construction: every
   committed result is proven equivalent to what the sequential walk
   would have produced, and everything else *is* the sequential walk.

   Validation is the [defs_version] discipline extended with read/write
   odometers: a worker result is discarded unless
     - the worker saw no definition activity (its [defs_version] still
       equals the run-start version, no gensym names or anonymous tags
       were minted, no meta declarations ran), and
     - the main engine's [defs_version] still equals the run-start
       version at commit time, and
     - nothing the fragment *read* (per-kind [Senv] lookups, global meta
       bindings) has been dirtied by an earlier commit or re-expansion
       in the same run, and
     - charging the fragment's fuel/node consumption cannot overdraw
       the remaining global budget (a sequential run would have failed
       inside the fragment, so it must re-run for real). *)

let c_frag_speculated = Obs.Metrics.counter "fragments.speculated"
let c_frag_committed = Obs.Metrics.counter "fragments.committed"
let c_frag_revalidated = Obs.Metrics.counter "fragments.revalidated"
let c_frag_abort_defs_bump = Obs.Metrics.counter "fragments.abort.defs_bump"

let c_frag_abort_gensym_mint =
  Obs.Metrics.counter "fragments.abort.gensym_mint"

let c_frag_abort_meta_decl = Obs.Metrics.counter "fragments.abort.meta_decl"

let c_frag_abort_stale_read =
  Obs.Metrics.counter "fragments.abort.stale_read"

let c_frag_abort_foreign_closure =
  Obs.Metrics.counter "fragments.abort.foreign_closure"

let rec contains_closure (v : Value.t) : bool =
  match v with
  | Value.Vclosure _ -> true
  | Value.Vlist items -> List.exists contains_closure items
  | Value.Vtuple fields -> List.exists (fun (_, x) -> contains_closure x) fields
  | Value.Vint _ | Value.Vstring _ | Value.Vnode _ | Value.Vbuiltin _
  | Value.Vvoid -> false

(* Rebind a global meta value onto a worker engine's environment.
   Top-level meta functions are closures over the engine's *global*
   environment ([cl_env == from_env]); rebinding that pointer is the
   whole adoption.  A closure over anything else (a lambda that escaped
   into a global) has captured local state we cannot relocate — [None]
   makes the adoption skip the binding, so a worker that touches it
   fails lookup, aborts, and the fragment re-expands sequentially. *)
let rec transplant_value ~(from_env : Value.env) ~(to_env : Value.env)
    (v : Value.t) : Value.t option =
  match v with
  | Value.Vint _ | Value.Vstring _ | Value.Vnode _ | Value.Vbuiltin _
  | Value.Vvoid -> Some v
  | Value.Vclosure cl ->
      if cl.Value.cl_env == from_env then
        Some (Value.Vclosure { cl with Value.cl_env = to_env })
      else None
  | Value.Vlist items ->
      let rec go acc = function
        | [] -> Some (Value.Vlist (List.rev acc))
        | x :: rest -> (
            match transplant_value ~from_env ~to_env x with
            | Some x' -> go (x' :: acc) rest
            | None -> None)
      in
      go [] items
  | Value.Vtuple fields ->
      let rec go acc = function
        | [] -> Some (Value.Vtuple (List.rev acc))
        | (name, x) :: rest -> (
            match transplant_value ~from_env ~to_env x with
            | Some x' -> go ((name, x') :: acc) rest
            | None -> None)
      in
      go [] fields

(* AST-level hardening of the token classifier: anything that registers
   definitions or runs meta code at top level is a barrier even if the
   pre-scan missed it. *)
let decl_is_barrier (d : decl) : bool =
  match d.d with
  | Decl_macro_def _ | Decl_metadcl _ -> true
  | Decl_plain (specs, _) -> List.mem S_typedef specs || is_meta_top d
  | _ -> is_meta_top d

type frag_plan = { fp_barrier : bool; fp_decls : decl list }

(* Assign parsed top-level declarations to pre-scanned fragments by
   byte offset (a declaration belongs to the fragment containing its
   start).  Token-level boundary errors only group declarations
   unevenly; classification is re-derived from the AST on top of the
   token-level verdict.  Fragments that end up empty are dropped. *)
let plan_fragments (frags : Prescan.fragment list) (prog : program) :
    frag_plan array =
  let frags = Array.of_list frags in
  let n = Array.length frags in
  if n = 0 then
    [| { fp_barrier = true; fp_decls = prog } |]
  else begin
    let buckets = Array.make n [] in
    let barrier = Array.map (fun f -> f.Prescan.fg_barrier) frags in
    let fi = ref 0 in
    List.iter
      (fun (d : decl) ->
        let off = d.dloc.Loc.start_pos.Loc.offset in
        while
          !fi + 1 < n && frags.(!fi + 1).Prescan.fg_offset <= off
        do
          incr fi
        done;
        buckets.(!fi) <- d :: buckets.(!fi);
        if decl_is_barrier d then barrier.(!fi) <- true)
      prog;
    let plan = ref [] in
    for k = n - 1 downto 0 do
      match buckets.(k) with
      | [] -> ()
      | ds -> plan := { fp_barrier = barrier.(k); fp_decls = List.rev ds }
                      :: !plan
    done;
    Array.of_list !plan
  end

(* What a speculative worker hands back for one fragment.  All state
   changes are *deltas against the run-start snapshot*, applied on the
   main engine at commit; committing deltas in fragment order is
   last-writer-wins, which is exactly the sequential outcome. *)
type frag_commit = {
  fr_prog : program;  (** expanded output of the fragment *)
  fr_senv_delta : Senv.top_delta;
  fr_genv_delta : (string * Value.t) list;
      (** global meta bindings the fragment added or rebound *)
  fr_sreads : int * int * int;
      (** [Senv] lookups (vars, typedefs, layouts) the fragment made *)
  fr_greads : int;  (** global meta-binding lookups the fragment made *)
  fr_fuel : int;
  fr_nodes : int;
  fr_invocations : int;
}

(** Why a speculation could not commit — the labeled
    [fragments.abort.*] breakdown.  A [Frag_done] that later fails
    {!frag_commit_ok} (earlier commits dirtied what it read) counts as
    [Abort_stale_read]; a worker that raised ([Frag_fail]) carries no
    cause — the re-expansion will surface the real error. *)
type abort_cause =
  | Abort_defs_bump
  | Abort_gensym_mint
  | Abort_meta_decl
  | Abort_stale_read
  | Abort_foreign_closure

let abort_cause_name = function
  | Abort_defs_bump -> "defs_bump"
  | Abort_gensym_mint -> "gensym_mint"
  | Abort_meta_decl -> "meta_decl"
  | Abort_stale_read -> "stale_read"
  | Abort_foreign_closure -> "foreign_closure"

let count_abort (t : t) (cause : abort_cause) : unit =
  (match cause with
  | Abort_defs_bump ->
      t.stats.frag_abort_defs_bump <- t.stats.frag_abort_defs_bump + 1;
      Obs.Metrics.incr c_frag_abort_defs_bump
  | Abort_gensym_mint ->
      t.stats.frag_abort_gensym_mint <- t.stats.frag_abort_gensym_mint + 1;
      Obs.Metrics.incr c_frag_abort_gensym_mint
  | Abort_meta_decl ->
      t.stats.frag_abort_meta_decl <- t.stats.frag_abort_meta_decl + 1;
      Obs.Metrics.incr c_frag_abort_meta_decl
  | Abort_stale_read ->
      t.stats.frag_abort_stale_read <- t.stats.frag_abort_stale_read + 1;
      Obs.Metrics.incr c_frag_abort_stale_read
  | Abort_foreign_closure ->
      t.stats.frag_abort_foreign_closure <-
        t.stats.frag_abort_foreign_closure + 1;
      Obs.Metrics.incr c_frag_abort_foreign_closure);
  Obs.instant ~cat:"fragment"
    ~args:(fun () -> [ ("cause", Obs.Str (abort_cause_name cause)) ])
    "speculation-abort"

type frag_result =
  | Frag_done of frag_commit
  | Frag_abort of abort_cause
      (** validation failed on the worker; revalidate *)
  | Frag_fail
      (** the worker raised: revalidate, and stop later speculation so
          first-fatal semantics match the sequential index *)

(* Worker engines live in domain-local storage, stamped with the id of
   the speculation run that adopted them: the pool spawns fresh domains
   per call (empty DLS), but the calling domain is worker 0 and keeps
   its slot across runs, so adoption must be re-keyed per run. *)
type frag_worker_state = {
  fw_run : int;  (** the speculation run this worker was adopted for *)
  fw_engine : t;
  fw_adopt : checkpoint;  (** run-start state, globals transplanted *)
  fw_base : (string, Value.t) Hashtbl.t;
      (** [fw_adopt.cp_globals] as a table, for the commit diff *)
}

type frag_ctx = {
  fx_run : int;
  fx_main : t;  (** read-only from workers: configuration only *)
  fx_cp : checkpoint;  (** run-start checkpoint of the main engine *)
  fx_v0 : int;  (** [defs_version] at run start *)
  fx_frag_ms : int;  (** per-fragment watchdog deadline *)
}

let frag_run_counter = Atomic.make 0

let frag_worker_slot : frag_worker_state option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let frag_worker (ctx : frag_ctx) : frag_worker_state =
  let slot = Domain.DLS.get frag_worker_slot in
  match !slot with
  | Some fw when fw.fw_run = ctx.fx_run -> fw
  | _ ->
      let m = ctx.fx_main in
      let w =
        create ~limits:m.limits ~compile_patterns:m.compile_patterns
          ~hygienic:m.env.Value.hygienic ~recover:false
          ~provenance:m.provenance ~transactional:false ~cache:false ()
      in
      let globals =
        List.filter_map
          (fun (name, v) ->
            match transplant_value ~from_env:m.env ~to_env:w.env v with
            | Some v' -> Some (name, v')
            | None -> None)
          ctx.fx_cp.cp_globals
      in
      let adopt = { ctx.fx_cp with cp_globals = globals } in
      let base = Hashtbl.create (List.length globals * 2 + 1) in
      List.iter (fun (name, v) -> Hashtbl.replace base name v) globals;
      let fw = { fw_run = ctx.fx_run; fw_engine = w; fw_adopt = adopt;
                 fw_base = base }
      in
      slot := Some fw;
      fw

(* Globals the fragment added or rebound, relative to the adopted
   snapshot.  Physical comparison against the snapshot value is sound
   because {!Value.t} is structurally immutable: a binding whose ref
   still holds the very value the snapshot recorded was not written
   (or was rewritten to the identical value, which commits as a
   no-op either way). *)
let frag_genv_delta (fw : frag_worker_state) : (string * Value.t) list =
  Hashtbl.fold
    (fun name r acc ->
      match Hashtbl.find_opt fw.fw_base name with
      | Some v0 when !r == v0 -> acc
      | _ -> (name, !r) :: acc)
    (global_scope fw.fw_engine) []

(* Expand one fragment speculatively on this domain's worker engine.
   Never raises: every failure is contained in the result. *)
let frag_speculate (ctx : frag_ctx) (decls : decl list) ~(index : int) :
    frag_result =
  match frag_worker ctx with
  | exception _ -> Frag_fail
  | fw -> (
      let w = fw.fw_engine in
      let b = w.env.Value.budget in
      let finish () = Watchdog.disarm w.watchdog in
      try
        rollback w fw.fw_adopt;
        (* full per-file budget; reconciled against the main engine's
           remaining pool at commit time *)
        b.Value.fuel <- b.Value.fuel_initial;
        b.Value.nodes <- b.Value.nodes_initial;
        let sreads0 = Senv.reads w.senv in
        let greads0 = !(w.env.Value.greads) in
        let gensym0 = Gensym.count w.gensym in
        let anon0 = Senv.anon_count w.senv in
        let meta0 = w.stats.meta_declarations_run in
        let inv0 = w.stats.invocations_expanded in
        Watchdog.arm w.watchdog ~ms:ctx.fx_frag_ms;
        let prog =
          Obs.with_span ~cat:"expand"
            ~args:(fun () ->
              [ ("fragment_index", Obs.Int index);
                ("speculative", Obs.Bool true) ])
            "fragment-expand"
            (fun () ->
              (let loc =
                 match decls with
                 | d :: _ -> d.dloc
                 | [] -> Loc.dummy
               in
               Failpoint.hit ~watchdog:w.watchdog ~loc "engine/fragment");
              expand_program w decls)
        in
        finish ();
        let sub3 (a, b, c) (a0, b0, c0) = (a - a0, b - b0, c - c0) in
        if w.defs_version <> ctx.fx_v0 then Frag_abort Abort_defs_bump
        else if
          Gensym.count w.gensym <> gensym0
          || Senv.anon_count w.senv <> anon0
        then Frag_abort Abort_gensym_mint
        else if w.stats.meta_declarations_run <> meta0 then
          Frag_abort Abort_meta_decl
        else if
          List.length w.env.Value.scopes <> 1 || Senv.depth w.senv <> 1
        then Frag_abort Abort_stale_read
        else
          match Senv.diff_top w.senv ~base:ctx.fx_cp.cp_senv with
          | None -> Frag_abort Abort_stale_read
          | Some senv_delta ->
              let genv_delta = frag_genv_delta fw in
              if List.exists (fun (_, v) -> contains_closure v) genv_delta
              then Frag_abort Abort_foreign_closure
              else
                Frag_done
                  {
                    fr_prog = prog;
                    fr_senv_delta = senv_delta;
                    fr_genv_delta = genv_delta;
                    fr_sreads = sub3 (Senv.reads w.senv) sreads0;
                    fr_greads = !(w.env.Value.greads) - greads0;
                    fr_fuel = b.Value.fuel_initial - b.Value.fuel;
                    fr_nodes = b.Value.nodes_initial - b.Value.nodes;
                    fr_invocations = w.stats.invocations_expanded - inv0;
                  }
      with _ ->
        finish ();
        Frag_fail)

(* Per-kind dirtiness of shared state *within one speculation run*: a
   speculative result may only commit if everything it read is still
   what the run-start snapshot said.  Flags are set by committed deltas
   and by whatever a sequential re-expansion wrote (measured with the
   [Senv] write odometers; global meta writes are unmeasured on the
   main engine, so any re-expansion conservatively dirties globals). *)
type frag_dirty = {
  mutable fd_vars : bool;
  mutable fd_typedefs : bool;
  mutable fd_layouts : bool;
  mutable fd_globals : bool;
}

let frag_commit_ok (t : t) (dirty : frag_dirty) ~(v0 : int)
    (r : frag_commit) : bool =
  let b = t.env.Value.budget in
  let rv, rt, rl = r.fr_sreads in
  t.defs_version = v0
  && b.Value.fuel >= r.fr_fuel
  && b.Value.nodes >= r.fr_nodes
  && ((not dirty.fd_vars) || rv = 0)
  && ((not dirty.fd_typedefs) || rt = 0)
  && ((not dirty.fd_layouts) || rl = 0)
  && ((not dirty.fd_globals) || r.fr_greads = 0)

let frag_apply_commit (t : t) (dirty : frag_dirty) (r : frag_commit) : unit =
  Senv.apply_top t.senv r.fr_senv_delta;
  let global = global_scope t in
  List.iter
    (fun (name, v) ->
      match Hashtbl.find_opt global name with
      | Some cell -> cell := v
      | None -> Hashtbl.replace global name (ref v))
    r.fr_genv_delta;
  let b = t.env.Value.budget in
  b.Value.fuel <- b.Value.fuel - r.fr_fuel;
  b.Value.nodes <- b.Value.nodes - r.fr_nodes;
  t.stats.invocations_expanded <-
    t.stats.invocations_expanded + r.fr_invocations;
  let dv, dt, dl = Senv.delta_counts r.fr_senv_delta in
  if dv > 0 then dirty.fd_vars <- true;
  if dt > 0 then dirty.fd_typedefs <- true;
  if dl > 0 then dirty.fd_layouts <- true;
  if r.fr_genv_delta <> [] then dirty.fd_globals <- true

(* The ordered walk: barriers and short runs expand sequentially on the
   main engine; runs of two or more pure fragments speculate on the
   pool, then commit (or re-expand) in fragment order.  Raises exactly
   like {!expand_program} — the caller's transactional wrapper handles
   rollback. *)
let frag_commit_walk (t : t) ~(jobs : int) ~(fragment_ms : int)
    (plan : frag_plan array) : program =
  let n = Array.length plan in
  let chunks = ref [] in
  let seq_expand idx decls =
    let prog =
      Obs.with_span ~cat:"expand"
        ~args:(fun () ->
          [ ("fragment_index", Obs.Int idx);
            ("speculative", Obs.Bool false) ])
        "fragment-expand"
        (fun () -> expand_program t decls)
    in
    chunks := prog :: !chunks
  in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j < n && not plan.(!j).fp_barrier do incr j done;
    if !j - !i < 2 then begin
      (* a barrier, or a lone pure fragment not worth a checkpoint *)
      let stop = if !j = !i then !i + 1 else !j in
      while !i < stop do
        seq_expand !i plan.(!i).fp_decls;
        incr i
      done
    end
    else begin
      let base = !i and stop = !j in
      let v0 = t.defs_version in
      let cp =
        Obs.with_span ~cat:"txn" "speculation-checkpoint" (fun () ->
            checkpoint t)
      in
      let ctx =
        { fx_run = 1 + Atomic.fetch_and_add frag_run_counter 1;
          fx_main = t; fx_cp = cp; fx_v0 = v0; fx_frag_ms = fragment_ms }
      in
      let results =
        Pool.map ~jobs
          ~stop:(function Frag_fail -> true | _ -> false)
          (stop - base)
          (fun k ->
            frag_speculate ctx plan.(base + k).fp_decls ~index:(base + k))
      in
      let dirty =
        { fd_vars = false; fd_typedefs = false; fd_layouts = false;
          fd_globals = false }
      in
      let revalidate idx decls =
        t.stats.frag_revalidated <- t.stats.frag_revalidated + 1;
        Obs.Metrics.incr c_frag_revalidated;
        let w0 = Senv.writes t.senv in
        dirty.fd_globals <- true;
        seq_expand idx decls;
        let wv0, wt0, wl0 = w0 in
        let wv, wt, wl = Senv.writes t.senv in
        if wv > wv0 then dirty.fd_vars <- true;
        if wt > wt0 then dirty.fd_typedefs <- true;
        if wl > wl0 then dirty.fd_layouts <- true
      in
      for k = base to stop - 1 do
        let decls = plan.(k).fp_decls in
        match results.(k - base) with
        | Some (Frag_done r) ->
            t.stats.frag_speculated <- t.stats.frag_speculated + 1;
            Obs.Metrics.incr c_frag_speculated;
            if frag_commit_ok t dirty ~v0 r then begin
              t.stats.frag_committed <- t.stats.frag_committed + 1;
              Obs.Metrics.incr c_frag_committed;
              frag_apply_commit t dirty r;
              chunks := r.fr_prog :: !chunks
            end
            else begin
              (* the worker's result was self-consistent; what it read
                 went stale under earlier commits/re-expansions *)
              count_abort t Abort_stale_read;
              revalidate k decls
            end
        | Some (Frag_abort cause) ->
            t.stats.frag_speculated <- t.stats.frag_speculated + 1;
            Obs.Metrics.incr c_frag_speculated;
            count_abort t cause;
            revalidate k decls
        | Some Frag_fail ->
            t.stats.frag_speculated <- t.stats.frag_speculated + 1;
            Obs.Metrics.incr c_frag_speculated;
            revalidate k decls
        | None ->
            (* cancelled before it ran — plain sequential expansion,
               not a revalidation *)
            seq_expand k decls
      done;
      i := stop
    end
  done;
  List.concat (List.rev !chunks)

(** Fragment-parallel counterpart of {!expand_source_uncached}: same
    transactional boundary, same failure behavior, same output bytes.
    Degrades to the sequential path when the observability or trace
    modes need a faithful sequential event stream, when the engine is
    not transactional (speculation needs checkpoints), or when the file
    has too few fragments to win. *)
let expand_source_fragmented (t : t) ~(jobs : int) ~(fragment_min : int)
    ?deadline_ms ~source (text : string) : program =
  if t.trace <> None then begin
    (match t.trace with
    | Some fmt ->
        Format.fprintf fmt
          "fragments: expanding %s sequentially (trace mode is on)@." source
    | None -> ());
    expand_source_uncached t ?deadline_ms ~source text
  end
  else if
    jobs < 2 || (not t.transactional) || Obs.Profile.enabled ()
    || Obs.recording ()
  then expand_source_uncached t ?deadline_ms ~source text
  else begin
    let loc0 = fragment_start ~source in
    let cp =
      Some (Obs.with_span ~cat:"txn" "checkpoint" (fun () -> checkpoint t))
    in
    let rollback_traced cp =
      Obs.with_span ~cat:"txn" "rollback" (fun () -> rollback t cp)
    in
    let fragment_ms =
      match deadline_ms with
      | Some d -> min t.limits.Limits.timeout_ms d
      | None -> t.limits.Limits.timeout_ms
    in
    Watchdog.arm t.watchdog ~ms:fragment_ms;
    let run () =
      Failpoint.hit ~watchdog:t.watchdog ~loc:loc0 "engine/fragment";
      let st =
        Obs.with_span ~cat:"lex"
          ~args:(fun () -> [ ("bytes", Obs.Int (String.length text)) ])
          "lex"
          (fun () ->
            State.of_string ~macros:t.macros ~tenv:t.tenv ~compiled:t.compiled
              ~watchdog:t.watchdog ~source text)
      in
      st.State.compile_patterns <- t.compile_patterns;
      let frags = Prescan.split st.State.toks in
      let prog =
        Obs.with_span ~cat:"parse" "parse" (fun () ->
            Parser.parse_program st)
      in
      let plan = plan_fragments frags prog in
      if Array.length plan < max 2 fragment_min then
        Obs.with_span ~cat:"expand" "expand-walk" (fun () ->
            expand_program t prog)
      else
        Obs.with_span ~cat:"expand"
          ~args:(fun () ->
            [ ("fragments", Obs.Int (Array.length plan));
              ("jobs", Obs.Int jobs) ])
          "expand-walk-fragments"
          (fun () -> frag_commit_walk t ~jobs ~fragment_ms plan)
    in
    match run () with
    | prog ->
        Watchdog.disarm t.watchdog;
        prog
    | exception Stack_overflow ->
        Watchdog.disarm t.watchdog;
        t.defs_version <- fresh_version ();
        Option.iter rollback_traced cp;
        Diag.error ~loc:loc0 ~code:Diag.code_stack Diag.Resource
          "stack overflow while expanding %s (a pathologically deep \
           program, or runaway recursion in a macro)"
          source
    | exception e ->
        Watchdog.disarm t.watchdog;
        t.defs_version <- fresh_version ();
        Option.iter rollback_traced cp;
        raise e
  end

(* ------------------------------------------------------------------ *)
(* Content-addressed expansion cache                                   *)
(* ------------------------------------------------------------------ *)

(* Behavior flags that change the produced program or its locations;
   part of the cache key. *)
let cache_flags (t : t) : string =
  Printf.sprintf "hyg=%b prov=%b rec=%b cp=%b txn=%b"
    t.env.Value.hygienic t.provenance t.recover t.compile_patterns
    t.transactional

(* Why the cache stood aside for a fragment.  Each reason has its own
   labeled counter so the split is visible in [stats] output; the
   aggregate [cache_bypasses] stays their sum. *)
type bypass = Bypass_trace | Bypass_failpoints | Bypass_uncacheable | Bypass_budget

let bypass_reason = function
  | Bypass_trace -> "trace"
  | Bypass_failpoints -> "failpoints"
  | Bypass_uncacheable -> "uncacheable"
  | Bypass_budget -> "budget"

let note_bypass (t : t) ~source (why : bypass) : unit =
  t.stats.cache_bypasses <- t.stats.cache_bypasses + 1;
  (match why with
  | Bypass_trace ->
      t.stats.cache_bypass_trace <- t.stats.cache_bypass_trace + 1
  | Bypass_failpoints ->
      t.stats.cache_bypass_failpoints <- t.stats.cache_bypass_failpoints + 1
  | Bypass_uncacheable ->
      t.stats.cache_bypass_uncacheable <- t.stats.cache_bypass_uncacheable + 1
  | Bypass_budget ->
      t.stats.cache_bypass_budget <- t.stats.cache_bypass_budget + 1);
  Obs.instant ~cat:"cache" "bypass"
    ~args:(fun () ->
      [ ("source", Obs.Str source); ("reason", Obs.Str (bypass_reason why)) ]);
  (* trace mode silently disabling the cache surprised people (the stats
     suddenly show zero hits); say so in the trace log itself *)
  match (why, t.trace) with
  | Bypass_trace, Some fmt ->
      Format.fprintf fmt "cache: bypassed for %s (trace mode is on)@." source
  | _ -> ()

(* The key for expanding [text] now, or the reason the cache must stand
   aside: trace mode (the trace is a side effect a replay would skip),
   armed failpoints (replays would mask injected failures), or session
   state with no trustworthy digest. *)
let cache_key (t : t) ~source (text : string) : (string, bypass) result =
  if t.trace <> None then Error Bypass_trace
  else if Failpoint.armed () then Error Bypass_failpoints
  else
    match
      Cache.key ~defs_version:t.defs_version ~env:t.env ~tenv:t.tenv
        ~senv:t.senv ~limits:t.limits ~flags:(cache_flags t) ~source text
    with
    | key -> Ok key
    | exception Cache.Uncacheable -> Error Bypass_uncacheable

(* Replay a cached run: register the source with the diagnostic registry
   (the lexer would have), restore the recorded post-run session state —
   through the same in-place rollback the transaction layer uses, so
   aliasing parser states stay attached — and apply the run's resource
   and statistics deltas. *)
let replay (t : t) (e : cached_run) ~source (text : string) : program =
  Obs.with_span ~cat:"cache"
    ~args:(fun () ->
      [ ("source", Obs.Str source);
        ("invocations", Obs.Int e.ca_invocations) ])
    "replay"
    (fun () ->
      Diag.register_source source text;
      rollback t e.ca_post;
      t.defs_version <- e.ca_version;
      let b = t.env.Value.budget in
      b.Value.fuel <- b.Value.fuel - e.ca_fuel;
      b.Value.nodes <- b.Value.nodes - e.ca_nodes;
      t.stats.invocations_expanded <-
        t.stats.invocations_expanded + e.ca_invocations;
      t.stats.meta_declarations_run <-
        t.stats.meta_declarations_run + e.ca_meta_runs;
      t.stats.macros_defined <- t.stats.macros_defined + e.ca_macros_defined;
      if Obs.Profile.enabled () then
        List.iter
          (fun (macro, n) -> Obs.Profile.credit_cached macro n)
          e.ca_profile;
      e.ca_program)

(** Cached expansion.  A hit replays the recorded output and post-run
    state; a miss runs for real and — when the run was clean (no new
    diagnostics) and minted no generated names or anonymous tags —
    stores the result.  The mint restriction is the hygiene story: the
    gensym and anonymous-tag counters are monotonic and never rolled
    back, so a run that consulted them ran from a state that can never
    recur (the entry would be dead), and a run that did not cannot
    depend on them — replaying it is bit-for-bit the rerun. *)
let expand_source (t : t) ?(source = "<string>") ?deadline_ms
    ?(fragment_jobs = 1) ?(fragment_min = 8) (text : string) : program =
  (* fragment parallelism replaces only the *uncached* runner; the
     cache layer (probe, store, bypass accounting) is identical either
     way, and the store-side mint guards hold because committed
     speculative fragments never touch the main gensym or anonymous-tag
     counters (aborted ones are discarded with their worker state). *)
  let run_uncached () =
    if fragment_jobs > 1 then
      expand_source_fragmented t ~jobs:fragment_jobs ~fragment_min
        ?deadline_ms ~source text
    else expand_source_uncached t ?deadline_ms ~source text
  in
  Obs.with_span ~cat:"fragment"
    ~args:(fun () ->
      [ ("source", Obs.Str source);
        ("bytes", Obs.Int (String.length text)) ])
    "fragment"
  @@ fun () ->
  match t.cache with
  | None -> run_uncached ()
  | Some cache -> (
      match cache_key t ~source text with
      | Error why ->
          note_bypass t ~source why;
          run_uncached ()
      | Ok key -> (
          (* the version the key just digested; stored with a miss so
             snapshot loads can audit it (see [ca_pre_version]) *)
          let pre_version = t.defs_version in
          let b = t.env.Value.budget in
          let hit =
            Obs.with_span ~cat:"cache" "lookup" (fun () ->
                Cache.find cache key)
          in
          match hit with
          | Some e when b.Value.fuel >= e.ca_fuel && b.Value.nodes >= e.ca_nodes
            ->
              t.stats.cache_hits <- t.stats.cache_hits + 1;
              replay t e ~source text
          | Some _ ->
              (* a replay would overdraw the remaining global budget —
                 the real run must happen (and fail) for real *)
              note_bypass t ~source Bypass_budget;
              run_uncached ()
          | None ->
              t.stats.cache_misses <- t.stats.cache_misses + 1;
              let gensym0 = Gensym.count t.gensym in
              let anon0 = Senv.anon_count t.senv in
              let diags0 = Diag.count t.diags in
              let fuel0 = fuel_consumed t in
              let nodes0 = nodes_produced t in
              let inv0 = t.stats.invocations_expanded in
              let meta0 = t.stats.meta_declarations_run in
              let defs0 = t.stats.macros_defined in
              let profile0 =
                if Obs.Profile.enabled () then Obs.Profile.counts () else []
              in
              let prog = run_uncached () in
              if
                Gensym.count t.gensym = gensym0
                && Senv.anon_count t.senv = anon0
                && Diag.count t.diags = diags0
              then
                Obs.with_span ~cat:"cache" "store" (fun () ->
                (* entry weight estimate: the parsed-and-expanded
                   program scales with the fragment text and the nodes
                   the templates produced; the checkpoint's table spines
                   are a near-constant (their contents are shared with
                   the live session).  Walking the real structure with
                   [Obj.reachable_words] here would cost more than the
                   rest of the store path combined. *)
                let size_bytes =
                  2048
                  + (8 * String.length text)
                  + (128 * (nodes_produced t - nodes0))
                in
                (* per-macro invocation deltas for this fragment, so a
                   replay can credit the profiler with what it skipped *)
                let ca_profile =
                  if not (Obs.Profile.enabled ()) then []
                  else
                    List.filter_map
                      (fun (macro, n) ->
                        let n0 =
                          match List.assoc_opt macro profile0 with
                          | Some n0 -> n0
                          | None -> 0
                        in
                        if n > n0 then Some (macro, n - n0) else None)
                      (Obs.Profile.counts ())
                in
                Cache.add cache key ~size_bytes
                  {
                    ca_program = prog;
                    ca_post = checkpoint t;
                    ca_version = t.defs_version;
                    ca_pre_version = pre_version;
                    ca_fuel = fuel_consumed t - fuel0;
                    ca_nodes = nodes_produced t - nodes0;
                    ca_invocations = t.stats.invocations_expanded - inv0;
                    ca_meta_runs = t.stats.meta_declarations_run - meta0;
                    ca_macros_defined = t.stats.macros_defined - defs0;
                    ca_profile;
                  });
              prog))

(* The store-wide eviction count is a merged sweep over every shard
   (one mutex round-trip each), far too expensive to refresh on every
   miss — it used to cost more than the rest of the store path
   combined.  Readers pull it on demand instead; the cached field keeps
   the last refreshed value for engines whose store is gone. *)
let cache_evictions (t : t) : int =
  (match t.cache with
  | None -> ()
  | Some cache -> t.stats.cache_evictions <- Cache.evictions cache);
  t.stats.cache_evictions

(* ------------------------------------------------------------------ *)
(* Durable cache snapshots                                             *)
(* ------------------------------------------------------------------ *)

(* A snapshot persists a shared cache store across processes so a
   restarted batch or daemon starts warm.  The container is
   deliberately paranoid:

     magic (8) | format version (u32) | build id (16) |
     generation (16) | version-counter high water (i64) |
     entry count (u32) |
     count * [ payload length (u32) | MD5(payload) (16) | payload ]

   Every record carries its own checksum, and ANY integrity failure —
   bad magic, version skew, truncation, a flipped bit, trailing bytes,
   an undecodable record — degrades the WHOLE load to a cold cache with
   a warning counter.  Partial salvage is not worth the risk surface:
   a snapshot is an optimization, and the only unforgivable outcome is
   a wrong replay.  [Marshal.from_string] only ever runs on bytes whose
   digest matched, i.e. bytes this code wrote — and the header's build
   id ({!Build_id.digest}, the fingerprint of the executable image)
   further pins "this code" to THIS build of the binary: a snapshot
   left on disk across an upgrade whose value layout changed is a cold
   start, not an untyped decode of stale bytes, without anyone having
   to remember to bump [snapshot_format_version].

   What does NOT survive the round trip, and how loading repairs it:

   - Compiled invocation patterns are closures.  Saving strips each
     entry's [cp_compiled] table down to its name list; loading
     recompiles every pattern from the entry's own [cp_defs] (pattern
     compilation is deterministic).  An entry whose patterns cannot be
     rebuilt is dropped, never half-restored.
   - Meta globals can hold closures ([Vclosure] captures the engine
     through [env.expand_invocation]); such entries fail to marshal and
     are skipped at save time, counted in [sv_skipped].
   - Interned symbols lose pointer identity under [Marshal]; the Tenv
     and Senv tables inside each checkpoint are rebuilt by re-interning
     every key ({!Tenv.rehydrate} / {!Senv.rehydrate}).
   - Gensym state needs no persistence by construction: the engine
     never stores a run that minted generated names or anonymous tags,
     and diagnosed runs are never stored either.

   {b Version safety.}  [defs_version] numbers are allocated by a
   process-local counter, so a number from another process may collide
   with one this process already bound to different table contents —
   the one way a snapshot could cause a WRONG replay rather than a slow
   one.  Two rules keep the version→content mapping single-valued:

   - a snapshot written by this very process instance (matching
     [generation]) is trusted — every version in it was allocated or
     previously adopted by this process's counter — and the counter is
     still CAS-advanced past the header's recorded high water (a no-op
     for a genuine self-reload, whose counter is already there);
   - otherwise an entry is accepted only if every version it mentions
     ([ca_pre_version], [ca_version], [cp_version]) is either 0 (the
     reserved pristine-tables version, whose content is fixed) or
     strictly greater than the counter's current value; the counter is
     then CAS-advanced past the snapshot's maximum so those numbers can
     never be re-allocated.  The filter re-runs if the CAS loses a
     race.  Rejected entries are dropped (a miss, not a fault).

   "Process instance" must mean exactly that under [Unix.fork]: the
   [ms2c serve --supervise] workers are fork children, so any
   generation fixed at module init would be SHARED between a crashed
   worker and its restarted sibling — whose counter restarts at the
   supervisor's fork-time value, re-allocating numbers the dead
   sibling already bound to different table contents.  {!generation}
   therefore mixes the current pid into a startup-random base on every
   use: fork children never match each other, and take the adoption
   path above.  The high-water advance on the matching path is defense
   in depth for the residual aliasing risk (a recycled pid landing on
   a fork sibling of the same base). *)

let snapshot_magic = "MS2SNAP\001"
let snapshot_format_version = 2

(* 128 self-seeded bits fixed at startup, so two unrelated processes
   cannot collide; the pid mixed in per call distinguishes fork
   children sharing the base (see the module comment above). *)
let generation_base : string =
  let st = Random.State.make_self_init () in
  let b = Buffer.create 64 in
  for _ = 1 to 8 do
    Buffer.add_string b (string_of_int (Random.State.bits st));
    Buffer.add_char b '.'
  done;
  Buffer.contents b

let generation () : string =
  Digest.string
    (Printf.sprintf "%s#%d" generation_base (Build_id.pid ()))

type persisted_entry = {
  pe_key : string;
  pe_size : int;  (** the size estimate the entry was admitted with *)
  pe_compiled : string list;  (** macro names to recompile at load *)
  pe_run : cached_run;  (** with [cp_compiled] emptied *)
}

type snapshot_save = { sv_entries : int; sv_skipped : int; sv_bytes : int }

type snapshot_load = {
  ld_entries : int;  (** entries restored into the store *)
  ld_dropped : int;  (** version-unsafe or unrebuildable entries *)
  ld_warnings : int;  (** 1 when integrity failed and the load degraded *)
  ld_error : string option;  (** the reason, when [ld_warnings > 0] *)
}

let cold_load = { ld_entries = 0; ld_dropped = 0; ld_warnings = 0; ld_error = None }

let strip_compiled (run : cached_run) : cached_run * string list =
  let names =
    Hashtbl.fold (fun name _ acc -> name :: acc) run.ca_post.cp_compiled []
  in
  ( { run with ca_post = { run.ca_post with cp_compiled = Hashtbl.create 1 } },
    names )

let save_store (cache : cached_run Cache.t) (path : string) :
    (snapshot_save, string) result =
  Obs.with_span ~cat:"snapshot" "save" @@ fun () ->
  match Failpoint.hit ~loc:Loc.dummy "snapshot/save" with
  | exception Diag.Error d -> Result.Error d.Diag.message
  | () -> (
      let entries = ref 0 and skipped = ref 0 in
      let records = Buffer.create 65536 in
      Cache.fold cache
        (fun key run size () ->
          let run, names = strip_compiled run in
          match
            Marshal.to_string
              ({ pe_key = key; pe_size = size; pe_compiled = names;
                 pe_run = run }
                : persisted_entry)
              []
          with
          | exception _ ->
              (* a closure reached the entry (meta globals can hold
                 them); skip it — it will be a miss next run *)
              incr skipped
          | payload ->
              incr entries;
              Buffer.add_int32_le records (Int32.of_int (String.length payload));
              Buffer.add_string records (Digest.string payload);
              Buffer.add_string records payload)
        ();
      let b = Buffer.create (Buffer.length records + 64) in
      Buffer.add_string b snapshot_magic;
      Buffer.add_int32_le b (Int32.of_int snapshot_format_version);
      Buffer.add_string b (Build_id.digest ());
      Buffer.add_string b (generation ());
      Buffer.add_int64_le b (Int64.of_int (Atomic.get version_counter));
      Buffer.add_int32_le b (Int32.of_int !entries);
      Buffer.add_buffer b records;
      let out = Buffer.contents b in
      match Atomic_io.write path out with
      | Ok () ->
          Obs.Metrics.incr ~by:!entries
            (Obs.Metrics.counter "snapshot.save.entries");
          if !skipped > 0 then
            Obs.Metrics.incr ~by:!skipped
              (Obs.Metrics.counter "snapshot.save.skipped");
          Ok
            {
              sv_entries = !entries;
              sv_skipped = !skipped;
              sv_bytes = String.length out;
            }
      | Error msg -> Result.Error msg)

exception Corrupt of string

let parse_snapshot (raw : string) : string * int * persisted_entry list =
  let len = String.length raw in
  let pos = ref 0 in
  let need n what =
    if !pos + n > len then
      raise (Corrupt (Printf.sprintf "truncated in %s" what))
  in
  let get_str n what =
    need n what;
    let s = String.sub raw !pos n in
    pos := !pos + n;
    s
  in
  let get_u32 what =
    need 4 what;
    let v = Int32.to_int (String.get_int32_le raw !pos) in
    pos := !pos + 4;
    if v < 0 then raise (Corrupt (what ^ ": out of range"));
    v
  in
  let get_i64 what =
    need 8 what;
    let v = Int64.to_int (String.get_int64_le raw !pos) in
    pos := !pos + 8;
    v
  in
  if get_str 8 "magic" <> snapshot_magic then raise (Corrupt "bad magic");
  let fv = get_u32 "format version" in
  if fv <> snapshot_format_version then
    raise
      (Corrupt
         (Printf.sprintf "format version %d (this build reads %d)" fv
            snapshot_format_version));
  if get_str 16 "build id" <> Build_id.digest () then
    raise (Corrupt "written by a different build of this binary");
  let file_gen = get_str 16 "generation" in
  let high_water = get_i64 "version counter" in
  let count = get_u32 "entry count" in
  let entries = ref [] in
  for i = 1 to count do
    let plen = get_u32 "record length" in
    let digest = get_str 16 "record digest" in
    let payload = get_str plen "record payload" in
    if Digest.string payload <> digest then
      raise (Corrupt (Printf.sprintf "record %d checksum mismatch" i));
    match (Marshal.from_string payload 0 : persisted_entry) with
    | exception _ -> raise (Corrupt (Printf.sprintf "record %d undecodable" i))
    | pe -> entries := pe :: !entries
  done;
  if !pos <> len then raise (Corrupt "trailing bytes");
  (file_gen, high_water, List.rev !entries)

(* Rebuild what [Marshal] could not carry; [None] drops the entry. *)
let rehydrate_entry (pe : persisted_entry) : persisted_entry option =
  let cp = pe.pe_run.ca_post in
  let compiled = Hashtbl.create (max 4 (List.length pe.pe_compiled)) in
  match
    List.iter
      (fun name ->
        match Hashtbl.find_opt cp.cp_defs name with
        | None -> raise Exit
        | Some md ->
            Hashtbl.replace compiled name (Parser.compile_pattern md.m_pattern))
      pe.pe_compiled
  with
  | exception _ -> None
  | () ->
      Some
        {
          pe with
          pe_run =
            {
              pe.pe_run with
              ca_post =
                {
                  cp with
                  cp_compiled = compiled;
                  cp_tenv = Tenv.rehydrate cp.cp_tenv;
                  cp_senv = Senv.rehydrate cp.cp_senv;
                };
            };
        }

let entry_versions (run : cached_run) : int list =
  [ run.ca_pre_version; run.ca_version; run.ca_post.cp_version ]

(* Accept only entries whose versions cannot collide with numbers this
   process has already bound, and reserve the accepted range by
   advancing the counter past it (see the module comment above). *)
let rec adopt_versions (candidates : persisted_entry list) :
    persisted_entry list =
  let cur0 = Atomic.get version_counter in
  let safe =
    List.filter
      (fun pe ->
        List.for_all (fun v -> v = 0 || v > cur0) (entry_versions pe.pe_run))
      candidates
  in
  let vmax =
    List.fold_left
      (fun m pe -> List.fold_left max m (entry_versions pe.pe_run))
      cur0 safe
  in
  if vmax = cur0 then safe
  else if Atomic.compare_and_set version_counter cur0 vmax then safe
  else adopt_versions candidates

let load_store (cache : cached_run Cache.t) (path : string) : snapshot_load =
  Obs.with_span ~cat:"snapshot" "load" @@ fun () ->
  let degraded msg =
    Obs.Metrics.incr (Obs.Metrics.counter "snapshot.load.warnings");
    { ld_entries = 0; ld_dropped = 0; ld_warnings = 1; ld_error = Some msg }
  in
  if not (Sys.file_exists path) then cold_load
  else
    match
      Failpoint.hit ~loc:Loc.dummy "snapshot/load";
      In_channel.with_open_bin path In_channel.input_all
    with
    | exception Diag.Error d -> degraded d.Diag.message
    | exception Sys_error msg -> degraded msg
    | raw -> (
        match parse_snapshot raw with
        | exception Corrupt msg -> degraded (Printf.sprintf "%s: %s" path msg)
        | exception _ -> degraded (path ^ ": unreadable snapshot")
        | file_gen, high_water, raw_entries ->
            let rehydrated, broken =
              List.fold_left
                (fun (ok, bad) pe ->
                  match rehydrate_entry pe with
                  | Some pe -> (pe :: ok, bad)
                  | None -> (ok, bad + 1))
                ([], 0) raw_entries
            in
            let rehydrated = List.rev rehydrated in
            let accepted =
              if file_gen = generation () then begin
                (* even on the trusted path, never leave the counter
                   below the writer's high water: numbers the writer
                   allocated must stay un-mintable here (see the
                   version-safety module comment) *)
                let rec reserve () =
                  let cur = Atomic.get version_counter in
                  if
                    high_water > cur
                    && not
                         (Atomic.compare_and_set version_counter cur
                            high_water)
                  then reserve ()
                in
                reserve ();
                rehydrated
              end
              else adopt_versions rehydrated
            in
            List.iter
              (fun pe ->
                Cache.add cache ~size_bytes:pe.pe_size pe.pe_key pe.pe_run)
              accepted;
            let dropped =
              broken + List.length rehydrated - List.length accepted
            in
            Obs.Metrics.incr ~by:(List.length accepted)
              (Obs.Metrics.counter "snapshot.load.entries");
            if dropped > 0 then
              Obs.Metrics.incr ~by:dropped
                (Obs.Metrics.counter "snapshot.load.dropped");
            {
              ld_entries = List.length accepted;
              ld_dropped = dropped;
              ld_warnings = 0;
              ld_error = None;
            })
