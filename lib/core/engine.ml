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
module Value = Ms2_meta.Value
module Interp = Ms2_meta.Interp
module Fill = Ms2_meta.Fill
module Senv = Ms2_csem.Senv
module Of_ast = Ms2_csem.Of_ast

type t = {
  macros : State.macro_sig Smap.t ref;
      (** signatures; the ref is shared with every parser state the
          engine creates, so a parse registers into the engine's map *)
  compiled : unit;  (** inert: kept for the perfbench tracer *)
  mutable defs : macro_def Smap.t;
  tenv : Tenv.t;
  env : Value.env;  (** meta environment; its [globals] persist *)
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
  compile_patterns : bool;  (** always false: kept for the perfbench tracer *)
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
  stats : Counters.stats;
  mutable defs_version : Digest.t;
      (** a digest of the definition history that built the macro
          tables: {!pristine_defs} for the empty tables every fresh
          engine starts with, then chained by each registration
          ({!register_macro_def}).  Equal digests imply an equal history,
          hence equal tables, in any engine of any process — what lets
          the expansion-cache key summarize the tables, lets engines
          share a store, and keeps snapshot keys valid across processes.
          Rollback and cache replay restore a stored digest *)
  cache : cached_run Cache.t option;  (** [None] = caching disabled *)
}

(** What a cache hit replays: the produced program, the post-run session
    state (a checkpoint — restoring it {e is} the state delta, replayed
    through the same rollback the transaction layer uses), and the run's
    resource/statistics deltas. *)
and cached_run = {
  ca_program : stored_program;
  ca_rendered : Pretty.result option Atomic.t array;
      (** the program's first render, one slot per [line_directives]
          value ([false], [true]): a hit whose slot is filled replays
          the text and line map without rendering again.  Filled once,
          by compare-and-set, so two domains rendering the same entry
          agree on one value *)
  ca_post : checkpoint;
  ca_size : int;
      (** the entry's size estimate when stored; its renders are
          charged on top ({!entry_size}) *)
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

(** A stored run's program: decoded, or — for an entry a snapshot load
    restored — still marshalled, as [len] bytes at [off] in the
    snapshot file's contents [raw] (sliced, not copied), decoded on
    first demand by {!program_of}. *)
and stored_program = program_state Atomic.t

and program_state =
  | Decoded of program
  | Encoded of { raw : string; off : int; len : int; digest : string }

(* A checkpoint captures every piece of session state a run reads:
   macro tables, the meta type environment, the global meta
   environment, the object-level symbol table, and the fresh-name
   counts.  It does not capture stats, fuel consumed, and recorded
   diagnostics (the whole point of the rollback is to keep them).

   Every table, the global meta scope included, is an immutable map of
   closed values, so a checkpoint is the maps and a count, and a
   rollback stores them back: nothing is copied, and a checkpoint
   shares its structure with the live session and with every other
   checkpoint.  No meta value refers to an engine (a closure reads
   globals from whichever session calls it), so a checkpoint taken on
   one engine is rolled back on any other as it is: sessions served by
   any worker, per-file engines starting from one post-prelude state,
   and a snapshot's restored entries. *)
and checkpoint = {
  cp_macros : State.macro_sig Smap.t;
  cp_defs : macro_def Smap.t;
  cp_tenv : Mtype.t Smap.t list;  (** the {!Tenv} scope stack *)
  cp_globals : Value.t Smap.t;  (** the global meta scope *)
  cp_senv : Senv.tables;  (** with the anonymous-tag count *)
  cp_gensym : int;
  cp_version : Digest.t;
      (** [defs_version] at capture.  Rollback restores it: the digest
          names the registration history, so returning to the captured
          tables is returning to their digest.  Keeps cache keys stable
          across the rollback-per-request pattern of the serve daemon's
          sessions. *)
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
  match Smap.find_opt inv.inv_name.id_name t.defs with
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
          (* push the frame for the duration of the body: the filler
             reads it to stamp everything this invocation produces *)
          let saved = !(t.env.Value.provenance) in
          t.env.Value.provenance := frame;
          Fun.protect
            ~finally:(fun () -> t.env.Value.provenance := saved)
            run
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
              else if Loc.origin d.Diag.loc == frame then d.Diag.loc
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

(* The digest of the pristine, empty macro tables: the start of every
   engine's definition history. *)
let pristine_defs : Digest.t = Digest.string "ms2: pristine macro tables"

let create_store ?budget_bytes () : cached_run Cache.t =
  Cache.create ?budget_bytes ()

let create ?(limits = Limits.default) ?(hygienic = false) ?(recover = false)
    ?(cache = true) ?cache_bytes ?cache_store () : t =
  let gensym = Gensym.create () in
  let budget = Value.create_budget ~fuel:limits.Limits.fuel () in
  let env = Value.create_env ~gensym ~budget () in
  env.Value.hygienic <- hygienic;
  let senv = Senv.create () in
  env.Value.semantic <- Some senv;
  let t =
    {
      macros = ref Smap.empty;
      compiled = ();
      defs = Smap.empty;
      tenv = Tenv.create ();
      env;
      senv;
      gensym;
      limits;
      watchdog = budget.Value.watchdog;
      compile_patterns = false;
      recover;
      diags = Diag.collector ~max_errors:limits.Limits.max_errors ();
      trace = None;
      stats =
        { invocations_expanded = 0; meta_declarations_run = 0;
          macros_defined = 0; fuel_consumed = 0; nodes_produced = 0;
          cache_hits = 0; cache_misses = 0; cache_evictions = 0;
          cache_bypasses = 0; cache_bypass_trace = 0;
          cache_bypass_failpoints = 0; cache_bypass_budget = 0;
          fragments_speculated = 0; fragments_committed = 0;
          fragments_revalidated = 0;
          fragments_abort_defs_bump = 0; fragments_abort_gensym_mint = 0;
          fragments_abort_meta_decl = 0; fragments_abort_stale_read = 0;
          fragments_abort_foreign_closure = 0; pattern_memo_hits = 0;
          pattern_memo_misses = 0; firstset_memo_hits = 0;
          firstset_memo_misses = 0 };
      defs_version = pristine_defs;
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

let checkpoint (t : t) : checkpoint =
  {
    cp_macros = !(t.macros);
    cp_defs = t.defs;
    cp_tenv = t.tenv.Tenv.scopes;
    cp_globals = !(t.env.Value.globals);
    cp_senv = Senv.tables t.senv;
    cp_gensym = Gensym.count t.gensym;
    cp_version = t.defs_version;
  }

let rollback (t : t) (cp : checkpoint) : unit =
  (* restore, not bump: see [cp_version] *)
  t.defs_version <- cp.cp_version;
  t.macros := cp.cp_macros;
  t.defs <- cp.cp_defs;
  t.tenv.Tenv.scopes <- cp.cp_tenv;
  t.env.Value.globals := cp.cp_globals;
  (* also unwinds scopes a mid-fragment abort left open *)
  t.env.Value.scopes <- [];
  t.env.Value.provenance := Loc.User;
  Senv.set_tables t.senv cp.cp_senv;
  Gensym.set t.gensym cp.cp_gensym

(* A structural digest of the session state a checkpoint holds, for
   asserting the rollback invariant.  Values are summarized by name and
   type (closures have no structural identity).  [scopes] counts the
   meta-env scopes left open: none in a checkpoint, since {!rollback}
   closes them. *)
let state_fingerprint ~scopes (cp : checkpoint) : string =
  let names map = String.concat "," (List.map fst (Smap.bindings map)) in
  let tables =
    Printf.sprintf "macros=[%s] defs=[%s]" (names cp.cp_macros)
      (names cp.cp_defs)
  in
  let globals =
    Smap.fold
      (fun name v acc -> (name ^ ":" ^ Value.type_name v) :: acc)
      cp.cp_globals []
    |> List.rev |> String.concat ","
  in
  Printf.sprintf "%s globals=[%s] scopes=%d senv-depth=%d gensym=%d anon=%d"
    tables globals scopes (Senv.depth cp.cp_senv) cp.cp_gensym
    (Senv.anon_count cp.cp_senv)

let checkpoint_fingerprint (cp : checkpoint) : string =
  state_fingerprint ~scopes:0 cp

let fingerprint (t : t) : string =
  state_fingerprint ~scopes:(List.length t.env.Value.scopes) (checkpoint t)

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
  (* [macro_def] is plain AST data, so its marshalled bytes are its
     content; chaining every registration also moves the digest on a
     redefinition that restores earlier tables *)
  t.defs_version <-
    Digest.string (t.defs_version ^ Marshal.to_string (name, md) []);
  t.defs <- Smap.add name md t.defs;
  t.macros :=
    Smap.add name
      { State.sig_ret = md.m_ret; sig_pattern = md.m_pattern }
      !(t.macros)

let check_depth t ~loc depth =
  if depth > t.limits.Limits.max_depth then
    Diag.error ~loc ~code:Diag.code_depth Diag.Resource
      "macro expansion exceeded the maximum nesting depth (%d); is a macro \
       expanding into itself?"
      t.limits.Limits.max_depth

(* The walk returns an invocation-free subtree as it is (physically),
   so an expanded program shares all of its immutable structure that
   holds no invocation with the parse tree, and a node is rebuilt only
   when a child changed.  Children are expanded in the order the walk
   has always used (right to left within a node, left to right along a
   list): macros with side effects (fresh names, meta globals) see the
   same sequence. *)

let rec rev_take k l acc =
  match l with
  | x :: rest when k > 0 -> rev_take (k - 1) rest (x :: acc)
  | _ -> acc

(* [List.map f l] (left to right), or [l] itself when [f] returns every
   element unchanged *)
let map_shared f l =
  let rec scan k = function
    | [] -> l
    | x :: rest ->
        let y = f x in
        if y == x then scan (k + 1) rest
        else List.rev_append (rev_take k l []) (y :: List.map f rest)
  in
  scan 0 l

(* [List.concat_map f l] (left to right), or [l] itself when [f] maps
   every element to the list of just that element *)
let concat_map_shared f l =
  let rec scan k = function
    | [] -> l
    | x :: rest -> (
        match f x with
        | [ y ] when y == x -> scan (k + 1) rest
        | ys -> List.rev_append (rev_take k l []) (ys @ List.concat_map f rest))
  in
  scan 0 l

(* Close the scope a failed expansion opened, and re-raise. *)
let pop_scope_reraise t e =
  let bt = Printexc.get_raw_backtrace () in
  Senv.pop_scope t.senv;
  Printexc.raise_with_backtrace e bt

let option_shared f o =
  match o with
  | None -> o
  | Some x ->
      let y = f x in
      if y == x then o else Some y

let rec expand_expr t ~depth (expr : expr) : expr =
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
      let args' = map_shared (expand_expr t ~depth) args in
      let f' = expand_expr t ~depth f in
      if f' == f && args' == args then expr
      else { expr with e = E_call (f', args') }
  | E_index (a, i) ->
      let i' = expand_expr t ~depth i in
      let a' = expand_expr t ~depth a in
      if a' == a && i' == i then expr else { expr with e = E_index (a', i') }
  | E_member (x, f) ->
      let x' = expand_expr t ~depth x in
      if x' == x then expr else { expr with e = E_member (x', f) }
  | E_arrow (x, f) ->
      let x' = expand_expr t ~depth x in
      if x' == x then expr else { expr with e = E_arrow (x', f) }
  | E_postincr x ->
      let x' = expand_expr t ~depth x in
      if x' == x then expr else { expr with e = E_postincr x' }
  | E_postdecr x ->
      let x' = expand_expr t ~depth x in
      if x' == x then expr else { expr with e = E_postdecr x' }
  | E_unary (op, x) ->
      let x' = expand_expr t ~depth x in
      if x' == x then expr else { expr with e = E_unary (op, x') }
  | E_cast (ct, x) ->
      let x' = expand_expr t ~depth x in
      let ct' = expand_ctype t ~depth ct in
      if ct' == ct && x' == x then expr else { expr with e = E_cast (ct', x') }
  | E_sizeof_expr x ->
      let x' = expand_expr t ~depth x in
      if x' == x then expr else { expr with e = E_sizeof_expr x' }
  | E_sizeof_type ct ->
      let ct' = expand_ctype t ~depth ct in
      if ct' == ct then expr else { expr with e = E_sizeof_type ct' }
  | E_binary (op, a, b) ->
      let b' = expand_expr t ~depth b in
      let a' = expand_expr t ~depth a in
      if a' == a && b' == b then expr
      else { expr with e = E_binary (op, a', b') }
  | E_cond (c, a, b) ->
      let b' = expand_expr t ~depth b in
      let a' = expand_expr t ~depth a in
      let c' = expand_expr t ~depth c in
      if c' == c && a' == a && b' == b then expr
      else { expr with e = E_cond (c', a', b') }
  | E_assign (op, l, r) ->
      let r' = expand_expr t ~depth r in
      let l' = expand_expr t ~depth l in
      if l' == l && r' == r then expr
      else { expr with e = E_assign (op, l', r') }
  | E_comma (a, b) ->
      let b' = expand_expr t ~depth b in
      let a' = expand_expr t ~depth a in
      if a' == a && b' == b then expr else { expr with e = E_comma (a', b') }
  | E_backquote _ | E_lambda _ | E_splice _ ->
      error ~loc:expr.eloc
        "meta construct left in object code (%s)"
        (Pretty.expr_to_string expr)

(* specifiers and declarators can embed expressions (enum constant
   values, array sizes): macro invocations there are expanded too *)
and expand_specs t ~depth (specs : spec list) : spec list =
  map_shared
    (fun spec ->
      match spec with
      | S_enum es ->
          let items =
            option_shared
              (map_shared (function
                | Enum_item (id, value) as item ->
                    let value' = option_shared (expand_expr t ~depth) value in
                    if value' == value then item else Enum_item (id, value')
                | Enum_splice _ as item -> item))
              es.enum_items
          in
          if items == es.enum_items then spec
          else S_enum { es with enum_items = items }
      | S_struct (tag, fields) ->
          let fields' = expand_fields t ~depth fields in
          if fields' == fields then spec else S_struct (tag, fields')
      | S_union (tag, fields) ->
          let fields' = expand_fields t ~depth fields in
          if fields' == fields then spec else S_union (tag, fields')
      | spec -> spec)
    specs

and expand_fields t ~depth fields =
  option_shared
    (map_shared (fun f ->
         let declarators =
           map_shared (expand_declarator t ~depth) f.f_declarators
         in
         let specs = expand_specs t ~depth f.f_specs in
         if specs == f.f_specs && declarators == f.f_declarators then f
         else { f_specs = specs; f_declarators = declarators }))
    fields

and expand_declarator t ~depth (d : declarator) : declarator =
  match d with
  | D_ident _ | D_abstract | D_splice _ -> d
  | D_pointer inner ->
      let inner' = expand_declarator t ~depth inner in
      if inner' == inner then d else D_pointer inner'
  | D_array (inner, size) ->
      let size' = option_shared (expand_expr t ~depth) size in
      let inner' = expand_declarator t ~depth inner in
      if inner' == inner && size' == size then d else D_array (inner', size')
  | D_func (inner, params) ->
      let params' =
        map_shared
          (function
            | P_decl (specs, pd) as p ->
                let pd' = expand_declarator t ~depth pd in
                let specs' = expand_specs t ~depth specs in
                if specs' == specs && pd' == pd then p else P_decl (specs', pd')
            | (P_name _ | P_ellipsis | P_splice _) as p -> p)
          params
      in
      let inner' = expand_declarator t ~depth inner in
      if inner' == inner && params' == params then d
      else D_func (inner', params')

and expand_ctype t ~depth (ct : ctype) : ctype =
  let decl = expand_declarator t ~depth ct.ct_decl in
  let specs = expand_specs t ~depth ct.ct_specs in
  if specs == ct.ct_specs && decl == ct.ct_decl then ct
  else { ct_specs = specs; ct_decl = decl }

(** Expansion in a list position: a statement macro's statements, or the
    one statement. *)
and expand_stmts t ~depth (stmt : stmt) : stmt list =
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
  | _ -> [ expand_stmt1 t ~depth stmt ]

(** Expansion in a position holding exactly one statement: a
    list-returning macro is wrapped in a block. *)
and expand_stmt1 t ~depth (stmt : stmt) : stmt =
  match stmt.s with
  | St_macro _ -> (
      match expand_stmts t ~depth stmt with
      | [ s ] -> s
      | [] -> mk_stmt ~loc:stmt.sloc St_null
      | many ->
          mk_stmt ~loc:stmt.sloc
            (St_compound (List.map (fun s -> Bi_stmt s) many)))
  | St_expr e ->
      let e' = expand_expr t ~depth e in
      if e' == e then stmt else { stmt with s = St_expr e' }
  | St_compound items ->
      (* a block opens an object-level scope for the semantic env *)
      Senv.push_scope t.senv;
      let items' =
        match expand_block_items t ~depth items with
        | items' -> items'
        | exception e -> pop_scope_reraise t e
      in
      Senv.pop_scope t.senv;
      if items' == items then stmt else { stmt with s = St_compound items' }
  | St_if (c, th, el) ->
      let el' = option_shared (expand_stmt1 t ~depth) el in
      let th' = expand_stmt1 t ~depth th in
      let c' = expand_expr t ~depth c in
      if c' == c && th' == th && el' == el then stmt
      else { stmt with s = St_if (c', th', el') }
  | St_while (c, body) ->
      let body' = expand_stmt1 t ~depth body in
      let c' = expand_expr t ~depth c in
      if c' == c && body' == body then stmt
      else { stmt with s = St_while (c', body') }
  | St_do (body, c) ->
      let c' = expand_expr t ~depth c in
      let body' = expand_stmt1 t ~depth body in
      if c' == c && body' == body then stmt
      else { stmt with s = St_do (body', c') }
  | St_for (i, c, s, body) ->
      let body' = expand_stmt1 t ~depth body in
      let s' = option_shared (expand_expr t ~depth) s in
      let c' = option_shared (expand_expr t ~depth) c in
      let i' = option_shared (expand_expr t ~depth) i in
      if i' == i && c' == c && s' == s && body' == body then stmt
      else { stmt with s = St_for (i', c', s', body') }
  | St_switch (e, body) ->
      let body' = expand_stmt1 t ~depth body in
      let e' = expand_expr t ~depth e in
      if e' == e && body' == body then stmt
      else { stmt with s = St_switch (e', body') }
  | St_case (e, s) ->
      let s' = expand_stmt1 t ~depth s in
      let e' = expand_expr t ~depth e in
      if e' == e && s' == s then stmt else { stmt with s = St_case (e', s') }
  | St_default s ->
      let s' = expand_stmt1 t ~depth s in
      if s' == s then stmt else { stmt with s = St_default s' }
  | St_return e ->
      let e' = option_shared (expand_expr t ~depth) e in
      if e' == e then stmt else { stmt with s = St_return e' }
  | St_break | St_continue | St_goto _ | St_null -> stmt
  | St_label (id, s) ->
      let s' = expand_stmt1 t ~depth s in
      if s' == s then stmt else { stmt with s = St_label (id, s') }
  | St_splice _ ->
      error ~loc:stmt.sloc "placeholder left in object code"

and expand_block_items t ~depth (items : block_item list) : block_item list =
  concat_map_shared
    (function
      | Bi_decl ({ d = Decl_metadcl _; _ } as d) ->
          (* block-scope meta declaration: run it, emit nothing *)
          t.stats.meta_declarations_run <- t.stats.meta_declarations_run + 1;
          (try with_invocation_budget t (fun () -> Interp.exec_decl t.env d)
           with Diag.Error diag when recoverable t diag -> record t diag);
          []
      | Bi_decl d as item -> (
          match expand_decls t ~depth d with
          | [ d' ] when d' == d -> [ item ]
          | ds -> List.map (fun d -> Bi_decl d) ds)
      | Bi_stmt s as item -> (
          match expand_stmts t ~depth s with
          | [ s' ] when s' == s -> [ item ]
          | ss -> List.map (fun s -> Bi_stmt s) ss))
    items

and expand_decls t ~depth (decl : decl) : decl list =
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
      let specs' = expand_specs t ~depth specs in
      let decl' =
        if specs' == specs then decl
        else { decl with d = Decl_plain (specs', idecls) }
      in
      (* declared names enter the semantic env before their initializers
         are expanded (a name is in scope in its own initializer) *)
      Of_ast.bind_decl t.senv decl';
      let idecls' =
        map_shared
          (function
            | Init_decl (d, init) as idecl ->
                let init' = option_shared (expand_init t ~depth) init in
                let d' = expand_declarator t ~depth d in
                if d' == d && init' == init then idecl
                else Init_decl (d', init')
            | Init_splice _ ->
                error ~loc:decl.dloc "placeholder left in object code")
          idecls
      in
      if idecls' == idecls then [ decl' ]
      else [ { decl with d = Decl_plain (specs', idecls') } ]
  | Decl_fun (specs, d, kr, body) ->
      Of_ast.bind_decl t.senv decl;
      let specs' = expand_specs t ~depth specs in
      let d' = expand_declarator t ~depth d in
      Senv.push_scope t.senv;
      let kr', body' =
        match
          let kr' = concat_map_shared (expand_decls t ~depth) kr in
          Of_ast.bind_params t.senv d' kr';
          (kr', expand_stmt1 t ~depth body)
        with
        | r -> r
        | exception e -> pop_scope_reraise t e
      in
      Senv.pop_scope t.senv;
      if specs' == specs && d' == d && kr' == kr && body' == body then [ decl ]
      else [ { decl with d = Decl_fun (specs', d', kr', body') } ]
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

and expand_init t ~depth init =
  match init with
  | I_expr e ->
      let e' = expand_expr t ~depth e in
      if e' == e then init else I_expr e'
  | I_list items ->
      let items' = map_shared (expand_init t ~depth) items in
      if items' == items then init else I_list items'

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
let process_top (t : t) (decl : decl) : decl list =
  match decl.d with
  | Decl_macro_def md ->
      register_macro_def t md;
      []
  | Decl_metadcl inner ->
      t.stats.meta_declarations_run <- t.stats.meta_declarations_run + 1;
      (* parse-time types were registered by the parser; at top level
         the engine env has no local scope, so the values bind as
         globals *)
      (try with_invocation_budget t (fun () -> Interp.exec_decl t.env inner)
       with Diag.Error d when recoverable t d -> record t d);
      []
  | _ when is_meta_top decl ->
      t.stats.meta_declarations_run <- t.stats.meta_declarations_run + 1;
      (try with_invocation_budget t (fun () -> Interp.exec_decl t.env decl)
       with Diag.Error d when recoverable t d -> record t d);
      []
  | _ -> expand_decls t ~depth:0 decl

(** Expand a whole program to pure C. *)
let expand_program (t : t) (prog : program) : program =
  concat_map_shared (process_top t) prog

(* ------------------------------------------------------------------ *)
(* The fragment runner                                                 *)
(* ------------------------------------------------------------------ *)

(** The location failures with no better span (end-of-input,
    [Stack_overflow]) are reported at: the start of the fragment. *)
let fragment_start ~source : Loc.t =
  let p = { Loc.line = 1; col = 0; offset = 0 } in
  Loc.make ~source ~start_pos:p ~end_pos:p

(* The prelude's source name ({!Prelude.source_name}).  Under hygiene a
   user unit may not spell a generated name, or a minted temporary could
   capture it; the prelude is trusted text, like text re-lexed from a
   macro. *)
let prelude_source_name = "<prelude>"

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
  let cp = Obs.with_span ~cat:"txn" "checkpoint" (fun () -> checkpoint t) in
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
          State.of_string ~macros:t.macros ~tenv:t.tenv ~watchdog:t.watchdog
            ~source
            ~reject_reserved:
              (t.env.Value.hygienic && source <> prelude_source_name)
            text)
    in
    let prog =
      Obs.with_span ~cat:"parse" "parse" (fun () -> Parser.parse_program st)
    in
    Obs.with_span ~cat:"expand" "expand-walk" (fun () -> expand_program t prog)
  in
  match run () with
  | prog ->
      Watchdog.disarm t.watchdog;
      prog
  | exception e -> (
      Watchdog.disarm t.watchdog;
      (* also undoes signatures the aborted parse registered into the
         shared tables, and returns [defs_version] to the checkpoint's *)
      Obs.with_span ~cat:"txn" "rollback" (fun () -> rollback t cp);
      match e with
      | Stack_overflow ->
          Diag.error ~loc:loc0 ~code:Diag.code_stack Diag.Resource
            "stack overflow while expanding %s (a pathologically deep \
             program, or runaway recursion in a macro)"
            source
      | e -> raise e)

(* ------------------------------------------------------------------ *)
(* Content-addressed expansion cache                                   *)
(* ------------------------------------------------------------------ *)

(* Behavior flags that change the produced program or its locations;
   part of the cache key. *)
let cache_flags (t : t) : string =
  Printf.sprintf "hyg=%b rec=%b" t.env.Value.hygienic t.recover

(* Why the cache stood aside for a fragment.  Each reason has its own
   labeled counter so the split is visible in [stats] output; the
   aggregate [cache_bypasses] stays their sum. *)
type bypass = Bypass_trace | Bypass_failpoints | Bypass_budget

let bypass_reason = function
  | Bypass_trace -> "trace"
  | Bypass_failpoints -> "failpoints"
  | Bypass_budget -> "budget"

let note_bypass (t : t) ~source (why : bypass) : unit =
  t.stats.cache_bypasses <- t.stats.cache_bypasses + 1;
  (match why with
  | Bypass_trace ->
      t.stats.cache_bypass_trace <- t.stats.cache_bypass_trace + 1
  | Bypass_failpoints ->
      t.stats.cache_bypass_failpoints <- t.stats.cache_bypass_failpoints + 1
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
   aside: trace mode (the trace is a side effect a replay would skip) or
   armed failpoints (replays would mask injected failures). *)
let cache_key (t : t) ~source (text : string) : (string, bypass) result =
  if t.trace <> None then Error Bypass_trace
  else if Failpoint.armed () then Error Bypass_failpoints
  else
    Ok
      (Obs.with_span ~cat:"cache" "key" (fun () ->
           Cache.key ~defs_version:t.defs_version ~env:t.env ~tenv:t.tenv
             ~senv:t.senv ~limits:t.limits ~flags:(cache_flags t) ~source
             text))

(* OCaml 5's [Lazy] is not safe to force from two domains at once, so
   a restored program is decoded under one process-wide lock; the
   decoded tree then replaces the bytes, and later readers take the
   atomic fast path without locking. *)
let decode_lock = Mutex.create ()

let program_of (p : stored_program) : program =
  match Atomic.get p with
  | Decoded prog -> prog
  | Encoded _ ->
      Mutex.protect decode_lock (fun () ->
          match Atomic.get p with
          | Decoded prog -> prog
          | Encoded { raw; off; _ } ->
              (* the bytes' digest was checked when the snapshot loaded *)
              let prog : program = Marshal.from_string raw off in
              Atomic.set p (Decoded prog);
              Obs.Metrics.incr (Obs.Metrics.counter "snapshot.load.decoded");
              prog)

(* Replay a cached run: restore the recorded post-run session state
   through the same rollback the transaction layer uses, and apply the
   run's resource and statistics deltas. *)
let replay (t : t) (e : cached_run) ~source : unit =
  Obs.with_span ~cat:"cache"
    ~args:(fun () ->
      [ ("source", Obs.Str source);
        ("invocations", Obs.Int e.ca_invocations) ])
    "replay"
    (fun () ->
      rollback t e.ca_post;
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
          e.ca_profile)

(** What {!expand_source_entry} produced: the program, and the cache
    entry (with its key) the result was replayed from or stored as. *)
type expansion = {
  x_program : stored_program;
  x_entry : (string * cached_run) option;
  x_stored : bool;  (** the entry was stored by this expansion *)
}

let decoded (prog : program) : stored_program = Atomic.make (Decoded prog)

(** Cached expansion.  A hit replays the recorded output and post-run
    state; a miss runs for real and, when the run was clean (no new
    diagnostics), stores the result. *)
let expand_source_entry (t : t) ?(source = "<string>") ?deadline_ms
    (text : string) : expansion =
  let run_uncached () = expand_source_uncached t ?deadline_ms ~source text in
  let uncached () =
    { x_program = decoded (run_uncached ()); x_entry = None; x_stored = false }
  in
  Obs.with_span ~cat:"fragment"
    ~args:(fun () ->
      [ ("source", Obs.Str source);
        ("bytes", Obs.Int (String.length text)) ])
    "fragment"
  @@ fun () ->
  match t.cache with
  | None -> uncached ()
  | Some cache -> (
      match cache_key t ~source text with
      | Error why ->
          note_bypass t ~source why;
          uncached ()
      | Ok key -> (
          let b = t.env.Value.budget in
          let hit =
            Obs.with_span ~cat:"cache" "lookup" (fun () ->
                Cache.find cache key)
          in
          match hit with
          | Some e when b.Value.fuel >= e.ca_fuel && b.Value.nodes >= e.ca_nodes
            ->
              t.stats.cache_hits <- t.stats.cache_hits + 1;
              replay t e ~source;
              { x_program = e.ca_program; x_entry = Some (key, e);
                x_stored = false }
          | Some _ ->
              (* a replay would overdraw the remaining global budget —
                 the real run must happen (and fail) for real *)
              note_bypass t ~source Bypass_budget;
              uncached ()
          | None ->
              t.stats.cache_misses <- t.stats.cache_misses + 1;
              let diags0 = Diag.count t.diags in
              let fuel0 = fuel_consumed t in
              let nodes0 = nodes_produced t in
              let inv0 = t.stats.invocations_expanded in
              let meta0 = t.stats.meta_declarations_run in
              let defs0 = t.stats.macros_defined in
              let profile0 =
                if Obs.Profile.enabled () then Obs.Profile.counts () else []
              in
              let program = decoded (run_uncached ()) in
              if Diag.count t.diags = diags0 then
                Obs.with_span ~cat:"cache" "store" (fun () ->
                (* entry weight estimate: the parsed-and-expanded
                   program scales with the fragment text and the nodes
                   the templates produced; the checkpoint's maps are
                   shared with the live session, all but the paths this
                   run rewrote.  Walking the real structure with
                   [Obj.reachable_words] here would cost more than the
                   rest of the store path combined.  The first render is
                   charged when it is attached ({!remember_render}). *)
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
                let entry =
                  {
                    ca_program = program;
                    ca_rendered = [| Atomic.make None; Atomic.make None |];
                    ca_post = checkpoint t;
                    ca_size = size_bytes;
                    ca_fuel = fuel_consumed t - fuel0;
                    ca_nodes = nodes_produced t - nodes0;
                    ca_invocations = t.stats.invocations_expanded - inv0;
                    ca_meta_runs = t.stats.meta_declarations_run - meta0;
                    ca_macros_defined = t.stats.macros_defined - defs0;
                    ca_profile;
                  }
                in
                (* of two domains that store one key at once, only the
                   one whose entry went in appends it *)
                let stored = Cache.add cache key ~size_bytes entry in
                { x_program = program; x_entry = Some (key, entry);
                  x_stored = stored })
              else { x_program = program; x_entry = None; x_stored = false }))

(* ------------------------------------------------------------------ *)
(* Durable cache snapshots                                             *)
(* ------------------------------------------------------------------ *)

(* A snapshot persists a shared cache store across processes, so a
   restarted batch or daemon starts warm, and a killed batch rerun over
   the same file replays every unit it finished.  It is an append-only
   log:

     magic (8) | format version (u32) | build id (16) |
     [ entry record | program record ] ... up to the end of the file

   where a record is [ payload length (u32) | MD5(payload) (16) |
   payload ].  The entry record is everything but the expanded program
   (key, post-state checkpoint, counters, the rendered outputs); the
   program record is the marshalled program alone, by far the larger
   of the two.  A load unmarshals entry records and keeps program
   records as bytes, so a hit that replays its rendered text never pays
   for the AST ({!program_of} decodes it on first demand), and a
   rewrite copies those bytes and their digest back out unchanged.

   A stored unit appends its pair the moment it completes: when its
   first render is attached ({!remember_render}), so a warm rerun
   replays the render too, or when it is stored for a caller that
   renders nothing (the prelude).  Each pair is one write under the
   log's locks ({!Atomic_io.append}), so domains and processes append
   to one file.  The file is rewritten whole ({!save_store})
   only to drop records the store does not keep: superseded keys,
   entries evicted for the budget, a torn tail, an older or foreign
   file.  The last record of a key supersedes the earlier ones.

   Every record carries its own checksum, checked at load whether or
   not it is ever decoded.  A pair cut short at the end of the file is
   the torn tail of a killed append: it is dropped and counted, and the
   rest is kept.  Any other integrity failure — bad magic, version
   skew, a flipped bit, an undecodable entry record — degrades the
   WHOLE load to a cold cache with a warning counter.  Partial salvage
   beyond a torn tail is not worth the risk surface: a snapshot is an
   optimization, and the only unforgivable outcome is a wrong replay.
   [Marshal.from_string] only ever runs on bytes whose digest matched,
   i.e. bytes this code wrote — and the header's build id
   ({!Build_id.digest}, the fingerprint of the executable image)
   further pins "this code" to THIS build of the binary: a snapshot
   left on disk across an upgrade whose value layout changed is a cold
   start, not an untyped decode of stale bytes, without anyone having
   to remember to bump [snapshot_format_version].

   Every entry survives the round trip whole: a checkpoint is plain
   data, and a meta closure holds its parameters, its body and what it
   captured, never an engine.

   Keys need no repair: every part of a key, the definition digest
   included ({!pristine_defs}), is a digest of content, so it means the
   same state in any process, fork siblings and restarts included. *)

let snapshot_magic = "MS2SNAP\001"
let snapshot_format_version = 7

(* An entry record; [pe_run]'s program and render slots are emptied
   (they travel in the program record and [pe_rendered]). *)
type persisted_entry = {
  pe_key : string;
  pe_run : cached_run;
  pe_rendered : Pretty.result option array;
}

type snapshot_save = { sv_entries : int; sv_bytes : int }

type snapshot_load = {
  ld_entries : int;  (** entries restored into the store *)
  ld_dropped : int;
      (** 1 when the final record was torn (a killed append), else 0 *)
  ld_warnings : int;  (** 1 when integrity failed and the load degraded *)
  ld_error : string option;  (** the reason, when [ld_warnings > 0] *)
  ld_rewritten : bool;  (** the file was rewritten before the first append *)
}

let cold_load =
  { ld_entries = 0; ld_dropped = 0; ld_warnings = 0; ld_error = None;
    ld_rewritten = false }

let header () =
  let b = Buffer.create 28 in
  Buffer.add_string b snapshot_magic;
  Buffer.add_int32_le b (Int32.of_int snapshot_format_version);
  Buffer.add_string b (Build_id.digest ());
  Buffer.contents b

(* the map's locations are shared with the program; its spine and the
   text are what a render adds to an entry *)
let render_bytes (out : Pretty.result) : int =
  String.length out.Pretty.text
  + (Sys.word_size / 8 * Array.length out.Pretty.map)

let entry_size (run : cached_run) : int =
  Array.fold_left
    (fun n slot ->
      match Atomic.get slot with Some out -> n + render_bytes out | None -> n)
    run.ca_size run.ca_rendered

(* stands in for the program inside an entry record *)
let no_program : stored_program = decoded []

(* a record's payload: [len] bytes at [off] in [raw], and their MD5 *)
let add_record (b : Buffer.t) (raw, off, len, digest) : unit =
  Buffer.add_int32_le b (Int32.of_int len);
  Buffer.add_string b digest;
  Buffer.add_substring b raw off len

let whole (raw : string) = (raw, 0, String.length raw, Digest.string raw)

(* One entry's pair of records.  A program still in its snapshot bytes
   is copied back out as is. *)
let add_entry (b : Buffer.t) ~key (run : cached_run) : unit =
  let pe =
    {
      pe_key = key;
      pe_run = { run with ca_program = no_program; ca_rendered = [||] };
      pe_rendered = Array.map Atomic.get run.ca_rendered;
    }
  in
  add_record b (whole (Marshal.to_string pe []));
  add_record b
    (match Atomic.get run.ca_program with
    | Encoded { raw; off; len; digest } -> (raw, off, len, digest)
    | Decoded prog -> whole (Marshal.to_string prog []))

(* Append a stored entry to the store's log, if a snapshot file is
   bound to it.  A failure is counted here and reported by the next
   {!sync_store}. *)
let append_entry (cache : cached_run Cache.t) ~key (run : cached_run) : unit =
  match Cache.log cache with
  | None -> ()
  | Some log ->
      Obs.with_span ~cat:"snapshot" "append" @@ fun () ->
      let b = Buffer.create 4096 in
      add_entry b ~key run;
      Obs.Metrics.incr
        (Obs.Metrics.counter
           (match Atomic_io.append log (Buffer.contents b) with
           | Ok () -> "snapshot.append.entries"
           | Error _ -> "snapshot.append.failed"))

let sync_store (cache : cached_run Cache.t) : (unit, string) result =
  match Cache.log cache with
  | None -> Ok ()
  | Some log ->
      Obs.with_span ~cat:"snapshot" "save" (fun () -> Atomic_io.sync log)

let log_records (cache : cached_run Cache.t) : int =
  match Cache.log cache with None -> 0 | Some log -> Atomic_io.log_count log

(* Rewrite [path] from the live store, and bind the store's log to it:
   entries stored from here on are appended there. *)
let save_store (cache : cached_run Cache.t) (path : string) :
    (snapshot_save, string) result =
  Obs.with_span ~cat:"snapshot" "rewrite" @@ fun () ->
  let log =
    match Cache.log cache with
    | Some log when Atomic_io.log_path log = path -> log
    | _ ->
        let log = Atomic_io.open_log ~header path in
        Cache.set_log cache (Some log);
        log
  in
  let saved = ref { sv_entries = 0; sv_bytes = 0 } in
  Atomic_io.rewrite log (fun () ->
      match Failpoint.hit ~loc:Loc.dummy "snapshot/save" with
      | exception Diag.Error d -> Error d.Diag.message
      | () ->
          let b = Buffer.create 65536 in
          Buffer.add_string b (header ());
          let entries =
            Cache.fold cache
              (fun key run n ->
                add_entry b ~key run;
                n + 1)
              0
          in
          saved := { sv_entries = entries; sv_bytes = Buffer.length b };
          Ok (Buffer.contents b, entries))
  |> Result.map (fun () ->
         Obs.Metrics.incr ~by:!saved.sv_entries
           (Obs.Metrics.counter "snapshot.save.entries");
         !saved)

exception Corrupt of string

(* The entries of a snapshot, oldest first, and whether a torn final
   pair was dropped.  [build_id] yields the running build's
   fingerprint: {!load_store} computes it on a helper domain while the
   records' checksums are verified here, and only bytes from this very
   build are ever unmarshalled — the records are decoded after the
   comparison. *)
let parse_snapshot ~(build_id : unit -> string) (raw : string) :
    (persisted_entry * program_state) list * bool =
  let len = String.length raw in
  let pos = ref 0 in
  let get_str n what =
    if !pos + n > len then raise (Corrupt ("truncated in " ^ what));
    let s = String.sub raw !pos n in
    pos := !pos + n;
    s
  in
  if get_str 8 "magic" <> snapshot_magic then raise (Corrupt "bad magic");
  let fv = Int32.to_int (String.get_int32_le (get_str 4 "format version") 0) in
  if fv <> snapshot_format_version then
    raise
      (Corrupt
         (Printf.sprintf "format version %d (this build reads %d)" fv
            snapshot_format_version));
  let file_build = get_str 16 "build id" in
  (* one checksummed record, as (offset, length, digest) in [raw]:
     payloads are read in place, never copied.  [None]: the record runs
     past the end of the file *)
  let get_record i what =
    if !pos + 20 > len then None
    else
      let n = Int32.to_int (String.get_int32_le raw !pos) in
      if n < 0 then raise (Corrupt (what ^ " length: out of range"));
      let digest = String.sub raw (!pos + 4) 16 in
      let off = !pos + 20 in
      if off + n > len then None
      else begin
        pos := off + n;
        if Digest.substring raw off n <> digest then
          raise
            (Corrupt (Printf.sprintf "record %d %s checksum mismatch" i what));
        Some (off, n, digest)
      end
  in
  let rec records i acc =
    if !pos = len then (List.rev acc, false)
    else
      match get_record i "entry" with
      | None -> (List.rev acc, true)
      | Some (meta, _, _) -> (
          match get_record i "program" with
          | None -> (List.rev acc, true)
          | Some program -> records (i + 1) ((meta, program) :: acc))
  in
  let records, torn = records 1 [] in
  if file_build <> build_id () then
    raise (Corrupt "written by a different build of this binary");
  ( List.mapi
      (fun i (meta, (off, len, digest)) ->
        match (Marshal.from_string raw meta : persisted_entry) with
        | exception _ ->
            raise (Corrupt (Printf.sprintf "record %d undecodable" (i + 1)))
        | pe -> (pe, Encoded { raw; off; len; digest }))
      records,
    torn )

let load_store (cache : cached_run Cache.t) (path : string) : snapshot_load =
  Obs.with_span ~cat:"snapshot" "load" @@ fun () ->
  let degraded msg =
    Obs.Metrics.incr (Obs.Metrics.counter "snapshot.load.warnings");
    { cold_load with ld_warnings = 1; ld_error = Some msg }
  in
  (* appends go to [path] from here on — after a rewrite, when the file
     holds records the store does not keep.  A failed rewrite leaves the
     log failed, and {!sync_store} reports it. *)
  let bind ~count ~rewrite (ld : snapshot_load) =
    Cache.set_log cache (Some (Atomic_io.open_log ~header ~count path));
    if rewrite then ignore (save_store cache path);
    { ld with ld_rewritten = rewrite }
  in
  (* a file that cannot be read is left alone, and appended to never *)
  let unreadable msg =
    Cache.set_log cache None;
    degraded msg
  in
  match (Unix.stat path).Unix.st_size with
  | 0 | (exception Unix.Unix_error (Unix.ENOENT, _, _)) ->
      (* missing, or killed between creating the file and appending *)
      bind ~count:0 ~rewrite:false cold_load
  | _ | (exception Unix.Unix_error _) -> (
      let build_id = Build_id.digest_async () in
      Fun.protect ~finally:(fun () -> ignore (build_id ())) @@ fun () ->
      match
        Failpoint.hit ~loc:Loc.dummy "snapshot/load";
        In_channel.with_open_bin path (fun ic ->
            really_input_string ic (in_channel_length ic))
      with
      | exception Diag.Error d -> unreadable d.Diag.message
      | exception Sys_error msg -> unreadable msg
      | exception End_of_file -> unreadable (path ^ ": shrank while being read")
      | raw -> (
          match parse_snapshot ~build_id raw with
          | exception Corrupt msg ->
              bind ~count:0 ~rewrite:true
                (degraded (Printf.sprintf "%s: %s" path msg))
          | exception _ ->
              bind ~count:0 ~rewrite:true
                (degraded (path ^ ": unreadable snapshot"))
          | records, torn ->
              let last = Hashtbl.create 64 in
              List.iteri
                (fun i (pe, _) -> Hashtbl.replace last pe.pe_key i)
                records;
              let live =
                List.filteri
                  (fun i (pe, _) -> Hashtbl.find last pe.pe_key = i)
                  records
              in
              List.iter
                (fun (pe, program) ->
                  let run =
                    {
                      pe.pe_run with
                      ca_program = Atomic.make program;
                      ca_rendered = Array.map Atomic.make pe.pe_rendered;
                    }
                  in
                  ignore
                    (Cache.add cache ~size_bytes:(entry_size run) pe.pe_key run))
                live;
              Obs.Metrics.incr ~by:(List.length live)
                (Obs.Metrics.counter "snapshot.load.entries");
              if torn then begin
                Obs.Metrics.incr (Obs.Metrics.counter "snapshot.load.dropped");
                Obs.Metrics.incr (Obs.Metrics.counter "snapshot.load.torn")
              end;
              let count = List.length records in
              bind ~count
                ~rewrite:(torn || Cache.length cache <> count)
                { cold_load with
                  ld_entries = List.length live;
                  ld_dropped = (if torn then 1 else 0) }))

(* [fragment_jobs] is ignored; perfbench passes it until ROADMAP item 1. *)
let expand_source (t : t) ?source ?deadline_ms ?fragment_jobs:_
    (text : string) : program =
  let x = expand_source_entry t ?source ?deadline_ms text in
  (* this caller renders nothing, so a stored unit is appended now *)
  (match (x.x_entry, t.cache) with
  | Some (key, e), Some cache when x.x_stored -> append_entry cache ~key e
  | _ -> ());
  program_of x.x_program

let expansion_program (x : expansion) : program = program_of x.x_program

let render_slot ~line_directives = if line_directives then 1 else 0

let rendered (x : expansion) ~line_directives : Pretty.result option =
  match x.x_entry with
  | Some (_, e) -> Atomic.get e.ca_rendered.(render_slot ~line_directives)
  | None -> None

let remember_render (t : t) (x : expansion) ~line_directives
    (out : Pretty.result) : unit =
  match (x.x_entry, t.cache) with
  | Some (key, e), Some cache ->
      if
        Atomic.compare_and_set
          e.ca_rendered.(render_slot ~line_directives)
          None (Some out)
      then Cache.charge cache key e (render_bytes out);
      (* a stored unit is appended with its first render attached *)
      if x.x_stored then append_entry cache ~key e
  | _ -> ()

(* The store-wide eviction count is a merged sweep over every shard
   (one mutex round-trip each), far too expensive to refresh on every
   miss — it used to cost more than the rest of the store path
   combined.  Readers pull it on demand instead. *)
let cache_evictions (t : t) : int =
  match t.cache with None -> 0 | Some cache -> Cache.evictions cache

