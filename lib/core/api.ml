(** Public API of the MS² macro system.

    Typical use:
    {[
      match Ms2.Api.expand_string source with
      | Ok c_code -> print_string c_code
      | Error message -> prerr_endline message
    ]}

    For multi-file use (definitions in one file, uses in another), create
    an {!Engine.t} once and call {!expand} repeatedly: macro definitions,
    [metadcl] globals and meta functions persist across calls. *)

open Ms2_support
module Pretty = Ms2_syntax.Pretty

type engine = Engine.t

(* The counter record, re-exported: [Api.stats] and its fields are the
   public names of {!Counters.stats}. *)
include Counters

(** A standalone expansion-cache store to share between engines (see
    {!Engine.create_store}): the batch driver under [--cache-file] and
    the serve worker pool hand one store to every engine they create,
    so a fragment expanded on one domain replays on every other.  Counter
    reads ({!shared_cache_stats}) are merged over the store's shards —
    the whole-process view, not any single worker's. *)
type shared_cache = Engine.cached_run Cache.t

(* The parser-side memos are process-global (shared by every engine);
   their counters live in the metrics registry and are surfaced in
   {!stats} so CLI/serve stats output shows them without a registry
   walk. *)
let memo_counter name = (name, Obs.Metrics.counter name)
let pattern_memo_hits = memo_counter "parser.pattern_memo.hits"
let pattern_memo_misses = memo_counter "parser.pattern_memo.misses"
let firstset_memo_hits = memo_counter "pattern.firstset.memo_hits"
let firstset_memo_misses = memo_counter "pattern.firstset.memo_misses"
let memo_value (_, c) = Obs.Metrics.value c

let create_shared_cache ?cache_bytes () : shared_cache =
  Engine.create_store ?budget_bytes:cache_bytes ()

(** Merged point-in-time counters of a shared store:
    [(hits, misses, evictions, entries, used_bytes)]. *)
let shared_cache_stats (store : shared_cache) : int * int * int * int * int =
  ( Cache.hits store,
    Cache.misses store,
    Cache.evictions store,
    Cache.length store,
    Cache.used_bytes store )

(** Durable snapshots of a shared store ({!Engine.save_store} /
    {!Engine.load_store}): the crash-recovery warm path for
    [--cache-file], and how a killed batch resumes.  Loading never
    raises — a corrupt snapshot degrades to a cold cache with
    [ld_warnings] set. *)
let save_shared_cache = Engine.save_store

let load_shared_cache = Engine.load_store

let create_engine ?limits ?compile_patterns ?hygienic ?recover ?cache
    ?cache_bytes ?cache_store ?(prelude = false) () =
  let engine =
    Engine.create ?limits ?compile_patterns ?hygienic ?recover ?cache
      ?cache_bytes ?cache_store ()
  in
  if prelude then Prelude.load engine;
  engine

(** A session checkpoint: capture with {!checkpoint}, restore with
    {!rollback}.  {!Engine.expand_source} already checkpoints around
    each fragment; these re-exports serve callers managing coarser
    units of work. *)
type checkpoint = Engine.checkpoint

let checkpoint = Engine.checkpoint
let rollback = Engine.rollback

(** One unit's expansion, rendered: see {!expand_unit}. *)
type unit_result = {
  u_output : string;  (** rendered C; [""] when fatal *)
  u_map : Loc.t array;  (** its line-by-line source map *)
  u_program : Ms2_syntax.Ast.program Lazy.t option;
      (** the expansion; [None] when it failed (and rolled back).  Lazy:
          a hit that replayed its stored render decodes a restored
          entry's program only when this is forced *)
  u_fatal : Diag.t option;
  u_recovered : Diag.t list;  (** recovered diagnostics this unit added *)
}

let render_hits = Obs.Metrics.counter "cache.render_hits"

(** Expand [text] as one unit of work on [engine] and render it once
    with {!Pretty.program}, source map included — or, on a cache hit
    whose entry already holds a render for this [line_directives],
    return that render without calling {!Pretty} (counted as
    [cache.render_hits]); a fresh render is attached to the unit's
    cache entry for the next hit.  The recovered diagnostics are the
    ones the engine's collector gained during this call, so a shared
    engine reports each unit's own.  A stack overflow in the renderer
    (an expansion can be legal yet too deep to print recursively)
    becomes a located resource diagnostic; the expansion itself then
    stands committed, with [u_program] set. *)
let expand_unit ?(line_directives = false) ?deadline_ms ?fragment_jobs
    (engine : engine) ?(source = "<string>") (text : string) : unit_result =
  let seen = Diag.count engine.Engine.diags in
  let result ?(out = { Pretty.text = ""; map = [||] }) program fatal =
    {
      u_output = out.text;
      u_map = out.map;
      u_program = program;
      u_fatal = fatal;
      u_recovered =
        List.filteri (fun i _ -> i >= seen) (Engine.diagnostics engine);
    }
  in
  match
    Diag.protect (fun () ->
        Engine.expand_source_entry engine ~source ?deadline_ms ?fragment_jobs
          text)
  with
  | Error d -> result None (Some d)
  | Ok x -> (
      let program = Some (lazy (Engine.expansion_program x)) in
      match Engine.rendered x ~line_directives with
      | Some out ->
          Obs.Metrics.incr render_hits;
          result ~out program None
      | None -> (
          match
            Obs.with_span ~cat:"render" "render" (fun () ->
                Pretty.program ~line_directives (Engine.expansion_program x))
          with
          | out ->
              Engine.remember_render engine x ~line_directives out;
              result ~out program None
          | exception Stack_overflow ->
              let p = { Loc.line = 1; col = 0; offset = 0 } in
              result program
                (Some
                   (Diag.make
                      ~loc:(Loc.make ~source ~start_pos:p ~end_pos:p)
                      ~code:Diag.code_stack Diag.Resource
                      (Printf.sprintf
                         "stack overflow while rendering the expansion of \
                          %s (the produced program is pathologically deep)"
                         source)))))

(** Parse and expand [text], rendering the result as pure C.  Raises
    {!Ms2_support.Diag.Error} on any lexical, syntax, pattern, type or
    expansion error, or when the result is too deep to render.  The
    default engine (here and in {!expand_to_ast} and {!expand_checked})
    keeps no cache store: it expands once, so a store would never be
    read. *)
let expand_exn ?(engine = Engine.create ~cache:false ()) ?source
    (text : string) : string =
  let u = expand_unit engine ?source text in
  match u.u_fatal with Some d -> raise (Diag.Error d) | None -> u.u_output

(** Like {!expand_exn} but catching diagnostics, structured. *)
let expand_diag ?engine ?source (text : string) : (string, Diag.t) result =
  Diag.protect (fun () -> expand_exn ?engine ?source text)

(** Like {!expand_diag} with the error pre-rendered to a string. *)
let expand_string ?engine ?source (text : string) : (string, string) result =
  Result.map_error Diag.to_string (expand_diag ?engine ?source text)

(** Expand within an existing engine, keeping its definitions. *)
let expand (engine : engine) ?source (text : string) :
    (string, string) result =
  expand_string ~engine ?source text

(** Parse and expand, returning the AST instead of rendered C. *)
let expand_to_ast ?(engine = Engine.create ~cache:false ()) ?source
    (text : string) : (Ms2_syntax.Ast.program, Diag.t) result =
  Diag.protect (fun () -> Engine.expand_source engine ?source text)

(** A copy of the engine's counters, with the fields the engine does
    not keep itself filled in: fuel and produced-AST accounting from
    its budget, evictions from its store, and the process-global memo
    counters from the registry. *)
let stats (engine : engine) : stats =
  {
    engine.Engine.stats with
    fuel_consumed = Engine.fuel_consumed engine;
    nodes_produced = Engine.nodes_produced engine;
    cache_evictions = Engine.cache_evictions engine;
    pattern_memo_hits = memo_value pattern_memo_hits;
    pattern_memo_misses = memo_value pattern_memo_misses;
    firstset_memo_hits = memo_value firstset_memo_hits;
    firstset_memo_misses = memo_value firstset_memo_misses;
  }

(* The per-engine counters under their registry names — the one table
   behind {!publish_metrics} and {!stats_of_counters}.  A row reads its
   counter off one engine's {!stats}; the cache-traffic rows can also
   read the merged view of a store the engines share. *)
let engine_counter ?of_store name (of_stats : stats -> int) =
  (name, of_stats, of_store)

let c_invocations =
  engine_counter "engine.invocations_expanded" (fun s ->
      s.invocations_expanded)

let c_meta_runs =
  engine_counter "engine.meta_declarations_run" (fun s ->
      s.meta_declarations_run)

let c_macros =
  engine_counter "engine.macros_defined" (fun s -> s.macros_defined)
let c_fuel = engine_counter "engine.fuel_consumed" (fun s -> s.fuel_consumed)
let c_nodes = engine_counter "engine.nodes_produced" (fun s -> s.nodes_produced)

let c_hits =
  engine_counter "cache.hits" ~of_store:Cache.hits (fun s -> s.cache_hits)

let c_misses =
  engine_counter "cache.misses" ~of_store:Cache.misses (fun s ->
      s.cache_misses)

let c_evictions =
  engine_counter "cache.evictions" ~of_store:Cache.evictions (fun s ->
      s.cache_evictions)

let c_bypasses = engine_counter "cache.bypasses" (fun s -> s.cache_bypasses)

let c_bypass_trace =
  engine_counter "cache.bypass.trace" (fun s -> s.cache_bypass_trace)

let c_bypass_failpoints =
  engine_counter "cache.bypass.failpoints" (fun s -> s.cache_bypass_failpoints)

let c_bypass_budget =
  engine_counter "cache.bypass.budget" (fun s -> s.cache_bypass_budget)

let c_speculated =
  engine_counter "fragments.speculated" (fun s -> s.fragments_speculated)

let c_committed =
  engine_counter "fragments.committed" (fun s -> s.fragments_committed)

let c_revalidated =
  engine_counter "fragments.revalidated" (fun s -> s.fragments_revalidated)

let c_abort_defs_bump =
  engine_counter "fragments.abort.defs_bump" (fun s ->
      s.fragments_abort_defs_bump)

let c_abort_gensym_mint =
  engine_counter "fragments.abort.gensym_mint" (fun s ->
      s.fragments_abort_gensym_mint)

let c_abort_meta_decl =
  engine_counter "fragments.abort.meta_decl" (fun s ->
      s.fragments_abort_meta_decl)

let c_abort_stale_read =
  engine_counter "fragments.abort.stale_read" (fun s ->
      s.fragments_abort_stale_read)

let c_abort_foreign_closure =
  engine_counter "fragments.abort.foreign_closure" (fun s ->
      s.fragments_abort_foreign_closure)

let engine_counters =
  [ c_invocations; c_meta_runs; c_macros; c_fuel; c_nodes; c_hits; c_misses;
    c_evictions; c_bypasses; c_bypass_trace; c_bypass_failpoints;
    c_bypass_budget; c_speculated; c_committed;
    c_revalidated; c_abort_defs_bump; c_abort_gensym_mint; c_abort_meta_decl;
    c_abort_stale_read; c_abort_foreign_closure ]

(** Set every per-engine registry counter to its sum over [engines].
    With [store] — the store those engines share in this process — the
    cache traffic is the store's merged view instead (each engine's own
    eviction count already {e is} the store's, so summing would multiply
    it), and the store's occupancy gauges are published too.  The
    interner's size, [intern.spellings], is a high-water mark: it never
    drops below a reading absorbed from a forked worker. *)
let publish_metrics ?(store : shared_cache option) (engines : stats list) :
    unit =
  List.iter
    (fun (name, of_stats, of_store) ->
      Obs.Metrics.set (Obs.Metrics.counter name)
        (match (store, of_store) with
        | Some s, Some read -> read s
        | _ -> List.fold_left (fun acc e -> acc + of_stats e) 0 engines))
    engine_counters;
  Obs.Metrics.gauge_max "intern.spellings" (float_of_int (Intern.interned ()));
  Option.iter
    (fun s ->
      Obs.Metrics.gauge "cache.entries" (float_of_int (Cache.length s));
      Obs.Metrics.gauge "cache.used_bytes" (float_of_int (Cache.used_bytes s)))
    store

(** Read the {!stats} fields off a metrics dump, given its counter
    lookup by registry name: the published per-engine counters plus the
    memo counters the pipeline keeps in the registry itself. *)
let stats_of_counters (r : string -> int) : stats =
  let v (name, _, _) = r name in
  {
    invocations_expanded = v c_invocations;
    meta_declarations_run = v c_meta_runs;
    macros_defined = v c_macros;
    fuel_consumed = v c_fuel;
    nodes_produced = v c_nodes;
    cache_hits = v c_hits;
    cache_misses = v c_misses;
    cache_evictions = v c_evictions;
    cache_bypasses = v c_bypasses;
    cache_bypass_trace = v c_bypass_trace;
    cache_bypass_failpoints = v c_bypass_failpoints;
    cache_bypass_budget = v c_bypass_budget;
    fragments_speculated = v c_speculated;
    fragments_committed = v c_committed;
    fragments_revalidated = v c_revalidated;
    fragments_abort_defs_bump = v c_abort_defs_bump;
    fragments_abort_gensym_mint = v c_abort_gensym_mint;
    fragments_abort_meta_decl = v c_abort_meta_decl;
    fragments_abort_stale_read = v c_abort_stale_read;
    fragments_abort_foreign_closure = v c_abort_foreign_closure;
    pattern_memo_hits = r (fst pattern_memo_hits);
    pattern_memo_misses = r (fst pattern_memo_misses);
    firstset_memo_hits = r (fst firstset_memo_hits);
    firstset_memo_misses = r (fst firstset_memo_misses);
  }

let published_stats () : stats =
  stats_of_counters (fun name -> Obs.Metrics.value (Obs.Metrics.counter name))

(** Diagnostics recorded by an engine's recovery mode, oldest first. *)
let diagnostics (engine : engine) : Diag.t list = Engine.diagnostics engine

(** Run the object-level static checker over a pure-C program (e.g. an
    expansion), returning human-readable findings.  This is the
    downstream half of the paper's semantic-macro story: type errors in
    generated code are caught here rather than by the C compiler. *)
let check_program (prog : Ms2_syntax.Ast.program) : string list =
  List.map Ms2_csem.Check.finding_to_string
    (Ms2_csem.Check.check_program prog)

(** Expand and then statically check the result: returns the rendered C
    and any findings of the object-level type checker. *)
let expand_checked ?(engine = Engine.create ~cache:false ()) ?source
    (text : string) : (string * string list, string) result =
  let u = expand_unit engine ?source text in
  match u.u_fatal with
  | Some d -> Error (Diag.to_string d)
  | None ->
      Ok
        ( u.u_output,
          check_program (Option.fold ~none:[] ~some:Lazy.force u.u_program) )

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

(** Isolated expansion sessions: checkpoint values that run on any engine.

    A session is a named checkpoint boundary: every {!Session.expand}
    first rolls the given engine back to the session's checkpoint, runs
    the fragment, and — on success — advances the checkpoint to the new
    state.  On failure the engine's own transaction has already rolled
    the fragment back; the session verifies that with
    {!Engine.fingerprint} and force-restores its checkpoint if the
    invariant ever broke (recording the breach in {!Session.isolated}).

    A session holds no engine (no meta value refers to one), so many
    sessions share an engine and a session may change engines between
    requests.  Engines sharing a store share the content-addressed
    expansion cache (the string interner and compiled-pattern memos are
    process-global), so every session benefits from every other
    session's warm cache — while the rollback boundary keeps the
    *semantic* state (macro tables, meta globals, symbol table,
    fresh-name counters) strictly per-session.  The engine-side cost is
    {!Engine.rollback} restoring [defs_version] to the checkpoint's
    value, keeping cache keys stable across session switches. *)
module Session = struct
  type t = {
    sn_id : string;
    sn_base : Engine.checkpoint;  (** creation-time state, for reset *)
    mutable sn_cp : Engine.checkpoint;  (** committed state *)
    mutable sn_requests : int;
    mutable sn_failures : int;
    mutable sn_cache_hits : int;
    mutable sn_cache_misses : int;
    mutable sn_invocations : int;
    mutable sn_fuel : int;
    mutable sn_isolated : bool;
        (** false iff a failed fragment was ever observed to leak state
            past its rollback (should never happen; asserted per
            request) *)
  }

  (** What one request changed, for per-response accounting. *)
  type delta = {
    d_cache_hits : int;
    d_cache_misses : int;
    d_invocations : int;
    d_fuel : int;
  }

  type session_stats = {
    s_requests : int;
    s_failures : int;
    s_cache_hits : int;
    s_cache_misses : int;
    s_invocations : int;
    s_fuel : int;
  }

  let create (base : Engine.checkpoint) ~id : t =
    {
      sn_id = id;
      sn_base = base;
      sn_cp = base;
      sn_requests = 0;
      sn_failures = 0;
      sn_cache_hits = 0;
      sn_cache_misses = 0;
      sn_invocations = 0;
      sn_fuel = 0;
      sn_isolated = true;
    }

  let id s = s.sn_id
  let isolated s = s.sn_isolated
  let fingerprint s = Engine.checkpoint_fingerprint s.sn_cp
  let reset (s : t) : unit = s.sn_cp <- s.sn_base

  let stats (s : t) : session_stats =
    {
      s_requests = s.sn_requests;
      s_failures = s.sn_failures;
      s_cache_hits = s.sn_cache_hits;
      s_cache_misses = s.sn_cache_misses;
      s_invocations = s.sn_invocations;
      s_fuel = s.sn_fuel;
    }

  (* The four counters a request delta reads, straight off the engine:
     the engine-wide [stats] would also sweep every store shard for an
     eviction count the delta never uses. *)
  let reading (e : engine) : delta =
    let st = e.Engine.stats in
    {
      d_cache_hits = st.cache_hits;
      d_cache_misses = st.cache_misses;
      d_invocations = st.invocations_expanded;
      d_fuel = Engine.fuel_consumed e;
    }

  (* Accumulate the engine-counter movement of this request into the
     session totals and return it.  Counters only ever grow, so a plain
     difference is the request's share even though the engine is shared:
     an engine runs one request at a time. *)
  let absorb_delta (s : t) (e : engine) (r0 : delta) : delta =
    let r1 = reading e in
    let d =
      {
        d_cache_hits = r1.d_cache_hits - r0.d_cache_hits;
        d_cache_misses = r1.d_cache_misses - r0.d_cache_misses;
        d_invocations = r1.d_invocations - r0.d_invocations;
        d_fuel = r1.d_fuel - r0.d_fuel;
      }
    in
    s.sn_cache_hits <- s.sn_cache_hits + d.d_cache_hits;
    s.sn_cache_misses <- s.sn_cache_misses + d.d_cache_misses;
    s.sn_invocations <- s.sn_invocations + d.d_invocations;
    s.sn_fuel <- s.sn_fuel + d.d_fuel;
    d

  let expand (s : t) (e : engine) ?deadline_ms ?fragment_jobs
      ?(source = "<request>") (text : string) :
      (string * delta, Diag.t * delta) result =
    (* enter: put the engine on this session's committed state.
       Unconditional — cheaper to restore than to track which session
       held the engine last, and idempotent when it is already ours. *)
    Engine.rollback e s.sn_cp;
    (* a request's fuel is its own, as one [ms2c expand] run's is *)
    Ms2_meta.Value.rearm_fuel e.Engine.env.Ms2_meta.Value.budget;
    let r0 = reading e in
    s.sn_requests <- s.sn_requests + 1;
    let u = expand_unit e ~source ?deadline_ms ?fragment_jobs text in
    let d = absorb_delta s e r0 in
    match u.u_fatal with
    | None ->
        (* commit: the session's next request starts from here *)
        s.sn_cp <- Engine.checkpoint e;
        Ok (u.u_output, d)
    | Some diag ->
        s.sn_failures <- s.sn_failures + 1;
        (* an expansion that could not be rendered committed: undo it,
           a deliberate unwind.  A failed one was already rolled back by
           the engine's own transaction; verify before letting the next
           request in.  A breach there is an engine bug — contain it by
           force-restoring the session checkpoint, and record it. *)
        if Option.is_some u.u_program then Engine.rollback e s.sn_cp
        else if Engine.fingerprint e <> fingerprint s then begin
          s.sn_isolated <- false;
          Engine.rollback e s.sn_cp
        end;
        Error (diag, d)
end
