(** ms2c — command-line driver for the MS² macro expander.

    - [ms2c expand file.mc]: expand macros, print pure C (or [-o out.c]);
    - [ms2c check file.mc]: parse and type check only;
    - [ms2c figures]: regenerate the paper's Figures 1-3.

    Exit codes: 0 = clean; 1 = fatal error (no usable output);
    3 = degraded ([--keep-going] recovered from at least one expansion
    error and output was still produced). *)

open Cmdliner
open Cli_common
module Diag = Ms2_support.Diag
module Failpoint = Ms2_support.Failpoint
module Obs = Ms2_support.Obs
module Pool = Ms2_support.Pool
module Atomic_io = Ms2_support.Atomic_io
module Build_id = Ms2_support.Build_id

(* How [--jobs N] (N > 1) parallelizes: shared-memory OCaml domains
   over one work-stealing pool (the default — shares the expansion
   cache and interner, no process setup), or forked worker processes
   (the PR-4 pool, kept as a fallback: full address-space isolation,
   e.g. against native-code crashes).  Both produce output and
   diagnostics byte-identical to [--jobs 1], in input order. *)
type jobs_mode = Mode_domains | Mode_fork

let jobs_mode_name = function
  | Mode_domains -> "domains"
  | Mode_fork -> "fork"

(* Each input file is a separate fragment pushed through the same
   engine — "meta-programming constructs and regular programs that
   invoke macros can either be located in separate files, or mixed
   together" (paper §2).  Diagnostics carry per-file source names.
   An unreadable input (vanished file, directory, permissions) is a
   diagnostic like any other, not an uncaught exception. *)
let with_fragments ~diag_format files k =
  let fragments =
    match files with
    | [] ->
        let b = Buffer.create 4096 in
        (try
           while true do
             Buffer.add_channel b stdin 4096
           done
         with End_of_file -> ());
        [ ("<stdin>", Buffer.contents b) ]
    | files ->
        List.map
          (fun f ->
            match read_file f with
            | text -> (f, text)
            | exception Sys_error msg ->
                emit_diag diag_format
                  (Diag.make ~loc:(file_start_loc f) Diag.Parsing
                     (Printf.sprintf "cannot read input: %s" msg));
                exit exit_fatal)
          files
  in
  k fragments

(* ------------------------------------------------------------------ *)
(* Worker pool                                                         *)
(* ------------------------------------------------------------------ *)

(* With [--jobs N] (N > 1) each input file is expanded by a forked
   worker against a fresh engine: files are independent compilation
   units, so macro definitions do not flow between them (the default
   [--jobs 1] keeps the shared-session sequential pipeline, where they
   do).  A worker ships its result — rendered output, pre-rendered
   diagnostics, source-map entries, statistics — back over a pipe via
   [Marshal]; the parent reassembles everything in input order, so
   diagnostics and output bytes are deterministic regardless of
   completion order.  Armed failpoints and watchdog deadlines are
   inherited across [fork] and keep working inside workers. *)
type worker_result = {
  w_diags : string list;  (** pre-rendered, in emission order *)
  w_fatal : bool;  (** the file failed wholly (no output from it) *)
  w_recovered : bool;  (** keep-going salvaged at least one diagnostic *)
  w_out : string;  (** rendered C; [""] when fatal *)
  w_map : Ms2_syntax.Emit.entry list;  (** per-file source map (absolute lines) *)
  w_findings : string list;  (** object-level semantic-check findings *)
  w_stats : Ms2.Api.stats option;
      (** the worker engine's counters; [None] when the worker died or
          failed internally *)
  w_events : Obs.event list;
      (** the worker's recorded trace events (empty unless --trace-out) *)
  w_metrics : Obs.Metrics.snapshot option;
      (** a forked worker's own registry counts, absorbed by the parent
          as it reaps the worker *)
}

(* A worker that produced nothing: one diagnostic, no output, no stats. *)
let lost_result (diag : string) : worker_result =
  {
    w_diags = [ diag ];
    w_fatal = true;
    w_recovered = false;
    w_out = "";
    w_map = [];
    w_findings = [];
    w_stats = None;
    w_events = [];
    w_metrics = None;
  }

type stats_format = Stats_text | Stats_json

(* Publish a driver's engine totals into the metrics registry, with the
   resolved job count and pool mode ([--jobs 0] / [--jobs auto] resolves
   to the machine's recommended domain count, so the resolved value is
   run-specific information; the mode is a one-hot pair of counters,
   Prometheus-style).  Every report — [--stats] in either format,
   [--metrics] — renders the registry after this one call. *)
let publish_run ?store ~jobs ~jobs_mode (engines : Ms2.Api.stats list) =
  Ms2.Api.publish_metrics ?store engines;
  let set name v = Obs.Metrics.set (Obs.Metrics.counter name) v in
  set "driver.jobs" jobs;
  set "driver.jobs_mode.domains" (if jobs_mode = Mode_domains then 1 else 0);
  set "driver.jobs_mode.fork" (if jobs_mode = Mode_fork then 1 else 0)

let print_stats ~format ~jobs ~jobs_mode =
  match format with
  | Stats_json -> prerr_endline (Obs.Metrics.to_json ())
  | Stats_text ->
      let s = Ms2.Api.published_stats () in
      Printf.eprintf "jobs: %d (%s)\n" jobs (jobs_mode_name jobs_mode);
      Printf.eprintf
        "macros defined: %d\nmeta declarations run: %d\ninvocations \
         expanded: %d\nfuel consumed: %d\nAST nodes produced: %d\ncache \
         hits: %d\ncache misses: %d\ncache evictions: %d\ncache bypasses: \
         %d\n"
        s.Ms2.Api.macros_defined s.Ms2.Api.meta_declarations_run
        s.Ms2.Api.invocations_expanded s.Ms2.Api.fuel_consumed
        s.Ms2.Api.nodes_produced s.Ms2.Api.cache_hits s.Ms2.Api.cache_misses
        s.Ms2.Api.cache_evictions s.Ms2.Api.cache_bypasses;
      if s.Ms2.Api.cache_bypasses > 0 then
        Printf.eprintf
          "  bypassed for: trace mode %d, armed failpoints %d, uncacheable \
           state %d, drained budget %d\n"
          s.Ms2.Api.cache_bypass_trace s.Ms2.Api.cache_bypass_failpoints
          s.Ms2.Api.cache_bypass_uncacheable s.Ms2.Api.cache_bypass_budget;
      if s.Ms2.Api.fragments_speculated > 0 then begin
        Printf.eprintf
          "fragments speculated: %d (committed %d, revalidated %d)\n"
          s.Ms2.Api.fragments_speculated s.Ms2.Api.fragments_committed
          s.Ms2.Api.fragments_revalidated;
        let aborts =
          s.Ms2.Api.fragments_abort_defs_bump
          + s.Ms2.Api.fragments_abort_gensym_mint
          + s.Ms2.Api.fragments_abort_meta_decl
          + s.Ms2.Api.fragments_abort_stale_read
          + s.Ms2.Api.fragments_abort_foreign_closure
        in
        if aborts > 0 then
          Printf.eprintf
            "  aborted for: defs bump %d, gensym mint %d, meta decl %d, \
             stale read %d, foreign closure %d\n"
            s.Ms2.Api.fragments_abort_defs_bump
            s.Ms2.Api.fragments_abort_gensym_mint
            s.Ms2.Api.fragments_abort_meta_decl
            s.Ms2.Api.fragments_abort_stale_read
            s.Ms2.Api.fragments_abort_foreign_closure
      end;
      Printf.eprintf
        "pattern memo: %d hits, %d misses; FIRST-set memo: %d hits, %d \
         misses\n"
        s.Ms2.Api.pattern_memo_hits s.Ms2.Api.pattern_memo_misses
        s.Ms2.Api.firstset_memo_hits s.Ms2.Api.firstset_memo_misses

(* How a worker that shipped no result died, for the per-file
   diagnostic.  A signal death is the interesting case: SIGKILL is how
   the kernel's OOM killer (or an impatient operator) takes a worker
   out, and SIGSEGV is a native-code crash — both must surface as a
   located, per-file diagnostic, not a silent hole in the output. *)
let describe_worker_death (status : Unix.process_status) : string =
  match status with
  | Unix.WSIGNALED n when n = Sys.sigkill ->
      "was killed by SIGKILL (possibly the kernel's out-of-memory killer)"
  | Unix.WSIGNALED n when n = Sys.sigsegv -> "crashed with SIGSEGV"
  | Unix.WSIGNALED n when n = Sys.sigbus -> "crashed with SIGBUS"
  | Unix.WSIGNALED n when n = Sys.sigill -> "crashed with SIGILL"
  | Unix.WSIGNALED n when n = Sys.sigabrt -> "aborted (SIGABRT)"
  | Unix.WSIGNALED n when n = Sys.sigterm -> "was terminated (SIGTERM)"
  | Unix.WSIGNALED n -> Printf.sprintf "was killed by signal %d" n
  | Unix.WEXITED c ->
      Printf.sprintf "exited with code %d before shipping a result" c
  | Unix.WSTOPPED n ->
      Printf.sprintf "was stopped by signal %d and never resumed" n

(* Run [work i] for every fragment index, at most [jobs] forked workers
   at a time, returning results in input order.  The parent stops
   launching new workers once a fatal result arrives and [keep_going] is
   off (the sequential pipeline would never have reached those files),
   but always drains workers already running.  Results of indices past
   the first fatal one are dropped by the caller.  [source_of]/[render]
   shape the diagnostic for a worker that died without a result (e.g.
   OOM-killed): it is located at the file the worker was expanding, and
   under [keep_going] the remaining files still run. *)
let run_pool ~jobs ~keep_going ~(source_of : int -> string)
    ~(render : Diag.t -> string) ~(work : int -> worker_result) (n : int) :
    worker_result option array =
  let results = Array.make n None in
  let running = ref [] in
  (* (read fd, pid, index) *)
  let next = ref 0 in
  let fatal_seen = ref false in
  let spawn i =
    flush stdout;
    flush stderr;
    let rd, wr = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
        Unix.close rd;
        (* start from an empty registry, so the snapshot shipped home
           holds this worker's counts only, not the parent's again *)
        Obs.Metrics.reset ();
        let result =
          try work i
          with e ->
            lost_result
              (Printf.sprintf "ms2c: worker %d: internal error: %s" i
                 (Printexc.to_string e))
        in
        (* publish like every driver, so the snapshot also carries this
           process's own gauges ([intern.spellings]) *)
        Ms2.Api.publish_metrics (Option.to_list result.w_stats);
        let oc = Unix.out_channel_of_descr wr in
        Marshal.to_channel oc
          { result with w_metrics = Some (Obs.Metrics.snapshot ()) }
          [];
        close_out oc;
        exit 0
    | pid ->
        Unix.close wr;
        running := (rd, pid, i) :: !running
  in
  let reap_one () =
    let fds = List.map (fun (fd, _, _) -> fd) !running in
    match Unix.select fds [] [] (-1.0) with
    | [], _, _ -> ()
    | ready_fd :: _, _, _ ->
        let fd, pid, i =
          List.find (fun (fd, _, _) -> fd == ready_fd) !running
        in
        let ic = Unix.in_channel_of_descr fd in
        let r =
          try Some (Marshal.from_channel ic : worker_result)
          with _ -> None
        in
        close_in ic;
        let _, status = Unix.waitpid [] pid in
        running := List.filter (fun (_, p, _) -> p <> pid) !running;
        let r =
          match r with
          | Some r -> r
          | None ->
              (* the worker died before shipping a result: say how, and
                 pin the diagnostic to the file it was expanding *)
              let source = source_of i in
              lost_result
                (render
                   (Diag.make
                      ~loc:(file_start_loc source)
                      Diag.Expansion
                      (Printf.sprintf
                         "worker expanding %s %s; its output is lost%s" source
                         (describe_worker_death status)
                         (if keep_going then ""
                          else
                            " (rerun with --keep-going to expand the \
                             remaining files anyway)"))))
        in
        Option.iter Obs.Metrics.absorb r.w_metrics;
        if r.w_fatal && not keep_going then fatal_seen := true;
        results.(i) <- Some r
  in
  while !running <> [] || (!next < n && not !fatal_seen) do
    while List.length !running < jobs && !next < n && not !fatal_seen do
      spawn !next;
      incr next
    done;
    if !running <> [] then reap_one ()
  done;
  results

(* The shared-memory counterpart of [run_pool]: [work i] runs on a
   work-stealing pool of OCaml domains (Pool.map), in this very address
   space — engines share the interner, the compiled-pattern memos and
   (when enabled) one expansion-cache store.  Cancellation mirrors the
   fork pool's: without [keep_going] a fatal result cancels only the
   items {e after} it in input order, so the first fatal index the
   caller sees is the one [--jobs 1] would have stopped at.  A worker
   exception is turned into a fatal per-file result here (the domain
   equivalent of a worker death — there is no process to die). *)
let run_domains ~jobs ~keep_going ~(source_of : int -> string)
    ~(render : Diag.t -> string) ~(work : int -> worker_result) (n : int) :
    worker_result option array =
  let work i =
    try work i
    with e ->
      lost_result
        (render
           (Diag.make
              ~loc:(file_start_loc (source_of i))
              Diag.Expansion
              (Printf.sprintf "internal error expanding %s: %s" (source_of i)
                 (Printexc.to_string e))))
  in
  Pool.map ~jobs ~stop:(fun r -> r.w_fatal && not keep_going) n work


(* ------------------------------------------------------------------ *)
(* expand                                                              *)
(* ------------------------------------------------------------------ *)

let files_arg =
  Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"Input files \
       (concatenated in order; reads stdin when none given).")

let output_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT"
       ~doc:"Write the expansion to $(docv) instead of stdout.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ]
       ~doc:"Print expansion statistics to stderr.")

let hygienic_arg =
  Arg.(value & flag & info [ "hygienic" ]
       ~doc:"Rename template-introduced block locals automatically \
             (automatic hygiene).")

let semantic_check_arg =
  Arg.(value & flag & info [ "check"; "semantic-check" ]
       ~doc:"Run the object-level static checker over the expansion and \
             print findings to stderr (exit 1 when any are found).")

let prelude_arg =
  Arg.(value & flag & info [ "prelude" ]
       ~doc:"Load the standard macro library (unless, repeat, for_range, \
             times, swap, with_cleanup, assert_that, log_value, bitflags, \
             myenum) before the input.")

let trace_arg =
  Arg.(value & flag & info [ "trace" ]
       ~doc:"Log every macro expansion (name, actuals, result) to stderr.  \
             Implies a cache bypass for every fragment (the trace log is \
             a side effect a cache replay would skip); the bypasses are \
             counted in --stats and noted in the trace itself.")

let trace_out_arg =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
       ~doc:"Record pipeline spans (per-invocation expansion, lexing, \
             parsing, cache traffic, checkpoints) and write them to \
             $(docv) as Chrome trace-event JSON, loadable in Perfetto or \
             chrome://tracing.  Under --jobs each worker becomes its own \
             process track, merged in input order.")

let metrics_arg =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
       ~doc:"Dump the metrics registry (counters, gauges, histograms; \
             schema ms2-metrics-1) to $(docv) as JSON after expansion.")

let stats_format_arg =
  Arg.(value
       & opt (enum [ ("text", Stats_text); ("json", Stats_json) ]) Stats_text
       & info [ "stats-format" ] ~docv:"FMT"
       ~doc:"Rendering for --stats: $(b,text) (human-readable lines) or \
             $(b,json) (the metrics-registry schema, identical to \
             --metrics output).")

(* [--jobs] accepts a positive count, or 0 / "auto" meaning "resolve to
   the machine's recommended domain count at startup". *)
let jobs_conv : int Arg.conv =
  let parse s =
    match s with
    | "auto" -> Ok 0
    | _ -> (
        match int_of_string_opt s with
        | Some n when n >= 0 -> Ok n
        | _ ->
            Error
              (`Msg
                (Printf.sprintf
                   "invalid value '%s', expected a non-negative integer or \
                    'auto'"
                   s)))
  in
  let print ppf n =
    if n = 0 then Format.pp_print_string ppf "auto"
    else Format.pp_print_int ppf n
  in
  Arg.conv (parse, print)

let jobs_arg =
  Arg.(value & opt jobs_conv 1 & info [ "j"; "jobs" ] ~docv:"N"
       ~doc:"Expand input files with $(docv) parallel workers (see \
             $(b,--jobs-mode)).  Above 1 each file is an independent \
             compilation unit (macro definitions do not flow between \
             files); the default 1 keeps the shared-session sequential \
             pipeline.  $(b,0) or $(b,auto) resolves to the machine's \
             recommended domain count.  Output and diagnostics are \
             emitted in input order either way.")

let fragment_jobs_arg =
  Arg.(value & opt jobs_conv 1 & info [ "fragment-jobs" ] ~docv:"N"
       ~doc:"Expand top-level fragments $(i,within) each file on \
             $(docv) parallel domains: definition-bearing fragments are \
             sequential barriers, runs of pure-invocation fragments \
             between them expand speculatively and commit in order, so \
             output and diagnostics stay byte-identical to sequential \
             expansion.  The default 1 disables it.  $(b,0) or \
             $(b,auto) resolves to the recommended domain count divided \
             by the resolved $(b,--jobs) value (the two compose by \
             splitting the domain budget).  Files with few fragments, \
             and $(b,--trace) runs, fall back to sequential expansion.")

let jobs_mode_arg =
  Arg.(value
       & opt (enum [ ("domains", Mode_domains); ("fork", Mode_fork) ])
           Mode_domains
       & info [ "jobs-mode" ] ~docv:"MODE"
       ~doc:"How --jobs parallelizes: $(b,domains) (shared-memory OCaml \
             domains — the workers share the expansion cache and the \
             string interner; the default) or $(b,fork) (one forked \
             process per file: slower, but each file is isolated in its \
             own address space, which survives native-code crashes and \
             OOM kills of individual workers).  Output is byte-identical \
             either way.")

let no_cache_arg =
  Arg.(value & flag & info [ "no-cache" ]
       ~doc:"Disable the content-addressed expansion cache (the \
             ablation baseline: every fragment is re-expanded from \
             scratch).")

let keep_going_arg =
  Arg.(value & flag & info [ "k"; "keep-going" ]
       ~doc:"Error recovery: when a macro invocation fails to expand, \
             record the diagnostic, substitute a placeholder of the \
             invocation's syntactic type, and continue, reporting every \
             independent error.  Exits with code 3 when anything was \
             recovered.")

let line_directives_arg =
  Arg.(value & flag & info [ "line-directives" ]
       ~doc:"Interleave C $(b,#line) directives mapping each emitted \
             construct back to its outermost user-written location (the \
             macro invocation site for expanded code), so compiler \
             errors and debuggers point at the source the user wrote.")

let sourcemap_arg =
  Arg.(value & opt (some string) None & info [ "sourcemap" ] ~docv:"FILE"
       ~doc:"Write a line-oriented JSON source map to $(docv): one \
             object per output line, giving the producing span and its \
             macro expansion stack (innermost frame first).")

let journal_arg =
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE"
       ~doc:"Crash-safe batch journal: append one fsynced line-JSON \
             record (input digest, flags digest, output digest, status, \
             result payload) to $(docv) as each input file completes, \
             so a batch killed mid-run can be finished with \
             $(b,--resume) at the cost of only the file in flight.  \
             Forces the independent-compilation-units batch driver \
             (each file is its own unit, as under --jobs), and is \
             mutually exclusive with --trace.")

let resume_arg =
  Arg.(value & flag & info [ "resume" ]
       ~doc:"Resume an interrupted batch from its $(b,--journal): files \
             whose name, input digest and flags digest match an intact \
             journaled record are reassembled from it without \
             re-expansion, the rest expand normally.  Output bytes, \
             diagnostics and exit status are identical to an \
             uninterrupted run.  Torn or corrupt journal lines are \
             skipped with a warning (they cost a re-expansion, never \
             correctness).")

let cache_file_arg =
  Arg.(value & opt (some string) None & info [ "cache-file" ] ~docv:"FILE"
       ~doc:"Durable expansion-cache snapshot: load $(docv) at startup \
             (so the batch starts warm) and save the cache back to it \
             after the run (atomic + fsynced, so a crash mid-save never \
             clobbers the previous snapshot).  A truncated, bit-flipped \
             or version-skewed snapshot degrades to a cold cache with a \
             warning counted in --stats/--metrics — never a crash, \
             never a wrong replay.  Ignored under --no-cache.")

(* The digests that decide whether a journaled result is still valid on
   resume: the input bytes, and every flag that can change the produced
   output, the rendered diagnostics, or the recorded source map. *)
let input_digest (text : string) : string = Digest.to_hex (Digest.string text)

let flags_digest ~limits ~hygienic ~prelude ~keep_going ~line_directives
    ~semantic_check ~diag_format ~want_map : string =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|hyg=%b|pre=%b|kg=%b|ld=%b|sc=%b|df=%s|map=%b"
          (Ms2_support.Limits.to_string limits)
          hygienic prelude keep_going line_directives semantic_check
          (match diag_format with Text -> "text" | Json -> "json")
          want_map))

(* Console reporting for the persistence layer, shared by both drivers. *)
let warn_snapshot_load (l : Ms2.Engine.snapshot_load) =
  match l.Ms2.Engine.ld_error with
  | Some msg ->
      Printf.eprintf
        "ms2c: warning: cache snapshot ignored (cold start): %s\n%!" msg
  | None -> ()

let report_snapshot ~stats (load : Ms2.Engine.snapshot_load option)
    (save : Ms2.Engine.snapshot_save option) =
  if stats then begin
    (match load with
    | Some l ->
        Printf.eprintf
          "cache snapshot: loaded %d entries (%d dropped, %d warnings)\n"
          l.Ms2.Engine.ld_entries l.Ms2.Engine.ld_dropped
          l.Ms2.Engine.ld_warnings
    | None -> ());
    match save with
    | Some s ->
        Printf.eprintf
          "cache snapshot: saved %d entries (%d skipped, %d bytes)\n"
          s.Ms2.Engine.sv_entries s.Ms2.Engine.sv_skipped
          s.Ms2.Engine.sv_bytes
    | None -> ()
  end

(* Load a snapshot into a shared store, sweeping temp-file orphans a
   crashed writer may have left beside it first. *)
let load_cache_file (store : Ms2.Api.shared_cache) (path : string) :
    Ms2.Engine.snapshot_load =
  ignore (Atomic_io.sweep_stale (Filename.dirname path));
  let l = Ms2.Api.load_shared_cache store path in
  warn_snapshot_load l;
  l

let save_cache_file (store : Ms2.Api.shared_cache) (path : string) :
    Ms2.Engine.snapshot_save option =
  match Ms2.Api.save_shared_cache store path with
  | Ok sv -> Some sv
  | Error msg ->
      Printf.eprintf "ms2c: warning: cache snapshot not saved: %s\n%!" msg;
      None

(* Expand every fragment through one (transactional) engine.  Without
   [--keep-going] the first fatal failure aborts the run (exit 1).  With
   it, each file is an isolated transaction: a fatal failure is reported
   immediately, the engine's rollback discards whatever the bad file had
   half-registered, and the remaining files still expand (exit 3). *)
let expand_fragments ?(fragment_jobs = 1) ~engine ~keep_going ~diag_format
    fragments : Ms2_syntax.Ast.program * bool =
  let failed = ref false in
  let prog =
    List.concat_map
      (fun (source, text) ->
        match
          Diag.protect (fun () ->
              Ms2.Engine.expand_source engine ~source ~fragment_jobs text)
        with
        | Ok decls -> decls
        | Error d when keep_going ->
            emit_diag diag_format d;
            failed := true;
            []
        | Error d ->
            (* show what recovery salvaged before the fatal error *)
            emit_diags diag_format (Ms2.Api.diagnostics engine);
            emit_diag diag_format d;
            exit exit_fatal)
      fragments
  in
  (prog, !failed)

let count_newlines s =
  let n = ref 0 in
  String.iter (fun c -> if c = '\n' then incr n) s;
  !n

(* The parallel driver: one worker per file — a forked process
   ([--jobs-mode=fork]) or a task on a work-stealing domain pool
   ([--jobs-mode=domains], the default) — each with a fresh engine; see
   {!worker_result}.  Everything user-visible is reassembled in input
   order, so both modes are byte-identical to each other and to
   [--jobs 1] on self-contained files. *)
let expand_parallel ~jobs ~fragment_jobs ~jobs_mode ~limits ~keep_going
    ~hygienic ~prelude ~cache ~line_directives ~sourcemap ~semantic_check
    ~stats ~stats_format ~trace_out ~metrics ~output ~diag_format ~journal
    ~resume ~cache_file fragments =
  let frags = Array.of_list fragments in
  let n = Array.length frags in
  let want_map = line_directives || sourcemap <> None in
  (* domains share one cache store: a fragment expanded on one domain
     replays on every other, and hit/miss/eviction counters merge.  A
     --cache-file forces a store in every mode: it is what gets loaded
     and saved (under fork the children inherit the loaded entries via
     copy-on-write; their new entries stay private, so the save keeps
     what was loaded — bounded staleness, never corruption). *)
  let store =
    if cache && (jobs_mode = Mode_domains || cache_file <> None) then
      Some (Ms2.Api.create_shared_cache ())
    else None
  in
  let snap_load =
    match (cache_file, store) with
    | Some path, Some s -> Some (load_cache_file s path)
    | _ -> None
  in
  let flagsd =
    flags_digest ~limits ~hygienic ~prelude ~keep_going ~line_directives
      ~semantic_check ~diag_format ~want_map
  in
  (* resume: index the journal by (file, input digest, flags digest) —
     the last intact record for a key wins, and its payload reassembles
     the file's result without re-expanding.  The journal's crc already
     vouches for the payload bytes, but [Marshal] is only safe on bytes
     THIS build wrote, so a record stamped by any other build of the
     binary is skipped (re-expanded) before decoding; the output digest
     is re-checked anyway (belt and suspenders). *)
  let prefill : worker_result option array =
    match (journal, resume) with
    | Some path, true ->
        let records, _warnings = Journal.load path in
        let tbl = Hashtbl.create 64 in
        List.iter
          (fun r ->
            Hashtbl.replace tbl
              (r.Journal.jr_file, r.Journal.jr_input, r.Journal.jr_flags)
              r)
          records;
        Array.map
          (fun (source, text) ->
            match
              Hashtbl.find_opt tbl (source, input_digest text, flagsd)
            with
            | None -> None
            | Some r when not (String.equal r.Journal.jr_build (Build_id.hex ()))
              ->
                None
            | Some r -> (
                match Journal.b64_decode r.Journal.jr_payload with
                | None -> None
                | Some payload -> (
                    match (Marshal.from_string payload 0 : worker_result) with
                    | exception _ -> None
                    | wr ->
                        if
                          String.equal (input_digest wr.w_out)
                            r.Journal.jr_output
                        then Some wr
                        else None)))
          frags
    | _ -> Array.make n None
  in
  let replayed =
    Array.fold_left
      (fun acc r -> if r = None then acc else acc + 1)
      0 prefill
  in
  if resume then begin
    Obs.Metrics.incr ~by:replayed (Obs.Metrics.counter "journal.replayed");
    Printf.eprintf
      "ms2c: resume: %d of %d files replayed from the journal\n%!" replayed n
  end;
  (* open (or start) the journal before any worker forks, so forked
     children append through the inherited descriptor; a fresh batch
     truncates, a resumed one appends after what it just replayed *)
  let jwriter =
    match journal with
    | None -> None
    | Some path -> (
        ignore (Atomic_io.sweep_stale (Filename.dirname path));
        match Journal.open_writer ~truncate:(not resume) path with
        | Ok w -> Some w
        | Error msg ->
            Printf.eprintf "ms2c: cannot open journal: %s\n%!" msg;
            exit exit_fatal)
  in
  let render_diag d =
    match diag_format with Text -> Diag.render d | Json -> Diag.to_json d
  in
  let work i =
    let source, text = frags.(i) in
    (* deterministic stand-in for an OOM kill: a worker whose file
       matches this env var SIGKILLs itself before doing any work, so
       the parent's died-without-a-result path is testable.  Fork-only:
       in a domain the SIGKILL would take out the whole process. *)
    (match jobs_mode with
    | Mode_fork -> (
        match Sys.getenv_opt "MS2_TEST_WORKER_KILL" with
        | Some victim when victim = source ->
            Unix.kill (Unix.getpid ()) Sys.sigkill
        | _ -> ())
    | Mode_domains -> ());
    (* fork: each worker records into its own process-global sinks and
       ships its events home over the result pipe.  domains: the
       recorder is domain-local, so starting it here scopes the event
       batch to this file on this domain. *)
    if trace_out <> None then Obs.start_recording ();
    let engine =
      Ms2.Api.create_engine ~limits ~recover:keep_going ~hygienic ~prelude
        ~cache ?cache_store:store ()
    in
    let events () =
      if trace_out = None then []
      else
        match jobs_mode with
        | Mode_fork -> Obs.events ()
        | Mode_domains -> Obs.stop_recording ()
    in
    match
      Diag.protect (fun () ->
          Ms2.Engine.expand_source engine ~source ~fragment_jobs text)
    with
    | Ok decls ->
        let recovered = Ms2.Api.diagnostics engine in
        let out, map =
          if want_map then
            let r = Ms2_syntax.Emit.program ~line_directives decls in
            (r.Ms2_syntax.Emit.text, r.Ms2_syntax.Emit.map)
          else
            ( Ms2_syntax.Pretty.program_to_string
                ~mode:Ms2_syntax.Pretty.strict decls,
              [] )
        in
        {
          w_diags = List.map render_diag recovered;
          w_fatal = false;
          w_recovered = recovered <> [];
          w_out = out;
          w_map = map;
          w_findings =
            (if semantic_check then Ms2.Api.check_program decls else []);
          w_stats = Some (Ms2.Api.stats engine);
          w_events = events ();
          w_metrics = None;
        }
    | Error d ->
        let recovered = Ms2.Api.diagnostics engine in
        (* mirror the sequential pipeline's emission order: keep-going
           reports the fatal diagnostic as it happens (recovered ones
           follow at the end); a hard stop shows what recovery salvaged
           first, then the fatal diagnostic *)
        let diags =
          if keep_going then render_diag d :: List.map render_diag recovered
          else List.map render_diag recovered @ [ render_diag d ]
        in
        {
          w_diags = diags;
          w_fatal = true;
          w_recovered = recovered <> [];
          w_out = "";
          w_map = [];
          w_findings = [];
          w_stats = Some (Ms2.Api.stats engine);
          w_events = events ();
          w_metrics = None;
        }
  in
  (* journal wrapper: a replayed file returns its journaled result
     untouched (and is not re-journaled); a freshly expanded one is
     appended — payload stripped of telemetry, which is per-run — the
     moment it completes, from whichever worker produced it *)
  let work i =
    match prefill.(i) with
    | Some r -> r
    | None -> (
        let r = work i in
        match jwriter with
        | None -> r
        | Some w ->
            let source, text = frags.(i) in
            let rec_ =
              {
                Journal.jr_file = source;
                jr_input = input_digest text;
                jr_flags = flagsd;
                jr_status = (if r.w_fatal then "fatal" else "ok");
                jr_output = input_digest r.w_out;
                jr_build = Build_id.hex ();
                jr_payload =
                  Journal.b64_encode
                    (Marshal.to_string { r with w_events = [] } []);
              }
            in
            (match Journal.append w rec_ with
            | Ok () -> ()
            | Error msg ->
                Printf.eprintf
                  "ms2c: warning: journal append failed for %s: %s\n%!" source
                  msg);
            r)
  in
  let results =
    let source_of i = fst frags.(i) in
    match jobs_mode with
    | Mode_fork ->
        run_pool ~jobs ~keep_going ~source_of ~render:render_diag ~work n
    | Mode_domains ->
        run_domains ~jobs ~keep_going ~source_of ~render:render_diag ~work n
  in
  (match jwriter with None -> () | Some w -> Journal.close_writer w);
  (* snapshot now, before any exit path: the store already holds every
     entry the run produced, and a fatal batch's warm entries are worth
     keeping too *)
  let snap_save =
    match (cache_file, store) with
    | Some path, Some s -> save_cache_file s path
    | _ -> None
  in
  let first_fatal = ref None in
  Array.iteri
    (fun i r ->
      match r with
      | Some r when r.w_fatal && !first_fatal = None -> first_fatal := Some i
      | _ -> ())
    results;
  match !first_fatal with
  | Some k when not keep_going ->
      (* the sequential pipeline stops at the first fatal file: emit
         diagnostics up to and including it, produce no output, exit 1 *)
      for i = 0 to k do
        match results.(i) with
        | Some r -> List.iter prerr_endline r.w_diags
        | None -> ()
      done;
      exit exit_fatal
  | _ ->
      let degraded = ref false in
      let buf = Buffer.create 65536 in
      let map = ref [] in
      let off = ref 0 in
      let findings = ref [] in
      Array.iter
        (function
          | None -> ()
          | Some r ->
              List.iter prerr_endline r.w_diags;
              if r.w_fatal || r.w_recovered then degraded := true;
              (* keep per-file renderings line-aligned under
                 concatenation so source-map offsets stay exact *)
              let text =
                (* an empty program renders as a lone newline
                   ([pp_program]'s closing [@.]); under concatenation it
                   contributes no declarations, hence no lines *)
                if r.w_out = "\n" then ""
                else if
                  r.w_out <> "" && r.w_out.[String.length r.w_out - 1] <> '\n'
                then r.w_out ^ "\n"
                else r.w_out
              in
              (* the single-render pipeline separates top-level
                 declarations with a blank line carrying a dummy-loc map
                 entry; reproduce both between files *)
              if text <> "" && Buffer.length buf > 0 then begin
                Buffer.add_char buf '\n';
                incr off;
                map :=
                  {
                    Ms2_syntax.Emit.out_line = !off;
                    loc = Ms2_support.Loc.dummy;
                  }
                  :: !map
              end;
              Buffer.add_string buf text;
              List.iter
                (fun e ->
                  map :=
                    { e with
                      Ms2_syntax.Emit.out_line =
                        e.Ms2_syntax.Emit.out_line + !off
                    }
                    :: !map)
                r.w_map;
              off := !off + count_newlines text;
              findings := !findings @ r.w_findings)
        results;
      (match sourcemap with
      | None -> ()
      | Some path ->
          write_atomic ~diag_format path
            (Ms2_syntax.Emit.sourcemap_to_string (List.rev !map)));
      (* zero surviving declarations render as "\n" in one shot
         ([pp_program]'s closing [@.] over an empty list) — match it *)
      let out = if Buffer.length buf = 0 then "\n" else Buffer.contents buf in
      (match output with
      | None -> print_string out
      | Some path -> write_atomic ~diag_format path out);
      (* merge worker telemetry in input order: track [i] (= trace pid
         [i]) is input file [i], whatever order the workers finished in *)
      (match trace_out with
      | None -> ()
      | Some path ->
          let tracks =
            Array.to_list
              (Array.mapi
                 (fun i r ->
                   ( fst frags.(i),
                     match r with Some r -> r.w_events | None -> [] ))
                 results)
          in
          write_atomic ~diag_format path (Obs.chrome_trace tracks));
      (* a store counts the cache traffic only where the engines share
         it: under fork each worker has its own copy-on-write copy *)
      publish_run
        ?store:(if jobs_mode = Mode_domains then store else None)
        ~jobs ~jobs_mode
        (List.filter_map
           (fun r -> Option.bind r (fun r -> r.w_stats))
           (Array.to_list results));
      (match metrics with
      | None -> ()
      | Some path -> write_atomic ~diag_format path (Obs.Metrics.to_json ()));
      if stats then
        print_stats ~format:stats_format ~jobs ~jobs_mode;
      report_snapshot ~stats snap_load snap_save;
      if semantic_check && !findings <> [] then begin
        List.iter prerr_endline !findings;
        exit exit_fatal
      end;
      if !degraded then exit exit_degraded

let expand_cmd =
  let run files output stats stats_format hygienic semantic_check prelude
      trace trace_out metrics jobs fragment_jobs jobs_mode no_cache fuel
      invocation_fuel max_nodes max_errors timeout_ms invocation_timeout_ms
      failpoints keep_going line_directives sourcemap journal resume
      cache_file diag_format =
    arm_failpoints failpoints;
    if resume && journal = None then begin
      prerr_endline "ms2c: --resume requires --journal FILE";
      exit exit_fatal
    end;
    if journal <> None && trace then begin
      prerr_endline
        "ms2c: --journal and --trace are mutually exclusive (the journal \
         runs the independent-compilation-units batch driver; --trace \
         needs the shared-session sequential pipeline)";
      exit exit_fatal
    end;
    (* [--jobs 0] / [--jobs auto]: one worker per recommended domain *)
    let jobs = if jobs = 0 then Pool.recommended () else jobs in
    (* [--fragment-jobs auto] splits the domain budget with --jobs: N
       files in flight, each expanding on recommended/N domains *)
    let fragment_jobs =
      if fragment_jobs = 0 then max 1 (Pool.recommended () / max 1 jobs)
      else fragment_jobs
    in
    with_fragments ~diag_format files (fun fragments ->
        let limits =
          limits_of ~fuel ~invocation_fuel ~max_nodes ~max_errors
            ~timeout_ms ~invocation_timeout_ms
        in
        (* the pool only pays off with several files; --trace keeps the
           sequential path so the interleaving of trace output stays
           deterministic.  A journal forces the batch driver at any job
           count: its per-file records only make sense when each file is
           an independent compilation unit. *)
        if journal <> None
           || (jobs > 1 && List.length fragments > 1 && not trace)
        then
          expand_parallel ~jobs ~fragment_jobs ~jobs_mode ~limits ~keep_going
            ~hygienic ~prelude ~cache:(not no_cache) ~line_directives
            ~sourcemap ~semantic_check ~stats ~stats_format ~trace_out
            ~metrics ~output ~diag_format ~journal ~resume ~cache_file
            fragments
        else begin
          if trace_out <> None then Obs.start_recording ();
          (* the sequential pipeline supports --cache-file through the
             same shared-store snapshot path the batch driver uses *)
          let store, snap_load =
            match cache_file with
            | Some path when not no_cache ->
                let s = Ms2.Api.create_shared_cache () in
                (Some s, Some (load_cache_file s path))
            | _ -> (None, None)
          in
          let engine =
            Ms2.Api.create_engine ~limits ~recover:keep_going ~hygienic
              ~prelude ~cache:(not no_cache) ?cache_store:store ()
          in
          if trace then
            engine.Ms2.Engine.trace <- Some Format.err_formatter;
          let prog, failed =
            expand_fragments ~fragment_jobs ~engine ~keep_going ~diag_format
              fragments
          in
          let recovered = Ms2.Api.diagnostics engine in
          emit_diags diag_format recovered;
          let out =
            if line_directives || sourcemap <> None then begin
              (* the provenance-aware emitter: same strict rendering, but
                 every output line is tracked back to the construct (and
                 expansion chain) that produced it *)
              let r = Ms2_syntax.Emit.program ~line_directives prog in
              (match sourcemap with
              | None -> ()
              | Some path ->
                  write_atomic ~diag_format path
                    (Ms2_syntax.Emit.sourcemap_to_string
                       r.Ms2_syntax.Emit.map));
              r.Ms2_syntax.Emit.text
            end
            else
              Ms2_syntax.Pretty.program_to_string
                ~mode:Ms2_syntax.Pretty.strict prog
          in
          (match output with
          | None -> print_string out
          | Some path -> write_atomic ~diag_format path out);
          publish_run ~jobs ~jobs_mode [ Ms2.Api.stats engine ];
          (match trace_out with
          | None -> ()
          | Some path ->
              write_atomic ~diag_format path
                (Obs.chrome_trace [ ("ms2c", Obs.events ()) ]));
          (match metrics with
          | None -> ()
          | Some path ->
              write_atomic ~diag_format path (Obs.Metrics.to_json ()));
          if stats then
            print_stats ~format:stats_format ~jobs ~jobs_mode;
          let snap_save =
            match (store, cache_file) with
            | Some s, Some path -> save_cache_file s path
            | _ -> None
          in
          report_snapshot ~stats snap_load snap_save;
          if semantic_check then begin
            match Ms2.Api.check_program prog with
            | [] -> ()
            | findings ->
                List.iter prerr_endline findings;
                exit exit_fatal
          end;
          if failed || recovered <> [] then exit exit_degraded
        end)
  in
  Cmd.v
    (Cmd.info "expand" ~doc:"Expand syntax macros to pure C")
    Term.(
      const run $ files_arg $ output_arg $ stats_arg $ stats_format_arg
      $ hygienic_arg $ semantic_check_arg $ prelude_arg $ trace_arg
      $ trace_out_arg $ metrics_arg $ jobs_arg $ fragment_jobs_arg
      $ jobs_mode_arg $ no_cache_arg $ fuel_arg $ invocation_fuel_arg
      $ max_nodes_arg $ max_errors_arg $ timeout_arg
      $ invocation_timeout_arg $ failpoints_arg $ keep_going_arg
      $ line_directives_arg $ sourcemap_arg $ journal_arg $ resume_arg
      $ cache_file_arg $ diag_format_arg)

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  let run files no_cache fuel invocation_fuel max_nodes max_errors timeout_ms
      invocation_timeout_ms failpoints keep_going diag_format =
    arm_failpoints failpoints;
    with_fragments ~diag_format files (fun fragments ->
        let limits =
          limits_of ~fuel ~invocation_fuel ~max_nodes ~max_errors
            ~timeout_ms ~invocation_timeout_ms
        in
        let engine =
          Ms2.Api.create_engine ~limits ~recover:keep_going
            ~cache:(not no_cache) ()
        in
        let _, failed =
          expand_fragments ~engine ~keep_going ~diag_format fragments
        in
        let recovered = Ms2.Api.diagnostics engine in
        emit_diags diag_format recovered;
        if failed || recovered <> [] then exit exit_degraded
        else prerr_endline "ok")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Parse, type check and expand without printing the result")
    Term.(
      const run $ files_arg $ no_cache_arg $ fuel_arg $ invocation_fuel_arg
      $ max_nodes_arg $ max_errors_arg $ timeout_arg
      $ invocation_timeout_arg $ failpoints_arg $ keep_going_arg
      $ diag_format_arg)

(* ------------------------------------------------------------------ *)
(* profile                                                             *)
(* ------------------------------------------------------------------ *)

type profile_format = Profile_text | Profile_json

let profile_format_arg =
  Arg.(value
       & opt (enum [ ("text", Profile_text); ("json", Profile_json) ])
           Profile_text
       & info [ "format" ] ~docv:"FMT"
       ~doc:"Report rendering: $(b,text) (aligned table, hottest macro \
             first) or $(b,json) (schema ms2-profile-1, same order).")

let profile_cmd =
  let run files output format hygienic prelude no_cache fuel invocation_fuel
      max_nodes max_errors timeout_ms invocation_timeout_ms failpoints
      keep_going diag_format =
    arm_failpoints failpoints;
    with_fragments ~diag_format files (fun fragments ->
        let limits =
          limits_of ~fuel ~invocation_fuel ~max_nodes ~max_errors
            ~timeout_ms ~invocation_timeout_ms
        in
        Obs.Profile.enable ();
        let engine =
          Ms2.Api.create_engine ~limits ~recover:keep_going ~hygienic
            ~prelude ~cache:(not no_cache) ()
        in
        let _, failed =
          expand_fragments ~engine ~keep_going ~diag_format fragments
        in
        let recovered = Ms2.Api.diagnostics engine in
        emit_diags diag_format recovered;
        let rows = Obs.Profile.report () in
        let out =
          match format with
          | Profile_text -> Obs.Profile.report_to_text rows
          | Profile_json -> Obs.Profile.report_to_json rows
        in
        (match output with
        | None -> print_string out
        | Some path -> write_atomic ~diag_format path out);
        if failed || recovered <> [] then exit exit_degraded)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Expand and report per-macro costs: invocation counts, \
             self/total wall time, fuel, produced nodes, cache hit rate \
             and maximum expansion depth, hottest (by self time) first.")
    Term.(
      const run $ files_arg $ output_arg $ profile_format_arg
      $ hygienic_arg $ prelude_arg $ no_cache_arg $ fuel_arg
      $ invocation_fuel_arg $ max_nodes_arg $ max_errors_arg $ timeout_arg
      $ invocation_timeout_arg $ failpoints_arg $ keep_going_arg
      $ diag_format_arg)

(* ------------------------------------------------------------------ *)
(* figures                                                             *)
(* ------------------------------------------------------------------ *)

let figures_cmd =
  let run () =
    print_endline "Figure 2: parses of `[int $y;] by the AST type of y";
    List.iter
      (fun (ty, parse) -> Printf.printf "  %-20s %s\n" ty parse)
      (Ms2.Figures.figure2 ());
    print_endline "";
    print_endline
      "Figure 3: parses of `{int x; $ph1 $ph2 return(x);} by placeholder \
       types";
    List.iter
      (fun (t1, t2, parse) -> Printf.printf "  %-5s %-5s %s\n" t1 t2 parse)
      (Ms2.Figures.figure3 ());
    print_endline "";
    print_endline "Figure 1 witnesses (token substitution vs syntax macros):";
    Printf.printf "  CPP  MUL(x + y, m + n) -> %s\n" (Ms2.Figures.cpp_witness ());
    Printf.printf "  MS2  MUL(x + y, m + n) -> %s\n" (Ms2.Figures.ms2_witness ())
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate the paper's figures")
    Term.(const run $ const ())

let main =
  Cmd.group
    (Cmd.info "ms2c" ~version:"1.0.0"
       ~doc:"Programmable syntax macros for C (Weise & Crew, PLDI 1993)")
    [ expand_cmd; check_cmd; profile_cmd; figures_cmd; Serve_cmd.cmd;
      Top_cmd.cmd ]

let () = exit (Cmd.eval main)
