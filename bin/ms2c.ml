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
module Loc = Ms2_support.Loc
module Emit = Ms2_syntax.Emit

(* Where per-file engines run: shared-memory OCaml domains over one
   work-stealing pool (the default — shares the expansion cache and
   interner, no process setup), or forked worker processes (full
   address-space isolation, e.g. against native-code crashes; on a
   batch whose files share no cache entries it is also the faster
   mode: it beat domains in 82 of 88 pairs on corpus-macros, see
   EXPERIMENTS.md).  Both produce output and diagnostics in input
   order, byte-identical to each other. *)
type jobs_mode = Mode_domains | Mode_fork

let jobs_mode_name = function
  | Mode_domains -> "domains"
  | Mode_fork -> "fork"

(* Read every input file (or stdin) as a [(source, text)] unit for
   {!expand_batch}; diagnostics carry per-file source names.  An
   unreadable input (vanished file, directory, permissions) is a
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

(* What expanding one input file produced.  With per-file engines each
   file is expanded by a worker against a fresh engine: files are
   independent compilation units, so macro definitions do not flow
   between them (under one shared engine they do).  A forked worker
   ships its result — rendered output, pre-rendered diagnostics,
   source-map entries, statistics — back over a pipe via [Marshal]; the
   parent reassembles everything in input order, so diagnostics and
   output bytes are deterministic regardless of completion order.
   Armed failpoints and watchdog deadlines are inherited across [fork]
   and keep working inside workers. *)
type worker_result = {
  w_diags : string list;  (** pre-rendered, in emission order *)
  w_fatal : bool;  (** the file failed wholly (no output from it) *)
  w_recovered : bool;  (** keep-going salvaged at least one diagnostic *)
  w_out : string;  (** rendered C; [""] when fatal *)
  w_map : Emit.entry list;  (** per-file source map (absolute lines) *)
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
   off (a shared engine would never have reached those files), but
   always drains workers already running.  Results of indices past
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
   caller sees is the one an input-order run would have stopped at.
   At [~jobs:1] every item runs inline on the calling domain, in input
   order: the shared engine's loop.  A worker exception is turned into
   a fatal per-file result here (the domain equivalent of a worker
   death — there is no process to die). *)
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
             chrome://tracing.  Each input file becomes its own process \
             track, in input order; under one shared engine its setup \
             (e.g. the --prelude load) lands on the first file's track.")

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
             $(b,--jobs-mode)).  Above 1, with several files, each file \
             gets its own engine and is an independent compilation unit \
             (macro definitions do not flow between files); at the \
             default 1 one engine is shared by all files, in input \
             order, and definitions do flow.  $(b,0) or $(b,auto) \
             resolves to the machine's recommended domain count.  Output \
             and diagnostics are emitted in input order either way.")

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
             process per file, each isolated in its own address space, \
             which survives native-code crashes and OOM kills of \
             individual workers; on batches whose files share no cache \
             entries it is also the faster mode).  Output is \
             byte-identical either way.")

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
             Gives every file its own engine at any job count (each \
             file is an independent compilation unit, as under --jobs), \
             and is mutually exclusive with --trace.")

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

(* Console reporting for the persistence layer. *)
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

let count_newlines s =
  let n = ref 0 in
  String.iter (fun c -> if c = '\n' then incr n) s;
  !n

let write_output ~diag_format output text =
  match output with
  | None -> print_string text
  | Some path -> write_atomic ~diag_format path text

(* The one driver behind [expand], [check] and [profile].  Each input
   file is one unit for {!Ms2.Api.expand_unit}; what differs is only
   the engine it runs on:

   - shared: one engine runs every file inline, in input order, so
     definitions flow from file to file — "meta-programming constructs
     and regular programs that invoke macros can either be located in
     separate files, or mixed together" (paper §2).  This is [--jobs 1],
     [--trace] and any single input;
   - per-file: a fresh engine for each file, on a worker — a task on a
     work-stealing domain pool ([--jobs-mode=domains]) or a forked
     process ([--jobs-mode=fork]); see {!worker_result}.  This is
     [--jobs N] over several files, and [--journal] at any job count:
     its per-file records only make sense for independent units.

   Everything user-visible is reassembled in input order, so output,
   diagnostics and source maps are byte-identical across [--jobs] on
   self-contained files.  Without [keep_going] the first fatal file
   ends the run (exit 1) after its diagnostics and before any output;
   with it, each file is an isolated transaction (a fatal file rolls
   back and contributes nothing) and the run exits 3.  [deliver] gets
   the stitched expansion. *)
let expand_batch ?(jobs = 1) ?(fragment_jobs = 1) ?(jobs_mode = Mode_domains)
    ?(hygienic = false) ?(prelude = false) ?(trace = false)
    ?(line_directives = false) ?sourcemap ?(semantic_check = false)
    ?(stats = false) ?(stats_format = Stats_text) ?trace_out ?metrics
    ?journal ?(resume = false) ?cache_file ~limits ~keep_going ~cache
    ~diag_format ~deliver fragments =
  let frags = Array.of_list fragments in
  let n = Array.length frags in
  let per_file = journal <> None || (jobs > 1 && n > 1 && not trace) in
  let forked = per_file && jobs_mode = Mode_fork in
  let want_map = line_directives || sourcemap <> None in
  (* domains share one cache store: a fragment expanded on one domain
     replays on every other, and hit/miss/eviction counters merge.  A
     --cache-file forces a store in every mode: it is what gets loaded
     and saved (under fork the children inherit the loaded entries via
     copy-on-write; their new entries stay private, so the save keeps
     what was loaded — bounded staleness, never corruption). *)
  let store =
    if cache && (cache_file <> None || (per_file && not forked)) then
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
  let new_engine () =
    let engine =
      Ms2.Api.create_engine ~limits ~recover:keep_going ~hygienic ~prelude
        ~cache ?cache_store:store ()
    in
    if trace then engine.Ms2.Engine.trace <- Some Format.err_formatter;
    engine
  in
  (* recording starts first, so the shared engine's setup (the prelude
     load) lands on file 0's trace track *)
  let shared =
    if per_file then None
    else begin
      if trace_out <> None then Obs.start_recording ();
      Some (new_engine ())
    end
  in
  (* a shared engine's files form one program, checked whole at the end *)
  let programs = Array.make n [] in
  let work i =
    let source, text = frags.(i) in
    (* deterministic stand-in for an OOM kill: a worker whose file
       matches this env var SIGKILLs itself before doing any work, so
       the parent's died-without-a-result path is testable.  Fork-only:
       in a domain the SIGKILL would take out the whole process. *)
    (match Sys.getenv_opt "MS2_TEST_WORKER_KILL" with
    | Some victim when forked && victim = source ->
        Unix.kill (Unix.getpid ()) Sys.sigkill
    | _ -> ());
    (* fork: each worker records into its own process-global sinks and
       ships its events home over the result pipe.  Otherwise the
       recorder is domain-local, so starting it here scopes the event
       batch to this file on this domain. *)
    if trace_out <> None then Obs.start_recording ();
    let engine = match shared with Some e -> e | None -> new_engine () in
    let u =
      Ms2.Api.expand_unit ~line_directives ~map:want_map ~fragment_jobs engine
        ~source text
    in
    let checked =
      if semantic_check && Option.is_none u.u_fatal then u.u_program else None
    in
    if not per_file then Option.iter (fun p -> programs.(i) <- p) checked;
    {
      (* the fatal diagnostic leads, then what --keep-going recovered *)
      w_diags =
        List.map (render_diag diag_format)
          (Option.to_list u.u_fatal @ u.u_recovered);
      w_fatal = Option.is_some u.u_fatal;
      w_recovered = u.u_recovered <> [];
      w_out = u.u_output;
      w_map = u.u_map;
      w_findings =
        (match checked with
        | Some p when per_file -> Ms2.Api.check_program p
        | _ -> []);
      (* a shared engine's cumulative counters are published once *)
      w_stats = (if per_file then Some (Ms2.Api.stats engine) else None);
      w_events =
        (if trace_out = None then []
         else if forked then Obs.events ()
         else Obs.stop_recording ());
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
    let render = render_diag diag_format in
    if forked then run_pool ~jobs ~keep_going ~source_of ~render ~work n
    else
      run_domains
        ~jobs:(if per_file then jobs else 1)
        ~keep_going ~source_of ~render ~work n
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
  (* without keep_going the run stops at the first fatal file: the
     diagnostics up to and including it, no output, exit 1 *)
  let rec upto = function
    | r :: _ when r.w_fatal && not keep_going -> [ r ]
    | r :: rest -> r :: upto rest
    | [] -> []
  in
  let done_ = upto (List.filter_map Fun.id (Array.to_list results)) in
  List.iter (fun r -> List.iter prerr_endline r.w_diags) done_;
  if (not keep_going) && List.exists (fun r -> r.w_fatal) done_ then
    exit exit_fatal;
  let buf = Buffer.create 65536 in
  let map = ref [] in
  let off = ref 0 in
  List.iter
    (fun r ->
      (* keep per-file renderings line-aligned under concatenation
         so source-map offsets stay exact *)
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
      (* a single render of the whole program separates top-level
         declarations with a blank line carrying a dummy-loc map
         entry; reproduce both between files *)
      if text <> "" && Buffer.length buf > 0 then begin
        Buffer.add_char buf '\n';
        incr off;
        map := { Emit.out_line = !off; loc = Loc.dummy } :: !map
      end;
      Buffer.add_string buf text;
      List.iter
        (fun e ->
          map := { e with Emit.out_line = e.Emit.out_line + !off } :: !map)
        r.w_map;
      off := !off + count_newlines text)
    done_;
  let write_file dest contents =
    Option.iter (fun path -> write_atomic ~diag_format path (contents ())) dest
  in
  write_file sourcemap (fun () -> Emit.sourcemap_to_string (List.rev !map));
  (* zero surviving declarations render as "\n" in one shot
     ([pp_program]'s closing [@.] over an empty list) — match it *)
  deliver (if Buffer.length buf = 0 then "\n" else Buffer.contents buf);
  (* track [i] (= trace pid [i]) is input file [i], whatever order
     the workers finished in *)
  let track i r =
    (fst frags.(i), match r with Some r -> r.w_events | None -> [])
  in
  write_file trace_out (fun () ->
      Obs.chrome_trace (Array.to_list (Array.mapi track results)));
  (* a store counts the cache traffic only where the engines share
     it: under fork each worker has its own copy-on-write copy, and
     a lone shared engine counts its own *)
  publish_run
    ?store:(if per_file && not forked then store else None)
    ~jobs ~jobs_mode
    (match shared with
    | Some e -> [ Ms2.Api.stats e ]
    | None -> List.filter_map (fun r -> r.w_stats) done_);
  write_file metrics Obs.Metrics.to_json;
  if stats then print_stats ~format:stats_format ~jobs ~jobs_mode;
  report_snapshot ~stats snap_load snap_save;
  let findings =
    if not semantic_check then []
    else if per_file then List.concat_map (fun r -> r.w_findings) done_
    else Ms2.Api.check_program (List.concat (Array.to_list programs))
  in
  if findings <> [] then begin
    List.iter prerr_endline findings;
    exit exit_fatal
  end;
  if List.exists (fun r -> r.w_fatal || r.w_recovered) done_ then
    exit exit_degraded

let expand_cmd =
  let run files output stats stats_format hygienic semantic_check prelude
      trace trace_out metrics jobs fragment_jobs jobs_mode no_cache limits
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
         gives every file its own engine; --trace needs one engine shared \
         by all files)";
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
    with_fragments ~diag_format files
      (expand_batch ~jobs ~fragment_jobs ~jobs_mode ~hygienic ~prelude ~trace
         ~line_directives ?sourcemap ~semantic_check ~stats ~stats_format
         ?trace_out ?metrics ?journal ~resume ?cache_file ~limits ~keep_going
         ~cache:(not no_cache) ~diag_format
         ~deliver:(write_output ~diag_format output))
  in
  Cmd.v
    (Cmd.info "expand" ~doc:"Expand syntax macros to pure C")
    Term.(
      const run $ files_arg $ output_arg $ stats_arg $ stats_format_arg
      $ hygienic_arg $ semantic_check_arg $ prelude_arg $ trace_arg
      $ trace_out_arg $ metrics_arg $ jobs_arg $ fragment_jobs_arg
      $ jobs_mode_arg $ no_cache_arg $ limits_term $ failpoints_arg
      $ keep_going_arg $ line_directives_arg $ sourcemap_arg $ journal_arg
      $ resume_arg $ cache_file_arg $ diag_format_arg)

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  let run files no_cache limits failpoints keep_going diag_format =
    arm_failpoints failpoints;
    with_fragments ~diag_format files
      (expand_batch ~limits ~keep_going ~cache:(not no_cache) ~diag_format
         ~deliver:ignore);
    prerr_endline "ok"
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Parse, type check and expand without printing the result")
    Term.(
      const run $ files_arg $ no_cache_arg $ limits_term $ failpoints_arg
      $ keep_going_arg $ diag_format_arg)

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
  let run files output format hygienic prelude no_cache limits failpoints
      keep_going diag_format =
    arm_failpoints failpoints;
    Obs.Profile.enable ();
    (* the report replaces the expansion as what gets written *)
    let deliver _ =
      let rows = Obs.Profile.report () in
      write_output ~diag_format output
        (match format with
        | Profile_text -> Obs.Profile.report_to_text rows
        | Profile_json -> Obs.Profile.report_to_json rows)
    in
    with_fragments ~diag_format files
      (expand_batch ~hygienic ~prelude ~limits ~keep_going
         ~cache:(not no_cache) ~diag_format ~deliver)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Expand and report per-macro costs: invocation counts, \
             self/total wall time, fuel, produced nodes, cache hit rate \
             and maximum expansion depth, hottest (by self time) first.")
    Term.(
      const run $ files_arg $ output_arg $ profile_format_arg
      $ hygienic_arg $ prelude_arg $ no_cache_arg $ limits_term
      $ failpoints_arg $ keep_going_arg $ diag_format_arg)

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
