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
module Loc = Ms2_support.Loc
module Pretty = Ms2_syntax.Pretty

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
  w_map : Loc.t array;  (** per-file source map, one entry per line *)
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
    w_map = [||];
    w_findings = [];
    w_stats = None;
    w_events = [];
    w_metrics = None;
  }

type stats_format = Stats_text | Stats_json

(* Publish a driver's engine totals into the metrics registry, with the
   resolved job count ([--jobs auto] resolves to the machine's domain
   count) and the substrate taken, a one-hot pair of counters,
   Prometheus-style.  Every report — [--stats] in either format,
   [--metrics] — renders the registry after this one call. *)
let publish_run ?store ~jobs ~forked (engines : Ms2.Api.stats list) =
  Ms2.Api.publish_metrics ?store engines;
  let set name v = Obs.Metrics.set (Obs.Metrics.counter name) v in
  set "driver.jobs" jobs;
  set "driver.jobs_mode.domains" (if forked then 0 else 1);
  set "driver.jobs_mode.fork" (if forked then 1 else 0)

let print_stats ~format ~jobs ~forked =
  match format with
  | Stats_json -> prerr_endline (Obs.Metrics.to_json ())
  | Stats_text ->
      let s = Ms2.Api.published_stats () in
      Printf.eprintf "jobs: %d (%s)\n" jobs
        (if forked then "fork" else "domains");
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
          "  bypassed for: trace mode %d, armed failpoints %d, drained \
           budget %d\n"
          s.Ms2.Api.cache_bypass_trace s.Ms2.Api.cache_bypass_failpoints
          s.Ms2.Api.cache_bypass_budget;
      Printf.eprintf "FIRST-set memo: %d hits, %d misses\n"
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

(* A forked worker process, as the parent sees it: it expands the
   index written down [task] and ships the result up [result]. *)
type worker = {
  task : out_channel;
  result : in_channel;
  pid : int;
  mutable current : int;  (** the index it was last given *)
}

(* Run [work i] for every index on at most [jobs] forked workers,
   returning results in input order.  A worker expands one file at a
   time and then waits for the next index, so the heap it has grown
   serves every file it expands (a process per file took twice the
   page faults).  The parent stops handing out indices once a fatal
   result arrives and [keep_going] is off (a shared engine would never
   have reached those files), but always drains the busy workers.
   Results of indices past the first fatal one are dropped by the
   caller.  [source_of]/[render] shape the diagnostic for a worker that
   died without a result (e.g. OOM-killed): it is located at the file
   the worker was expanding, and under [keep_going] the remaining files
   go to a fresh worker.  A worker that died while idle is retired, and
   the file it was offered goes to the next worker. *)
let run_pool ~jobs ~keep_going ~(source_of : int -> string)
    ~(render : Diag.t -> string) ~(work : int -> worker_result) (n : int) :
    worker_result option array =
  let results = Array.make n None in
  let idle = ref [] and busy = ref [] in
  let next = ref 0 in
  let fatal_seen = ref false in
  (* a worker that dies while idle must not take the parent with it:
     the task write fails instead *)
  let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe sigpipe)
  @@ fun () ->
  let serve task result =
    try
      while true do
        let i = input_binary_int task in
        (* start from an empty registry, so the snapshot shipped home
           holds this file's counts only *)
        Obs.Metrics.reset ();
        let r = work i in
        (* publish like every driver, so the snapshot carries this
           file's engine counters *)
        Ms2.Api.publish_metrics (Option.to_list r.w_stats);
        Marshal.to_channel result
          { r with w_metrics = Some (Obs.Metrics.snapshot ()) }
          [];
        flush result
      done
    with End_of_file -> ()
  in
  let spawn () =
    flush stdout;
    flush stderr;
    let task_rd, task_wr = Unix.pipe () in
    let result_rd, result_wr = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
        Sys.set_signal Sys.sigpipe sigpipe;
        (* a sibling sees the end of its task pipe only once no process
           holds the write end *)
        List.iter
          (fun w -> close_out_noerr w.task; close_in_noerr w.result)
          (!idle @ !busy);
        Unix.close task_wr;
        Unix.close result_rd;
        serve
          (Unix.in_channel_of_descr task_rd)
          (Unix.out_channel_of_descr result_wr);
        exit 0
    | pid ->
        Unix.close task_rd;
        Unix.close result_wr;
        { task = Unix.out_channel_of_descr task_wr;
          result = Unix.in_channel_of_descr result_rd; pid; current = -1 }
  in
  let retire w =
    close_out_noerr w.task;
    close_in_noerr w.result;
    snd (Unix.waitpid [] w.pid)
  in
  let reap_one () =
    let fds = List.map (fun w -> Unix.descr_of_in_channel w.result) !busy in
    match Unix.select fds [] [] (-1.0) with
    | [], _, _ -> ()
    | ready_fd :: _, _, _ ->
        let w =
          List.find (fun w -> Unix.descr_of_in_channel w.result == ready_fd)
            !busy
        in
        busy := List.filter (fun w' -> w' != w) !busy;
        let r =
          match (Marshal.from_channel w.result : worker_result) with
          | r ->
              idle := w :: !idle;
              r
          | exception _ ->
              (* the worker died before shipping a result: say how, and
                 pin the diagnostic to the file it was expanding *)
              let status = retire w in
              let source = source_of w.current in
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
        results.(w.current) <- Some r
  in
  let more () = !next < n && not !fatal_seen in
  while !busy <> [] || more () do
    while more () && (!idle <> [] || List.length !busy < jobs) do
      let w, fresh =
        match !idle with
        | w :: rest ->
            idle := rest;
            (w, false)
        | [] -> (spawn (), true)
      in
      let sent =
        try output_binary_int w.task !next; flush w.task; true
        with Sys_error _ -> false
      in
      (* an idle worker that died never saw this file: the next worker
         takes it.  A fresh one that died reads as a death expanding it. *)
      if sent || fresh then begin
        w.current <- !next;
        incr next;
        busy := w :: !busy
      end
      else ignore (retire w)
    done;
    if !busy <> [] then reap_one ();
    if not (more ()) then begin
      List.iter (fun w -> ignore (retire w)) !idle;
      idle := []
    end
  done;
  results

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
       ~doc:"Expand input files with $(docv) parallel workers.  Above 1, \
             with several files, each file gets its own engine and is an \
             independent compilation unit (macro definitions do not flow \
             between files): in forked worker processes, or on a pool of \
             OCaml domains that share the store when the batch keeps one \
             ($(b,--cache-file)).  At the default 1 one engine is shared \
             by all files, in input order, and definitions do flow.  \
             $(b,0) or $(b,auto) resolves to the machine's recommended \
             domain count.  Output and diagnostics are emitted in input \
             order either way.")

(* Ignored: kept for perfbench until ROADMAP item 1 drops the flag. *)
let fragment_jobs_arg =
  Arg.(value & opt jobs_conv 1 & info [ "fragment-jobs" ] ~docv:"N"
       ~doc:"Accepted and ignored: each file expands in one sequential \
             walk.")

let no_cache_arg =
  Arg.(value & flag & info [ "no-cache" ]
       ~doc:"Ignore --cache-file: load and append no snapshot, keep no \
             expansion-cache store, and re-expand every fragment from \
             scratch.  Without --cache-file a run keeps no store anyway, \
             which makes this flag a no-op there, and always for \
             $(b,check).")

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

let cache_file_arg =
  Arg.(value & opt (some string) None & info [ "cache-file" ] ~docv:"FILE"
       ~doc:"Durable expansion-cache snapshot: load $(docv) at startup \
             (so the batch starts warm) and append each unit the run \
             stores to it the moment the unit completes, fsynced after \
             each file — so rerunning a killed batch over the same \
             $(docv) replays every file it finished.  This is what turns \
             the expansion cache on: without it a run keeps no store, \
             since nothing would read one.  A missing $(docv) is a cold \
             start without a warning; a torn final record is dropped; a \
             bit-flipped or version-skewed file degrades to a cold cache \
             with a warning counted in --stats/--metrics — never a \
             crash, never a wrong replay.  Ignored under --no-cache.")

(* Console reporting for the persistence layer. *)
let warn_snapshot_load (l : Ms2.Engine.snapshot_load) =
  match l.Ms2.Engine.ld_error with
  | Some msg ->
      Printf.eprintf
        "ms2c: warning: cache snapshot ignored (cold start): %s\n%!" msg
  | None -> ()

let report_snapshot (l : Ms2.Engine.snapshot_load) =
  Printf.eprintf
    "cache snapshot: loaded %d entries (%d dropped, %d warnings)%s\n"
    l.Ms2.Engine.ld_entries l.Ms2.Engine.ld_dropped l.Ms2.Engine.ld_warnings
    (if l.Ms2.Engine.ld_rewritten then ", rewritten" else "");
  Printf.eprintf "cache snapshot: appended %d entries\n"
    (Obs.Metrics.value (Obs.Metrics.counter "snapshot.append.entries"))

(* Load a snapshot into a shared store, sweeping temp-file orphans a
   crashed writer may have left beside it first. *)
let load_cache_file (store : Ms2.Api.shared_cache) (path : string) :
    Ms2.Engine.snapshot_load =
  ignore (Atomic_io.sweep_stale (Filename.dirname path));
  let l = Ms2.Api.load_shared_cache store path in
  warn_snapshot_load l;
  l

(* Make what the run appended so far durable.  The first failure is
   reported once per process; the log stops appending after it. *)
let sync_warned = Atomic.make false

let sync_cache_file (store : Ms2.Api.shared_cache) : unit =
  match Ms2.Engine.sync_store store with
  | Ok () -> ()
  | Error msg ->
      if not (Atomic.exchange sync_warned true) then
        Printf.eprintf "ms2c: warning: cache snapshot not saved: %s\n%!" msg

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
   - per-file: a fresh engine for each file, on a worker; see
     {!worker_result}.  This is [--jobs N] over several files.  With
     no store the files share nothing, and forked processes
     ({!run_pool}) cost less than domains (EXPERIMENTS.md, "One
     substrate per batch"); with one, a domain pool shares it, so a
     unit one file stores replays for every other.

   Everything user-visible is reassembled in input order, so output,
   diagnostics and source maps are byte-identical across [--jobs] on
   self-contained files.  Without [keep_going] the first fatal file
   ends the run (exit 1) after its diagnostics and before any output;
   with it, each file is an isolated transaction (a fatal file rolls
   back and contributes nothing) and the run exits 3.  [deliver] gets
   the stitched expansion.

   With [cache_file], each stored unit is appended to the snapshot as
   it completes and the log is fsynced after each file, whichever
   worker ran it: a killed batch, rerun over the same file, replays
   every file it finished. *)
let expand_batch ?(jobs = 1) ?(hygienic = false)
    ?(prelude = false) ?(trace = false)
    ?(line_directives = false) ?sourcemap ?(semantic_check = false)
    ?(stats = false) ?(stats_format = Stats_text) ?trace_out ?metrics
    ?cache_file ~limits ~keep_going ~diag_format ~deliver fragments =
  let frags = Array.of_list fragments in
  let n = Array.length frags in
  (* carets quote the batch's own inputs, and the prelude's text *)
  let render =
    render_diag diag_format ~text:(fun name ->
        if name = Ms2.Prelude.source_name then Some Ms2.Prelude.source
        else
          Array.find_map
            (fun (s, t) -> if s = name then Some t else None)
            frags)
  in
  let per_file = jobs > 1 && n > 1 && not trace in
  let want_map = line_directives || sourcemap <> None in
  (* a store exists only when a snapshot will read it: a one-shot run
     expands each unit once, as cpp does, so an in-process store would
     almost only be filled.  The callers pass no [cache_file] under
     --no-cache.  With one, every engine attaches the store that the
     snapshot is loaded into and appended from, and the domains share
     it, so a fragment expanded on one replays on every other and the
     counters merge. *)
  let store =
    Option.map (fun _ -> Ms2.Api.create_shared_cache ()) cache_file
  in
  (* a store is shared between workers, so only a batch without one
     forks *)
  let forked = per_file && Option.is_none store in
  (* the snapshot load and the last save point run on the driver,
     outside any file's recording: they get a trace track of their
     own *)
  let driver_events = ref [] in
  let on_driver_track f =
    if trace_out = None then f ()
    else begin
      Obs.start_recording ();
      Fun.protect f ~finally:(fun () ->
          driver_events := !driver_events @ Obs.stop_recording ())
    end
  in
  let snap_load =
    match (cache_file, store) with
    | Some path, Some s ->
        Some (on_driver_track (fun () -> load_cache_file s path))
    | _ -> None
  in
  (* a failed rewrite at load is reported here, before any file runs *)
  Option.iter sync_cache_file store;
  let create ~prelude =
    try
      Ms2.Api.create_engine ~limits ~recover:keep_going ~hygienic ~prelude
        ~cache:(store <> None) ?cache_store:store ()
    with Diag.Error d ->
      (* only a prelude load can fail (an armed failpoint), and only on
         the driver: no file can run without it *)
      prerr_endline (render d);
      exit exit_fatal
  in
  (* per-file engines start from one post-prelude checkpoint taken
     here, so the prelude loads once per batch (and is counted once);
     fork workers inherit it *)
  let prelude_engine =
    if per_file && prelude then
      Some (on_driver_track (fun () -> create ~prelude:true))
    else None
  in
  let prelude_cp = Option.map Ms2.Api.checkpoint prelude_engine in
  let new_engine () =
    let engine = create ~prelude:(prelude && not per_file) in
    Option.iter (Ms2.Api.rollback engine) prelude_cp;
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
    try
      (* deterministic stand-in for an OOM kill: a worker whose file
         matches this env var SIGKILLs itself before doing any work, so
         the parent's died-without-a-result path is testable.  Fork-only:
         in a domain the SIGKILL would take out the whole process. *)
      (match Sys.getenv_opt "MS2_TEST_WORKER_KILL" with
      | Some victim when forked && victim = source ->
          Unix.kill (Unix.getpid ()) Sys.sigkill
      | _ -> ());
      (* the recorder is domain-local (a forked worker is one domain), so
         starting it here scopes the event batch to this file *)
      if trace_out <> None then Obs.start_recording ();
      let engine = match shared with Some e -> e | None -> new_engine () in
      let u =
        Ms2.Api.expand_unit ~line_directives engine ~source text
      in
      let checked =
        if semantic_check && Option.is_none u.u_fatal then
          Option.map Lazy.force u.u_program
        else None
      in
      if not per_file then Option.iter (fun p -> programs.(i) <- p) checked;
      Option.iter sync_cache_file store;
      {
        (* the fatal diagnostic leads, then what --keep-going recovered *)
        w_diags =
          List.map render
            (Option.to_list u.u_fatal @ u.u_recovered);
        w_fatal = Option.is_some u.u_fatal;
        w_recovered = u.u_recovered <> [];
        w_out = u.u_output;
        (* the map rides the result pipe only when wanted *)
        w_map = (if want_map then Lazy.force u.u_map else [||]);
        w_findings =
          (match checked with
          | Some p when per_file -> Ms2.Api.check_program p
          | _ -> []);
        (* a shared engine's cumulative counters are published once *)
        w_stats = (if per_file then Some (Ms2.Api.stats engine) else None);
        w_events =
          (if trace_out = None then [] else Obs.stop_recording ());
        w_metrics = None;
      }
    with e ->
      (* a bug, not a diagnostic: the file fails alone *)
      lost_result
        (render
           (Diag.make ~loc:(file_start_loc source) Diag.Expansion
              (Printf.sprintf "internal error expanding %s: %s" source
                 (Printexc.to_string e))))
  in
  let results =
    if forked then
      run_pool ~jobs ~keep_going ~source_of:(fun i -> fst frags.(i)) ~render
        ~work n
    else
      (* the domain pool: a free domain takes the next file.  At one
         job every file runs inline, in input order: the shared
         engine's loop.  Without [keep_going] a fatal result cancels
         only the files after it in input order, so the first fatal one
         is where an input-order run stops. *)
      Pool.map
        ~jobs:(if per_file then jobs else 1)
        ~stop:(fun r -> r.w_fatal && not keep_going)
        n work
  in
  (* the last save point, before any exit path: a fatal batch's warm
     entries are worth keeping too *)
  Option.iter (fun s -> on_driver_track (fun () -> sync_cache_file s)) store;
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
  let maps = ref [] in
  List.iter
    (fun r ->
      (* an empty program renders as a lone newline; under
         concatenation it contributes no declarations, hence no lines.
         Any other rendering ends with a newline, and its map has one
         entry per line, so the maps concatenate as the texts do. *)
      let text = if r.w_out = "\n" then "" else r.w_out in
      (* a single render of the whole program separates top-level
         declarations with a blank line carrying a dummy-loc map
         entry; reproduce both between files *)
      if text <> "" && Buffer.length buf > 0 then begin
        Buffer.add_char buf '\n';
        maps := [| Loc.dummy |] :: !maps
      end;
      Buffer.add_string buf text;
      maps := r.w_map :: !maps)
    done_;
  let write_file dest contents =
    Option.iter (fun path -> write_atomic ~diag_format path (contents ())) dest
  in
  write_file sourcemap (fun () ->
      Pretty.sourcemap_to_string (Array.concat (List.rev !maps)));
  (* zero surviving declarations render as "\n" in one shot
     (the lone newline of an empty program) — match it *)
  deliver (if Buffer.length buf = 0 then "\n" else Buffer.contents buf);
  (* track [i] (= trace pid [i]) is input file [i], whatever order
     the workers finished in; the driver's track, when it recorded
     anything, comes after the files *)
  let track i r =
    (fst frags.(i), match r with Some r -> r.w_events | None -> [])
  in
  let driver =
    if !driver_events = [] then [] else [ ("driver", !driver_events) ]
  in
  write_file trace_out (fun () ->
      Obs.chrome_trace (Array.to_list (Array.mapi track results) @ driver));
  (* a store counts the cache traffic of per-file engines, which share
     it; a lone shared engine counts its own *)
  publish_run
    ?store:(if per_file then store else None)
    ~jobs ~forked
    (List.map Ms2.Api.stats (Option.to_list prelude_engine)
    @
    match shared with
    | Some e -> [ Ms2.Api.stats e ]
    | None -> List.filter_map (fun r -> r.w_stats) done_);
  write_file metrics Obs.Metrics.to_json;
  if stats then print_stats ~format:stats_format ~jobs ~forked;
  (* the JSON document already carries the snapshot.* counters *)
  if stats && stats_format = Stats_text then
    Option.iter report_snapshot snap_load;
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
      trace trace_out metrics jobs _fragment_jobs no_cache limits
      failpoints keep_going line_directives sourcemap cache_file diag_format
      =
    arm_failpoints failpoints;
    with_fragments ~diag_format files
      (expand_batch ~jobs:(resolve_jobs jobs) ~hygienic ~prelude ~trace
         ~line_directives ?sourcemap ~semantic_check ~stats ~stats_format
         ?trace_out ?metrics
         ?cache_file:(if no_cache then None else cache_file)
         ~limits ~keep_going ~diag_format
         ~deliver:(write_output ~diag_format output))
  in
  Cmd.v
    (Cmd.info "expand" ~doc:"Expand syntax macros to pure C")
    Term.(
      const run $ files_arg $ output_arg $ stats_arg $ stats_format_arg
      $ hygienic_arg $ semantic_check_arg $ prelude_arg $ trace_arg
      $ trace_out_arg $ metrics_arg $ jobs_arg $ fragment_jobs_arg
      $ no_cache_arg $ limits_term $ failpoints_arg
      $ keep_going_arg $ line_directives_arg $ sourcemap_arg $ cache_file_arg
      $ diag_format_arg)

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  (* [--no-cache] is accepted and changes nothing: check takes no
     --cache-file, so it never keeps a store *)
  let run files _no_cache limits failpoints keep_going diag_format =
    arm_failpoints failpoints;
    with_fragments ~diag_format files
      (expand_batch ~limits ~keep_going ~diag_format ~deliver:ignore);
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
  let run files output format hygienic prelude no_cache cache_file limits
      failpoints keep_going diag_format =
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
      (expand_batch ~hygienic ~prelude
         ?cache_file:(if no_cache then None else cache_file)
         ~limits ~keep_going ~diag_format ~deliver)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Expand and report per-macro costs: invocation counts, \
             self/total wall time, fuel, produced nodes, cache hit rate \
             (non-zero only with a warm --cache-file, the one way a run \
             keeps a store) and maximum expansion depth, hottest (by \
             self time) first.")
    Term.(
      const run $ files_arg $ output_arg $ profile_format_arg
      $ hygienic_arg $ prelude_arg $ no_cache_arg $ cache_file_arg
      $ limits_term $ failpoints_arg $ keep_going_arg $ diag_format_arg)

(* ------------------------------------------------------------------ *)
(* figures                                                             *)
(* ------------------------------------------------------------------ *)

let figures_cmd =
  let run () = print_string (Ms2.Figures.to_text ()) in
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
