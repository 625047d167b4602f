(** Benchmark and figure-regeneration harness.

    Usage: [dune exec bench/main.exe] (everything), or with an argument:
    - [figures]  — regenerate the paper's Figures 1-3;
    - [time]     — Bechamel micro-benchmarks (one per experiment table);
    - [sweep]    — scaling sweeps (enum size, macro nesting depth);
    - [penalty]  — the compile-time-penalty table (expansion vs. the
      parse of already-expanded code: the cost the paper says macros
      trade for zero runtime cost).

    The paper's evaluation is qualitative (Figures 1-3 plus worked
    examples); the quantitative tables here measure the implied claims:
    macro processing is a compile-time-only cost, expansion scales
    linearly, and token substitution (CPP) is cheaper but unsafe. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let rule title = Printf.printf "\n%s\n%s\n" title (String.make 72 '-')

let run_figures () =
  rule "Figure 1: two-dimensional categorization of macro systems";
  Printf.printf "  %-28s %-14s %-30s %-26s %s\n" "Programmability \\ Basis"
    "Character" "Token" "Syntax" "Semantic";
  List.iter
    (fun (r : Ms2.Figures.fig1_row) ->
      Printf.printf "  %-28s %-14s %-30s %-26s %s\n" r.programmability
        r.character r.token r.syntax r.semantic)
    Ms2.Figures.figure1_table;
  Printf.printf "\n  Live witnesses:\n";
  Printf.printf
    "    character substitution (RE = x on \"int CORE = RE;\"):\n\
    \      %s   <- corrupts the unrelated identifier\n"
    (Ms2.Figures.char_witness ());
  Printf.printf "    MUL(A, B) = A * B on A = x + y, B = m + n:\n";
  Printf.printf "      token substitution (ms2.cpp): %s   <- wrong parse\n"
    (Ms2.Figures.cpp_witness ());
  Printf.printf
    "      syntax macros (ms2.core):     %s   <- tree-level safety\n"
    (Ms2.Figures.ms2_witness ());

  rule "Figure 2: parses of the template `[int $y;] by the AST type of y";
  Printf.printf "  %-20s %s\n" "AST type of y" "Parse";
  List.iter
    (fun (ty, parse) -> Printf.printf "  %-20s %s\n" ty parse)
    (Ms2.Figures.figure2 ());

  rule
    "Figure 3: parses of `{int x; $ph1 $ph2 return(x);} by placeholder \
     types";
  Printf.printf "  %-6s %-6s %s\n" "ph1" "ph2" "Parse";
  List.iter
    (fun (t1, t2, parse) -> Printf.printf "  %-6s %-6s %s\n" t1 t2 parse)
    (Ms2.Figures.figure3 ())

(* ------------------------------------------------------------------ *)
(* Bechamel plumbing                                                   *)
(* ------------------------------------------------------------------ *)

let quota =
  match Sys.getenv_opt "MS2_BENCH_QUOTA" with
  | Some s -> float_of_string s
  | None -> 0.5

(* BENCH_*.json trackers are published atomically: render into a
   same-directory temp file, then rename it into place (the same
   contract as {!Ms2_support.Atomic_io}), so an interrupted bench run
   never leaves a truncated tracker where the previous good one was. *)
let open_tracker path = open_out (path ^ ".tmp")

let close_tracker path oc =
  close_out oc;
  Sys.rename (path ^ ".tmp") path

let measure_tests tests =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  Analyze.all ols Instance.monotonic_clock raw

(* estimated ns/run for each test, sorted by name *)
let estimates results : (string * float) list =
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> (name, est) :: acc
      | _ -> acc)
    results []
  |> List.sort compare

let pp_time ppf ns =
  if ns >= 1e9 then Fmt.pf ppf "%8.2f s " (ns /. 1e9)
  else if ns >= 1e6 then Fmt.pf ppf "%8.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Fmt.pf ppf "%8.2f us" (ns /. 1e3)
  else Fmt.pf ppf "%8.2f ns" ns

let print_estimates title results =
  rule title;
  List.iter
    (fun (name, est) -> Fmt.pr "  %-48s %a/run\n" name pp_time est)
    (estimates results)

(* ------------------------------------------------------------------ *)
(* Workload runners                                                    *)
(* ------------------------------------------------------------------ *)

let expand_run src () =
  match Ms2.Api.expand_string src with
  | Ok out -> Sys.opaque_identity (String.length out)
  | Error e -> failwith e

let parse_run src () =
  Sys.opaque_identity
    (List.length (Ms2_parser.Parser.program_of_string src))

let lex_run src () =
  Sys.opaque_identity (Array.length (Ms2_syntax.Lexer.tokenize src))

(* ------------------------------------------------------------------ *)
(* T1: pipeline stage costs on each paper example                      *)
(* ------------------------------------------------------------------ *)

let t1_tests () =
  let painting = Workloads.painting 8 in
  let myenum = Workloads.myenum 8 in
  let exceptions = Workloads.exceptions 4 in
  Test.make_grouped ~name:"T1"
    [ Test.make ~name:"lex: myenum source" (Staged.stage (lex_run myenum));
      Test.make ~name:"parse+check: myenum source"
        (Staged.stage (parse_run myenum));
      Test.make ~name:"expand: Painting x8"
        (Staged.stage (expand_run painting));
      Test.make ~name:"expand: myenum (8 constants)"
        (Staged.stage (expand_run myenum));
      Test.make ~name:"expand: exceptions x4"
        (Staged.stage (expand_run exceptions)) ]

(* ------------------------------------------------------------------ *)
(* T2: token substitution (CPP) vs syntax macros (MS2), Figure 1 row   *)
(* ------------------------------------------------------------------ *)

let t2_tests () =
  let n = 32 in
  let ms2_src = Workloads.mul_ms2 n in
  let cpp_input = Workloads.mul_cpp_input n in
  let cpp_run () =
    let cpp = Ms2_cpp.Cpp.create () in
    Ms2_cpp.Cpp.define_function cpp "MUL" [ "A"; "B" ]
      (Ms2_cpp.Cpp.tokenize "A * B");
    Sys.opaque_identity
      (String.length (Ms2_cpp.Cpp.expand_string cpp cpp_input))
  in
  Test.make_grouped ~name:"T2"
    [ Test.make ~name:"cpp token substitution: MUL x32 (unsafe)"
        (Staged.stage cpp_run);
      Test.make ~name:"ms2 syntax macros: MUL x32 (tree-safe)"
        (Staged.stage (expand_run ms2_src)) ]

(* ------------------------------------------------------------------ *)
(* T3: scaling sweeps                                                  *)
(* ------------------------------------------------------------------ *)

let t3_tests () =
  let enum_sizes = [ 1; 4; 16; 64 ] in
  let depths = [ 1; 4; 16; 64 ] in
  let macro_counts = [ 1; 16; 64; 256 ] in
  Test.make_grouped ~name:"T3"
    (List.map
       (fun n ->
         Test.make
           ~name:(Printf.sprintf "expand: myenum with %3d constants" n)
           (Staged.stage (expand_run (Workloads.myenum n))))
       enum_sizes
    @ List.map
        (fun d ->
          Test.make
            ~name:(Printf.sprintf "expand: Painting nested %3d deep" d)
            (Staged.stage (expand_run (Workloads.painting_nested d))))
        depths
    @ List.map
        (fun n ->
          Test.make
            ~name:(Printf.sprintf "define: %3d macros" n)
            (Staged.stage (expand_run (Workloads.many_macros n))))
        macro_counts)

(* ------------------------------------------------------------------ *)
(* Penalty: expansion vs parsing the pre-expanded code                 *)
(* ------------------------------------------------------------------ *)

let penalty_names = [ "Painting x8"; "myenum (8)"; "exceptions x4" ]

let penalty_tests () =
  let pairs =
    [ ("Painting x8", Workloads.painting 8);
      ("myenum (8)", Workloads.myenum 8);
      ("exceptions x4", Workloads.exceptions 4) ]
  in
  Test.make_grouped ~name:"penalty"
    (List.concat_map
       (fun (name, src) ->
         let pure_c = Workloads.expanded_form src in
         [ Test.make ~name:(name ^ ": macro pipeline")
             (Staged.stage (expand_run src));
           Test.make ~name:(name ^ ": parse expanded C")
             (Staged.stage (parse_run pure_c)) ])
       pairs)

let run_penalty () =
  let results = measure_tests (penalty_tests ()) in
  print_estimates
    "Compile-time penalty (paper: abstraction costs compile time, zero run \
     time)"
    results;
  let ests = estimates results in
  let find suffix name =
    List.assoc_opt ("penalty/" ^ name ^ ": " ^ suffix) ests
  in
  rule "Derived: expansion overhead over parsing the already-expanded C";
  List.iter
    (fun name ->
      match (find "macro pipeline" name, find "parse expanded C" name) with
      | Some m, Some p when p > 0. ->
          Printf.printf "  %-20s %.2fx\n" name (m /. p)
      | _, _ -> ())
    penalty_names

(* ------------------------------------------------------------------ *)
(* Ablation: compiled pattern parsers (paper §3's suggested speedup)   *)
(* ------------------------------------------------------------------ *)

let ablation_tests () =
  let src = Workloads.mul_ms2 64 in
  let run ~compile_patterns () =
    let engine = Ms2.Engine.create ~compile_patterns () in
    match Ms2.Api.expand ~source:"bench" engine src with
    | Ok out -> Sys.opaque_identity (String.length out)
    | Error e -> failwith e
  in
  let hygiene_src = Workloads.exceptions 4 in
  let run_hygiene ~hygienic () =
    let engine = Ms2.Engine.create ~hygienic () in
    match Ms2.Api.expand ~source:"bench" engine hygiene_src with
    | Ok out -> Sys.opaque_identity (String.length out)
    | Error e -> failwith e
  in
  Test.make_grouped ~name:"ablation"
    [ Test.make ~name:"MUL x64, interpreted patterns"
        (Staged.stage (run ~compile_patterns:false));
      Test.make ~name:"MUL x64, compiled patterns"
        (Staged.stage (run ~compile_patterns:true));
      Test.make ~name:"exceptions x4, hygiene off"
        (Staged.stage (run_hygiene ~hygienic:false));
      Test.make ~name:"exceptions x4, hygiene on"
        (Staged.stage (run_hygiene ~hygienic:true)) ]

(* ------------------------------------------------------------------ *)
(* perf: throughput-engine trajectory (cache, interning, parallelism)  *)
(* ------------------------------------------------------------------ *)

(* The perf mode records the throughput work in one machine-readable
   file, BENCH_PERF.json:

   - hot-path ns/run: lexing (interned identifiers), the wide-struct
     field-lookup workload (interned-key indexes), the memoized
     [Engine.fingerprint], and repeated-fragment expansion with the
     cache on (replay) vs off (full pipeline);
   - cache effectiveness: hit rate over repeated fragments on one
     engine, and the uncached clean-path overhead (fresh engines, cache
     on-but-all-misses vs cache compiled out);
   - the multi-file speedup curve: an 8-file corpus pushed through
     [ms2c expand --jobs N] for N = 1, 2, 4, wall-clock, with the
     machine's CPU count recorded alongside (speedup is bounded by the
     cores actually present). *)

let perf_hot_tests () =
  let wide = Workloads.wide_struct 64 in
  let uses = Workloads.painting_uses 8 in
  (* the repeated-fragment pair: definitions once per session, the same
     uses-fragment over and over — replay vs the full pipeline *)
  let warm cache =
    let engine = Ms2.Engine.create ~cache () in
    (match Ms2.Api.expand ~source:"defs" engine Workloads.painting_defs with
    | Ok _ -> ()
    | Error e -> failwith e);
    (match Ms2.Api.expand ~source:"uses" engine uses with
    | Ok _ -> ()
    | Error e -> failwith e);
    engine
  in
  let cached_engine = warm true in
  let uncached_engine = warm false in
  let repeat engine () =
    match Ms2.Api.expand ~source:"uses" engine uses with
    | Ok out -> Sys.opaque_identity (String.length out)
    | Error e -> failwith e
  in
  let replay_run = repeat cached_engine in
  let uncached_run = repeat uncached_engine in
  let fp_engine = Ms2.Engine.create () in
  (match
     Ms2.Api.expand ~source:"fp" fp_engine (Workloads.many_macros 64)
   with
  | Ok _ -> ()
  | Error e -> failwith e);
  let fingerprint_run () =
    Sys.opaque_identity (String.length (Ms2.Engine.fingerprint fp_engine))
  in
  Test.make_grouped ~name:"perf"
    [ Test.make ~name:"lex: myenum source"
        (Staged.stage (lex_run (Workloads.myenum 8)));
      Test.make ~name:"expand: wide struct (64 fields)"
        (Staged.stage (expand_run wide));
      Test.make ~name:"fingerprint: 64-macro session (memoized)"
        (Staged.stage fingerprint_run);
      Test.make ~name:"repeated fragment: cache replay"
        (Staged.stage replay_run);
      Test.make ~name:"repeated fragment: cache off"
        (Staged.stage uncached_run) ]

(* Uncached clean-path overhead: fresh engine per run, every fragment a
   miss (the cache works but never hits), vs the cache compiled out. *)
let perf_miss_tests () =
  let src = Workloads.myenum 16 in
  let run ~cache () =
    let engine = Ms2.Engine.create ~cache () in
    match Ms2.Api.expand ~source:"bench" engine src with
    | Ok out -> Sys.opaque_identity (String.length out)
    | Error e -> failwith e
  in
  Test.make_grouped ~name:"perf-miss"
    [ Test.make ~name:"clean path: cache off"
        (Staged.stage (run ~cache:false));
      Test.make ~name:"clean path: cache on (all misses)"
        (Staged.stage (run ~cache:true)) ]

(* Cache hit rate over a repeated-fragment session, counted exactly. *)
let perf_hit_rate repeats =
  let engine = Ms2.Engine.create () in
  (match
     Ms2.Api.expand ~source:"defs" engine Workloads.painting_defs
   with
  | Ok _ -> ()
  | Error e -> failwith e);
  let uses = "int draw(int hDC)\n{\n  Painting { line(1, 2); }\n  return 0;\n}\n" in
  for _ = 1 to repeats do
    match Ms2.Api.expand ~source:"uses" engine uses with
    | Ok _ -> ()
    | Error e -> failwith e
  done;
  let s = Ms2.Api.stats engine in
  let total = s.Ms2.Api.cache_hits + s.Ms2.Api.cache_misses in
  ( s.Ms2.Api.cache_hits,
    s.Ms2.Api.cache_misses,
    if total = 0 then 0.
    else float_of_int s.Ms2.Api.cache_hits /. float_of_int total )

(* Wall-clock for [ms2c expand --jobs n] over a generated corpus. *)
let nproc () =
  let ic = Unix.open_process_in "getconf _NPROCESSORS_ONLN 2>/dev/null" in
  let n =
    try int_of_string (String.trim (input_line ic)) with _ -> 1
  in
  (match Unix.close_process_in ic with _ -> ());
  max 1 n

let ms2c_path () =
  let candidates =
    [ "_build/default/bin/ms2c.exe"; "../bin/ms2c.exe"; "bin/ms2c.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> "ms2c"

let perf_speedup ~files ~jobs_mode ~jobs_list =
  let dir = Filename.temp_file "ms2perf" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let paths =
    List.init files (fun i ->
        let p = Filename.concat dir (Printf.sprintf "f%d.mc" i) in
        let oc = open_out p in
        (* per-file definitions + enough invocations that expansion
           dominates process startup *)
        output_string oc (Workloads.myenum 24);
        output_string oc (Workloads.painting 24);
        close_out oc;
        p)
  in
  let ms2c = ms2c_path () in
  let args = String.concat " " paths in
  let time_one jobs =
    (* best of three: wall-clock minimum is the least noisy estimator
       on a shared machine *)
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      let code =
        Sys.command
          (Printf.sprintf "%s expand --jobs %d --jobs-mode=%s %s > /dev/null 2>&1"
             ms2c jobs jobs_mode args)
      in
      if code <> 0 then failwith "perf corpus failed to expand";
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let curve = List.map (fun j -> (j, time_one j)) jobs_list in
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths;
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  curve

(* Intra-file fragment parallelism: one large translation unit timed
   sequentially and with speculative fragment workers, plus the
   speculation ledger (speculated / committed / revalidated) of an
   instrumented parallel run.  The corpus is all pure fragments behind
   one definition barrier, so the abort rate measures validation
   overhead, not crafted conflicts. *)
let perf_fragments ~cpus ~fragments ~jobs_list =
  let file = Filename.temp_file "ms2frag" ".mc" in
  let oc = open_out file in
  output_string oc (Workloads.fragment_corpus fragments);
  close_out oc;
  let ms2c = ms2c_path () in
  let time_one jobs =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      let code =
        Sys.command
          (Printf.sprintf "%s expand --fragment-jobs %d %s > /dev/null 2>&1"
             ms2c jobs file)
      in
      if code <> 0 then failwith "fragment corpus failed to expand";
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  (* a single-core machine can only show scheduling overhead, so the
     speedup curve is skipped there (same gate as the multi-file
     curve); the speculation ledger is still collected — the engine
     runs the full speculative pipeline regardless of core count *)
  let curve =
    if cpus < 2 then None
    else Some (List.map (fun j -> (j, time_one j)) jobs_list)
  in
  let err = Filename.temp_file "ms2frag" ".err" in
  let code =
    Sys.command
      (Printf.sprintf
         "%s expand --fragment-jobs %d --stats --stats-format=json %s \
          > /dev/null 2> %s"
         ms2c
         (List.fold_left max 2 jobs_list)
         file err)
  in
  if code <> 0 then failwith "fragment stats run failed";
  let ic = open_in_bin err in
  let stats =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove err;
  Sys.remove file;
  let metric name =
    let key = Printf.sprintf "\"%s\": " name in
    let kl = String.length key and m = String.length stats in
    let rec find i =
      if i + kl > m then
        failwith (Printf.sprintf "fragment stats: %s not reported" name)
      else if String.sub stats i kl = key then i + kl
      else find (i + 1)
    in
    let i = find 0 in
    let j = ref i in
    while
      !j < m && (match stats.[!j] with '0' .. '9' -> true | _ -> false)
    do
      incr j
    done;
    int_of_string (String.sub stats i (!j - i))
  in
  ( curve,
    metric "fragments.speculated",
    metric "fragments.committed",
    metric "fragments.revalidated" )

let run_perf () =
  let hot = measure_tests (perf_hot_tests ()) in
  print_estimates "perf: hot paths (interning, memoized fingerprint, cache)"
    hot;
  let miss = measure_tests (perf_miss_tests ()) in
  print_estimates "perf: uncached clean-path overhead (~5% typical)" miss;
  let hot_ests = estimates hot in
  let miss_ests = estimates miss in
  let hits, misses, rate = perf_hit_rate 50 in
  rule "Derived: cache hit rate on repeated fragments (>=80% target)";
  Printf.printf "  hits %d, misses %d -> %.1f%%\n" hits misses (rate *. 100.);
  (* Re-baselined: the original <5% target assumed the quiet boxes of
     the first measurements.  The store path itself costs ~5% (key
     digests, the post-run checkpoint, entry retention) after the
     per-miss shard-sweep refresh of the eviction counter was moved to
     the stats readers — that sweep alone had regressed this to ~25%.
     On loaded shared runners the two sub-300us measurements jitter
     independently, so CI asserts a noise-tolerant <15% bound on this
     figure rather than the typical value. *)
  let miss_overhead =
    match
      ( List.assoc_opt "perf-miss/clean path: cache on (all misses)" miss_ests,
        List.assoc_opt "perf-miss/clean path: cache off" miss_ests )
    with
    | Some on, Some off when off > 0. -> ((on -. off) /. off) *. 100.
    | _ -> nan
  in
  Printf.printf "  uncached clean-path overhead: %+.2f%%\n" miss_overhead;
  let cpus = nproc () in
  let jobs_mode = "domains" in
  rule
    (Printf.sprintf
       "Derived: multi-file speedup, 8-file corpus (machine has %d CPU%s)"
       cpus
       (if cpus = 1 then "" else "s"));
  (* on a single-core machine the curve can only show scheduling
     overhead (a misleading <1x "speedup"), so the gate is explicitly
     skipped rather than reported *)
  let curve =
    if cpus < 2 then begin
      Printf.printf
        "  skipped: %d CPU — a parallel speedup cannot be observed here\n"
        cpus;
      None
    end
    else begin
      let jobs_list = [ 1; 2; 4 ] in
      let curve = perf_speedup ~files:8 ~jobs_mode ~jobs_list in
      let t1 = List.assoc 1 curve in
      List.iter
        (fun (j, t) ->
          Printf.printf "  --jobs %d   %7.1f ms   %.2fx\n" j (t *. 1000.)
            (t1 /. t))
        curve;
      Some (curve, t1)
    end
  in
  let frag_count = 500 in
  rule
    (Printf.sprintf
       "Derived: intra-file fragment speedup, %d-fragment unit \
        (--fragment-jobs)"
       frag_count);
  let frag_curve, frag_spec, frag_committed, frag_revalidated =
    perf_fragments ~cpus ~fragments:frag_count ~jobs_list:[ 1; 2; 4 ]
  in
  let frag_abort_rate =
    if frag_spec = 0 then 0.
    else 100. *. float_of_int frag_revalidated /. float_of_int frag_spec
  in
  (match frag_curve with
  | None ->
      Printf.printf
        "  speedup skipped: %d CPU — a parallel speedup cannot be observed \
         here\n"
        cpus
  | Some curve ->
      let t1 = List.assoc 1 curve in
      List.iter
        (fun (j, t) ->
          Printf.printf "  --fragment-jobs %d   %7.1f ms   %.2fx\n" j
            (t *. 1000.) (t1 /. t))
        curve);
  Printf.printf
    "  speculation: %d speculated, %d committed, %d revalidated \
     (%.1f%% abort rate)\n"
    frag_spec frag_committed frag_revalidated frag_abort_rate;
  (* machine-readable record *)
  let oc = open_tracker "BENCH_PERF.json" in
  Printf.fprintf oc "{\n  \"quota_s\": %g,\n  \"cpus\": %d,\n" quota cpus;
  Printf.fprintf oc "  \"jobs_mode\": %S,\n" jobs_mode;
  Printf.fprintf oc "  \"hot_paths_ns_per_run\": {\n";
  let n_hot = List.length hot_ests in
  List.iteri
    (fun i (name, est) ->
      Printf.fprintf oc "    %S: %.1f%s\n" name est
        (if i = n_hot - 1 then "" else ","))
    hot_ests;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc
    "  \"repeated_fragments\": {\"repeats\": 50, \"cache_hits\": %d, \
     \"cache_misses\": %d, \"hit_rate_percent\": %.1f},\n"
    hits misses (rate *. 100.);
  Printf.fprintf oc "  \"uncached_overhead_percent\": %.2f,\n" miss_overhead;
  (match curve with
  | None ->
      Printf.fprintf oc "  \"parallel_speedup\": \"skipped\",\n";
      Printf.fprintf oc
        "  \"parallel_speedup_skip_reason\": \"machine has %d cpu\",\n" cpus
  | Some (curve, t1) ->
      Printf.fprintf oc "  \"parallel_speedup\": [\n";
      let n_curve = List.length curve in
      List.iteri
        (fun i (j, t) ->
          Printf.fprintf oc
            "    {\"jobs\": %d, \"wall_ms\": %.1f, \"speedup\": %.2f}%s\n" j
            (t *. 1000.) (t1 /. t)
            (if i = n_curve - 1 then "" else ","))
        curve;
      Printf.fprintf oc "  ],\n");
  Printf.fprintf oc "  \"fragments\": {\n";
  Printf.fprintf oc "    \"fragment_count\": %d,\n" frag_count;
  Printf.fprintf oc
    "    \"speculated\": %d,\n    \"committed\": %d,\n    \
     \"revalidated\": %d,\n"
    frag_spec frag_committed frag_revalidated;
  Printf.fprintf oc "    \"abort_rate_percent\": %.2f,\n" frag_abort_rate;
  (match frag_curve with
  | None ->
      Printf.fprintf oc "    \"speedup\": \"skipped\",\n";
      Printf.fprintf oc
        "    \"speedup_skip_reason\": \"machine has %d cpu\"\n" cpus
  | Some curve ->
      let t1 = List.assoc 1 curve in
      Printf.fprintf oc "    \"speedup\": [\n";
      let n_curve = List.length curve in
      List.iteri
        (fun i (j, t) ->
          Printf.fprintf oc
            "      {\"fragment_jobs\": %d, \"wall_ms\": %.1f, \"speedup\": \
             %.2f}%s\n"
            j (t *. 1000.) (t1 /. t)
            (if i = n_curve - 1 then "" else ","))
        curve;
      Printf.fprintf oc "    ]\n");
  Printf.fprintf oc "  }\n";
  Printf.fprintf oc "}\n";
  close_tracker "BENCH_PERF.json" oc;
  Printf.printf "\n  (written to BENCH_PERF.json)\n"

(* ------------------------------------------------------------------ *)
(* Observability overhead                                               *)
(* ------------------------------------------------------------------ *)

(* The telemetry layer's contract is zero overhead when disabled: every
   span site is one flag test, every hot-path metric one unconditional
   increment.  A single binary cannot race its own uninstrumented twin,
   so the disabled-sink overhead is *derived*: measure the per-call cost
   of a disabled [with_span] guard and of a counter increment in
   isolation, count how many of each a workload run executes (record one
   run for the span count; read the hot-path counters for the increment
   count), and express the product as a fraction of the workload's
   measured time.  The recording-enabled cost is measured directly
   (per-run start/stop, so the event buffer never grows unbounded). *)

module Obs = Ms2_support.Obs

let obs_pairs () =
  [ ("myenum (32 constants)", Workloads.myenum 32);
    ("Painting x32", Workloads.painting 32);
    ("Painting nested 16 deep", Workloads.painting_nested 16) ]

let obs_tests () =
  let run src () =
    let engine = Ms2.Engine.create () in
    match Ms2.Api.expand ~source:"bench" engine src with
    | Ok out -> Sys.opaque_identity (String.length out)
    | Error e -> failwith e
  in
  let run_rec src () =
    Obs.start_recording ();
    let r = run src () in
    ignore (Obs.stop_recording ());
    r
  in
  Test.make_grouped ~name:"obs"
    (List.concat_map
       (fun (name, src) ->
         [ Test.make ~name:(name ^ ": sinks disabled")
             (Staged.stage (run src));
           Test.make ~name:(name ^ ": recording on")
             (Staged.stage (run_rec src)) ])
       (obs_pairs ()))

let obs_guard_tests () =
  let c = Obs.Metrics.counter "bench.obs.incr" in
  Test.make_grouped ~name:"obs-guard"
    [ Test.make ~name:"disabled with_span guard"
        (Staged.stage (fun () ->
             Obs.with_span ~cat:"bench" "noop" (fun () ->
                 Sys.opaque_identity 0)));
      Test.make ~name:"counter increment"
        (Staged.stage (fun () -> Obs.Metrics.incr c)) ]

(* The counters the pipeline increments unconditionally on hot paths. *)
let obs_hot_counters =
  [ "fill.templates"; "parser.pattern_memo.hits";
    "parser.pattern_memo.misses"; "pattern.firstset.memo_hits";
    "pattern.firstset.memo_misses"; "watchdog.clock_reads" ]

(* (span sites crossed, counter increments) during one workload run *)
let obs_site_counts src =
  let sum () =
    List.fold_left
      (fun a n -> a + Obs.Metrics.value (Obs.Metrics.counter n))
      0 obs_hot_counters
  in
  let c0 = sum () in
  Obs.start_recording ();
  let engine = Ms2.Engine.create () in
  (match Ms2.Api.expand ~source:"bench" engine src with
  | Ok _ -> ()
  | Error e -> failwith e);
  let events = Obs.stop_recording () in
  (List.length events, sum () - c0)

(* The disabled/recording pairs are measured [obs_rounds] times and
   merged by per-test {e minimum}: timing noise on a shared machine
   (GC slices, CPU contention) is strictly additive, so best-of-N
   tracks the true cost where a single estimate can swing the derived
   overhead by tens of percent either way — far outside any gate. *)
let obs_rounds = 3

let min_estimates (rounds : (string * float) list list) :
    (string * float) list =
  List.fold_left
    (fun acc ests ->
      List.map
        (fun (name, v) ->
          match List.assoc_opt name acc with
          | Some v0 -> (name, Float.min v0 v)
          | None -> (name, v))
        ests)
    (List.hd rounds) rounds

let run_obs () =
  Obs.Profile.disable ();
  let rounds =
    List.init obs_rounds (fun _ -> estimates (measure_tests (obs_tests ())))
  in
  let ests = min_estimates rounds in
  rule
    "Observability overhead (sinks disabled vs recording on, best of 3)";
  List.iter
    (fun (name, est) -> Fmt.pr "  %-48s %a/run\n" name pp_time est)
    ests;
  let guard = measure_tests (obs_guard_tests ()) in
  print_estimates "Disabled-sink site costs" guard;
  let guard_ests = estimates guard in
  let site name = Option.value ~default:0. (List.assoc_opt name guard_ests) in
  let guard_ns = site "obs-guard/disabled with_span guard" in
  let incr_ns = site "obs-guard/counter increment" in
  rule "Derived: disabled-sink overhead (<=2% target) and recording cost";
  let rows =
    List.filter_map
      (fun (name, src) ->
        let find suffix =
          List.assoc_opt ("obs/" ^ name ^ ": " ^ suffix) ests
        in
        match (find "sinks disabled", find "recording on") with
        | Some off, Some on when off > 0. ->
            let spans, incrs = obs_site_counts src in
            let disabled_pct =
              ((guard_ns *. float_of_int spans)
              +. (incr_ns *. float_of_int incrs))
              /. off *. 100.
            in
            let rec_pct = (on -. off) /. off *. 100. in
            Printf.printf
              "  %-34s disabled %+.4f%%   recording %+.1f%%   (%d spans, \
               %d increments)\n"
              name disabled_pct rec_pct spans incrs;
            Some (name, off, on, spans, incrs, disabled_pct, rec_pct)
        | _, _ -> None)
      (obs_pairs ())
  in
  let oc = open_tracker "BENCH_OBS.json" in
  Printf.fprintf oc
    "{\n  \"quota_s\": %g,\n  \"guard_ns_per_call\": %.2f,\n  \
     \"counter_incr_ns_per_call\": %.2f,\n  \"workloads\": [\n"
    quota guard_ns incr_ns;
  List.iteri
    (fun i (name, off, on, spans, incrs, disabled_pct, rec_pct) ->
      Printf.fprintf oc
        "    {\"name\": %S, \"ns_per_run\": %.1f, \
         \"ns_per_run_recording\": %.1f, \"span_sites\": %d, \
         \"counter_increments\": %d, \"disabled_overhead_percent\": %.4f, \
         \"recording_overhead_percent\": %.2f}%s\n"
        name off on spans incrs disabled_pct rec_pct
        (if i = List.length rows - 1 then "" else ","))
    rows;
  let mean f =
    match rows with
    | [] -> 0.
    | _ ->
        List.fold_left (fun a r -> a +. f r) 0. rows
        /. float_of_int (List.length rows)
  in
  let mean_disabled = mean (fun (_, _, _, _, _, d, _) -> d) in
  let mean_rec = mean (fun (_, _, _, _, _, _, r) -> r) in
  Printf.fprintf oc
    "  ],\n  \"mean_disabled_overhead_percent\": %.4f,\n  \
     \"mean_recording_overhead_percent\": %.2f\n}\n"
    mean_disabled mean_rec;
  close_tracker "BENCH_OBS.json" oc;
  Printf.printf
    "\n  mean disabled-sink overhead: %+.4f%%  (written to BENCH_OBS.json)\n"
    mean_disabled

(* ------------------------------------------------------------------ *)
(* serve: daemon warm/cold latency vs one ms2c process per request     *)
(* ------------------------------------------------------------------ *)

(* Compares two ways of expanding the same corpus:

   - cold:   one `ms2c expand` process per request, each paying process
     startup plus re-expansion of the macro definitions;
   - daemon: `ms2c serve` over stdio with the definitions loaded once
     via --prelude-file, three lockstep passes over a uses-only corpus.

   The corpus split matters: definition fragments mint fresh engine
   state on every run and are deliberately never cached, so a corpus
   that contained them would measure nothing but misses.  Pass 1 of the
   daemon phase registers the corpus's symbols into the session (cold
   cache), pass 2 re-expands under the now-stable state and stores, and
   pass 3 is the true warm path (cache hits) — which is why the warm
   numbers and the CI hit assertion both come from the final pass. *)

module Json = Ms2_support.Json

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let k = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
    sorted.(min (n - 1) (max 0 k))

(* (p50, p99, mean), all in the unit of the samples *)
let latency_stats lats =
  let a = Array.of_list lats in
  Array.sort compare a;
  let n = Array.length a in
  let mean =
    if n = 0 then 0. else Array.fold_left ( +. ) 0. a /. float_of_int n
  in
  (percentile a 50., percentile a 99., mean)

let run_serve () =
  rule "serve: daemon latency vs one ms2c process per request";
  let ms2c = ms2c_path () in
  let dir = Filename.temp_file "ms2serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let write path text =
    let oc = open_out path in
    output_string oc text;
    close_out oc
  in
  let defs = Filename.concat dir "defs.mc" in
  write defs Workloads.painting_defs;
  let sizes = [ 4; 6; 8; 10; 12; 16 ] in
  let uses =
    List.map
      (fun n -> (Printf.sprintf "u%d.mc" n, Workloads.painting_uses n))
      sizes
  in
  (* --- cold: a fresh ms2c process per request, definitions inline --- *)
  let cold_paths =
    List.map
      (fun (name, text) ->
        let p = Filename.concat dir ("cold_" ^ name) in
        write p (Workloads.painting_defs ^ text);
        p)
      uses
  in
  let cold_repeats = 3 in
  let cold_lats = ref [] in
  let cold_t0 = Unix.gettimeofday () in
  for _ = 1 to cold_repeats do
    List.iter
      (fun p ->
        let t0 = Unix.gettimeofday () in
        let code =
          Sys.command
            (Printf.sprintf "%s expand %s > /dev/null 2>&1" ms2c
               (Filename.quote p))
        in
        if code <> 0 then failwith "serve bench: cold corpus failed to expand";
        cold_lats := ((Unix.gettimeofday () -. t0) *. 1000.) :: !cold_lats)
      cold_paths
  done;
  let cold_wall = Unix.gettimeofday () -. cold_t0 in
  (* --- daemon: one ms2c serve over stdio, lockstep passes ----------- *)
  let snap = Filename.concat dir "snap.bin" in
  let start_daemon extra =
    Unix.open_process
      (Printf.sprintf "%s serve --prelude-file %s%s" ms2c
         (Filename.quote defs) extra)
  in
  let next_id = ref 0 in
  let rpc (from_d, to_d) fields =
    incr next_id;
    output_string to_d
      (Json.to_string (Json.Obj (("id", Json.Int !next_id) :: fields)));
    output_char to_d '\n';
    flush to_d;
    match Json.parse (input_line from_d) with
    | Ok v -> v
    | Error e -> failwith ("serve bench: unparseable response: " ^ e)
  in
  let run_pass ch =
    let lats = ref [] and hits = ref 0 and misses = ref 0 in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun (name, text) ->
        let t1 = Unix.gettimeofday () in
        let resp =
          rpc ch
            [ ("method", Json.Str "expand");
              ("session", Json.Str "bench");
              ("source", Json.Str name);
              ("text", Json.Str text) ]
        in
        lats := ((Unix.gettimeofday () -. t1) *. 1000.) :: !lats;
        (match Json.member resp "ok" with
        | Some (Json.Bool true) -> ()
        | _ ->
            failwith
              ("serve bench: request failed: " ^ Json.to_string resp));
        match Json.member resp "request" with
        | Some rq ->
            let counter f =
              Option.value ~default:0 (Option.bind (Json.member rq f) Json.int)
            in
            hits := !hits + counter "cache_hits";
            misses := !misses + counter "cache_misses"
        | None -> ())
      uses;
    (!lats, Unix.gettimeofday () -. t0, !hits, !misses)
  in
  let d0 = start_daemon (" --cache-file " ^ Filename.quote snap) in
  let passes = List.init 3 (fun _ -> run_pass d0) in
  ignore (rpc d0 [ ("method", Json.Str "shutdown") ]);
  ignore (Unix.close_process d0);
  (* --- restart: same daemon, back up from the drain-time snapshot vs
     from nothing.  One pass each: the warm restart's prelude replay and
     store contents turn the pass into cache hits; the cold restart
     re-expands everything, exactly what a crash without persistence
     costs. --- *)
  let restart_pass extra =
    let d = start_daemon extra in
    let result = run_pass d in
    ignore (rpc d [ ("method", Json.Str "shutdown") ]);
    ignore (Unix.close_process d);
    result
  in
  let rw_lats, _, rw_hits, _ =
    restart_pass (" --cache-file " ^ Filename.quote snap)
  in
  let rc_lats, _, rc_hits, _ = restart_pass "" in
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) cold_paths;
  (try Sys.remove snap with Sys_error _ -> ());
  (try Sys.remove defs with Sys_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  (* --- report ------------------------------------------------------- *)
  let req_s n wall = if wall > 0. then float_of_int n /. wall else 0. in
  let c50, c99, cmean = latency_stats !cold_lats in
  let n_cold = List.length !cold_lats in
  Printf.printf
    "  cold (process per request)  %3d req   p50 %7.2f ms   p99 %7.2f ms   \
     %6.1f req/s\n"
    n_cold c50 c99 (req_s n_cold cold_wall);
  List.iteri
    (fun i (lats, wall, hits, misses) ->
      let p50, p99, _ = latency_stats lats in
      Printf.printf
        "  daemon pass %d               %3d req   p50 %7.2f ms   p99 %7.2f \
         ms   %6.1f req/s   (%d hits, %d misses)\n"
        (i + 1) (List.length lats) p50 p99
        (req_s (List.length lats) wall)
        hits misses)
    passes;
  let w_lats, w_wall, w_hits, w_misses =
    List.nth passes (List.length passes - 1)
  in
  let w50, w99, wmean = latency_stats w_lats in
  let speedup = if w50 > 0. then c50 /. w50 else 0. in
  Printf.printf "  warm-vs-cold p50 speedup: %.1fx\n" speedup;
  let rw50, _, _ = latency_stats rw_lats in
  let rc50, _, _ = latency_stats rc_lats in
  Printf.printf
    "  restart warm (snapshot)     %3d req   p50 %7.2f ms   (%d hits)\n"
    (List.length rw_lats) rw50 rw_hits;
  Printf.printf
    "  restart cold (no snapshot)  %3d req   p50 %7.2f ms   (%d hits)\n"
    (List.length rc_lats) rc50 rc_hits;
  if rw_hits = 0 then
    Printf.printf
      "  WARNING: no cache hits on the warm restart (snapshot expected \
       to replay)\n";
  if w_hits = 0 then
    Printf.printf
      "  WARNING: no cache hits on the final daemon pass (expected hits)\n";
  let oc = open_tracker "BENCH_SERVE.json" in
  Printf.fprintf oc
    "{\n  \"schema\": \"ms2-bench-serve-1\",\n  \"quota_s\": %g,\n  \
     \"corpus_files\": %d,\n  \"cold_repeats\": %d,\n"
    quota (List.length uses) cold_repeats;
  Printf.fprintf oc
    "  \"cold\": {\"requests\": %d, \"p50_ms\": %.2f, \"p99_ms\": %.2f, \
     \"mean_ms\": %.2f, \"requests_per_s\": %.1f},\n"
    n_cold c50 c99 cmean (req_s n_cold cold_wall);
  Printf.fprintf oc "  \"daemon_passes\": [\n";
  let n_passes = List.length passes in
  List.iteri
    (fun i (lats, wall, hits, misses) ->
      let p50, p99, mean = latency_stats lats in
      Printf.fprintf oc
        "    {\"pass\": %d, \"requests\": %d, \"p50_ms\": %.2f, \"p99_ms\": \
         %.2f, \"mean_ms\": %.2f, \"requests_per_s\": %.1f, \"cache_hits\": \
         %d, \"cache_misses\": %d}%s\n"
        (i + 1) (List.length lats) p50 p99 mean
        (req_s (List.length lats) wall)
        hits misses
        (if i = n_passes - 1 then "" else ","))
    passes;
  Printf.fprintf oc
    "  ],\n  \"warm\": {\"requests\": %d, \"p50_ms\": %.2f, \"p99_ms\": \
     %.2f, \"mean_ms\": %.2f, \"requests_per_s\": %.1f, \"cache_hits\": %d, \
     \"cache_misses\": %d},\n"
    (List.length w_lats) w50 w99 wmean
    (req_s (List.length w_lats) w_wall)
    w_hits w_misses;
  Printf.fprintf oc
    "  \"restart_warm_p50\": %.2f,\n  \"restart_cold_p50\": %.2f,\n  \
     \"restart_warm_hits\": %d,\n  \"restart_cold_hits\": %d,\n"
    rw50 rc50 rw_hits rc_hits;
  Printf.fprintf oc "  \"warm_vs_cold_speedup_p50\": %.2f\n}\n" speedup;
  close_tracker "BENCH_SERVE.json" oc;
  Printf.printf "\n  (written to BENCH_SERVE.json)\n"

(* ------------------------------------------------------------------ *)
(* Fig. 2 parse-time type analysis cost                                *)
(* ------------------------------------------------------------------ *)

let fig2_tests () =
  let parse_with ty () =
    let tenv = Ms2_typing.Tenv.create () in
    Ms2_typing.Tenv.add tenv "y" ty;
    Sys.opaque_identity
      (ignore (Ms2_parser.Parser.meta_expr_of_string ~tenv "`[int $y;]"))
  in
  let open Ms2_mtype in
  Test.make_grouped ~name:"fig2-parse"
    [ Test.make ~name:"y : init-declarator[]"
        (Staged.stage
           (parse_with (Mtype.List (Mtype.Ast Sort.Init_declarator))));
      Test.make ~name:"y : identifier"
        (Staged.stage (parse_with (Mtype.Ast Sort.Id))) ]

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let run_time () =
  print_estimates "T1: pipeline stage costs" (measure_tests (t1_tests ()));
  print_estimates "T2: CPP token substitution vs MS2 syntax macros"
    (measure_tests (t2_tests ()));
  print_estimates "Template parsing with placeholder type analysis (Fig. 2)"
    (measure_tests (fig2_tests ()));
  print_estimates
    "Ablation: compiled invocation parsers (paper: \"could be accelerated \
     by a routine that compiled a parse routine for each macro's pattern\")"
    (measure_tests (ablation_tests ()))

let run_sweep () =
  print_estimates "T3: scaling sweeps" (measure_tests (t3_tests ()))

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match mode with
  | "figures" | "fig" -> run_figures ()
  | "time" -> run_time ()
  | "sweep" -> run_sweep ()
  | "penalty" -> run_penalty ()
  | "perf" -> run_perf ()
  | "obs" -> run_obs ()
  | "serve" -> run_serve ()
  | "all" ->
      run_figures ();
      run_time ();
      run_sweep ();
      run_penalty ();
      run_perf ();
      run_obs ();
      run_serve ()
  | other ->
      Printf.eprintf
        "unknown mode %S (expected figures | time | sweep | penalty | perf \
         | obs | serve)\n"
        other;
      exit 2
