(** Benchmark and figure-regeneration harness.

    Usage: [dune exec bench/main.exe] (everything), or with an argument:
    - [figures]  — regenerate the paper's Figures 1-3;
    - [time]     — Bechamel micro-benchmarks (one per experiment table);
    - [sweep]    — scaling sweeps (enum size, macro nesting depth);
    - [penalty]  — the compile-time-penalty table (expansion vs. the
      parse of already-expanded code: the cost the paper says macros
      trade for zero runtime cost);
    - [obs]      — telemetry overhead (disabled sinks, recording) and the
      uncached clean-path overhead of the expansion cache; writes
      BENCH_OBS.json, which CI gates.

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
let run_figures () = print_string (Ms2.Figures.to_text ())

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

(* The uncached clean-path pair: a fresh engine per run, so with the
   cache on every fragment is a miss that still pays for its key digest
   and store.  It is measured as its own group: grouped with the
   recording runs it read ~35% against 10-15% alone on one machine.
   The CI bound is a noise-tolerant 15%, which still trips on the ~25%
   regression class it guards (a per-miss sweep of the merged counters
   on the store path). *)
let uncached_tests () =
  let src = Workloads.myenum 16 in
  let run ~cache () =
    let engine = Ms2.Engine.create ~cache () in
    match Ms2.Api.expand ~source:"bench" engine src with
    | Ok out -> Sys.opaque_identity (String.length out)
    | Error e -> failwith e
  in
  Test.make_grouped ~name:"cache-miss"
    [ Test.make ~name:"clean path: cache off"
        (Staged.stage (run ~cache:false));
      Test.make ~name:"clean path: cache on (all misses)"
        (Staged.stage (run ~cache:true)) ]

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
  let miss =
    min_estimates
      (List.init obs_rounds (fun _ ->
           estimates (measure_tests (uncached_tests ()))))
  in
  rule "Derived: uncached clean-path overhead (best of 3)";
  List.iter
    (fun (name, est) -> Fmt.pr "  %-48s %a/run\n" name pp_time est)
    miss;
  let uncached_pct =
    match
      ( List.assoc_opt "cache-miss/clean path: cache on (all misses)" miss,
        List.assoc_opt "cache-miss/clean path: cache off" miss )
    with
    | Some on, Some off when off > 0. -> ((on -. off) /. off) *. 100.
    | _ -> nan
  in
  Printf.printf "  uncached clean-path overhead: %+.2f%% (<=15%% bound)\n"
    uncached_pct;
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
     \"mean_recording_overhead_percent\": %.2f,\n  \
     \"uncached_overhead_percent\": %.2f\n}\n"
    mean_disabled mean_rec uncached_pct;
  close_tracker "BENCH_OBS.json" oc;
  Printf.printf
    "\n  mean disabled-sink overhead: %+.4f%%  (written to BENCH_OBS.json)\n"
    mean_disabled

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
  | "obs" -> run_obs ()
  | "all" ->
      run_figures ();
      run_time ();
      run_sweep ();
      run_penalty ();
      run_obs ()
  | other ->
      Printf.eprintf
        "unknown mode %S (expected figures | time | sweep | penalty | obs \
         | all)\n"
        other;
      exit 2
