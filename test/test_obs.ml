(** Telemetry tests: the {!Ms2_support.Obs} sinks (spans, metrics,
    profiler) as units, and CLI goldens for [--trace-out], [--metrics],
    [--stats-format=json], [ms2c profile] and the [--jobs] trace merge. *)

module Obs = Ms2_support.Obs

let reset_sinks () =
  ignore (Obs.stop_recording ());
  Obs.Metrics.reset ();
  Obs.Profile.disable ();
  Obs.Profile.reset ()

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let count_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i acc =
    if i + n > m then acc
    else if String.sub s i n = sub then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  if n = 0 then 0 else go 0 0

(* ------------------------------------------------------------------ *)
(* Recorder                                                            *)
(* ------------------------------------------------------------------ *)

let disabled_span_records_nothing () =
  reset_sinks ();
  let forced = ref false in
  let v =
    Obs.with_span ~cat:"t"
      ~args:(fun () ->
        forced := true;
        [])
      "noop"
      (fun () -> 42)
  in
  Alcotest.(check int) "body result returned" 42 v;
  Alcotest.(check bool) "args thunk never forced when disabled" false !forced;
  Alcotest.(check int) "no events recorded" 0 (List.length (Obs.events ()))

let enabled_span_records () =
  reset_sinks ();
  Obs.start_recording ();
  let v =
    Obs.with_span ~cat:"t"
      ~args:(fun () -> [ ("k", Obs.Int 7) ])
      "work"
      (fun () -> 1)
  in
  Obs.instant ~cat:"t" "tick";
  let evs = Obs.stop_recording () in
  Alcotest.(check int) "result" 1 v;
  Alcotest.(check int) "two events" 2 (List.length evs);
  let span = List.hd evs in
  Alcotest.(check string) "span name" "work" span.Obs.ev_name;
  Alcotest.(check char) "span phase" 'X' span.Obs.ev_ph;
  Alcotest.(check bool) "span duration non-negative" true
    (span.Obs.ev_dur_us >= 0.);
  Alcotest.(check bool) "args captured" true
    (span.Obs.ev_args = [ ("k", Obs.Int 7) ]);
  let inst = List.nth evs 1 in
  Alcotest.(check char) "instant phase" 'i' inst.Obs.ev_ph;
  Alcotest.(check int) "buffer cleared by stop" 0
    (List.length (Obs.events ()))

let failing_span_still_recorded () =
  reset_sinks ();
  Obs.start_recording ();
  (try
     Obs.with_span ~cat:"t" "boom" (fun () -> failwith "die")
   with Failure _ -> ());
  let evs = Obs.stop_recording () in
  Alcotest.(check int) "failing span recorded" 1 (List.length evs);
  Alcotest.(check string) "span name" "boom" (List.hd evs).Obs.ev_name

let chrome_trace_shape () =
  reset_sinks ();
  Obs.start_recording ();
  Obs.with_span ~cat:"c" "outer" (fun () ->
      Obs.with_span ~cat:"c" "inner" (fun () -> ()));
  let evs = Obs.stop_recording () in
  let json = Obs.chrome_trace [ ("w0", evs); ("w1", []) ] in
  Alcotest.(check bool) "traceEvents wrapper" true
    (contains ~sub:"{\"traceEvents\": [" json);
  Alcotest.(check int) "one process_name per track" 2
    (count_sub ~sub:"\"process_name\"" json);
  Alcotest.(check bool) "track names" true
    (contains ~sub:"{\"name\": \"w0\"}" json
    && contains ~sub:"{\"name\": \"w1\"}" json);
  Alcotest.(check bool) "events carry pid 0" true
    (contains ~sub:"\"pid\": 0" json);
  Alcotest.(check bool) "metadata for pid 1" true
    (contains ~sub:"\"pid\": 1" json);
  (* nesting is by time containment: inner's [ts, ts+dur] within outer's *)
  let find name = List.find (fun e -> e.Obs.ev_name = name) evs in
  let outer = find "outer" and inner = find "inner" in
  Alcotest.(check bool) "inner starts after outer" true
    (inner.Obs.ev_ts_us >= outer.Obs.ev_ts_us);
  Alcotest.(check bool) "inner ends before outer" true
    (inner.Obs.ev_ts_us +. inner.Obs.ev_dur_us
    <= outer.Obs.ev_ts_us +. outer.Obs.ev_dur_us +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let counters_and_gauges () =
  reset_sinks ();
  let c = Obs.Metrics.counter "t.c" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:4 c;
  Alcotest.(check int) "incr accumulates" 5 (Obs.Metrics.value c);
  Obs.Metrics.set c 3;
  Alcotest.(check int) "set is absolute" 3 (Obs.Metrics.value c);
  Alcotest.(check bool) "find-or-create returns same counter" true
    (Obs.Metrics.counter "t.c" == c);
  Obs.Metrics.gauge "t.g" 2.5;
  let json = Obs.Metrics.to_json () in
  Alcotest.(check bool) "schema" true
    (contains ~sub:"\"schema\": \"ms2-metrics-1\"" json);
  Alcotest.(check bool) "counter in dump" true
    (contains ~sub:"\"t.c\": 3" json);
  Alcotest.(check bool) "gauge in dump" true
    (contains ~sub:"\"t.g\": 2.5" json)

let snapshot_absorb_merges () =
  reset_sinks ();
  let c = Obs.Metrics.counter "t.c" in
  Obs.Metrics.set c 10;
  Obs.Metrics.gauge "t.g" 5.;
  let h = Obs.Metrics.histogram "t.h" in
  Obs.Metrics.observe h 50.;
  let snap = Obs.Metrics.snapshot () in
  (* simulate the parent's registry state *)
  Obs.Metrics.set c 7;
  Obs.Metrics.gauge "t.g" 9.;
  Obs.Metrics.absorb snap;
  Alcotest.(check int) "counters add" 17 (Obs.Metrics.value c);
  let json = Obs.Metrics.to_json () in
  Alcotest.(check bool) "gauges keep max" true
    (contains ~sub:"\"t.g\": 9" json);
  Alcotest.(check bool) "histogram counts add" true
    (contains ~sub:"\"count\": 2" json)

let histogram_buckets_cumulative () =
  reset_sinks ();
  let h = Obs.Metrics.histogram "t.h" in
  Obs.Metrics.observe h 0.5;
  (* bucket le=1 *)
  Obs.Metrics.observe h 50.;
  (* bucket le=100 *)
  Obs.Metrics.observe h 1e9;
  (* +Inf bucket *)
  let json = Obs.Metrics.to_json () in
  Alcotest.(check bool) "count 3" true (contains ~sub:"\"count\": 3" json);
  Alcotest.(check bool) "+Inf bucket closes at total" true
    (contains ~sub:"{\"le\": \"+Inf\", \"count\": 3}" json);
  Alcotest.(check bool) "le=1 holds the first observation" true
    (contains ~sub:"{\"le\": 1, \"count\": 1}" json)

(* ------------------------------------------------------------------ *)
(* Profiler                                                            *)
(* ------------------------------------------------------------------ *)

let profile_self_total_depth () =
  reset_sinks ();
  Obs.Profile.enable ();
  let a = Obs.Profile.enter "A" in
  let b = Obs.Profile.enter "B" in
  Obs.Profile.exit b ~fuel:5 ~nodes:2;
  Obs.Profile.exit a ~fuel:9 ~nodes:3;
  Obs.Profile.credit_cached "B" 4;
  let rows = Obs.Profile.report () in
  let find name = List.find (fun r -> r.Obs.Profile.pr_macro = name) rows in
  let ra = find "A" and rb = find "B" in
  Alcotest.(check int) "A count" 1 ra.Obs.Profile.pr_count;
  Alcotest.(check int) "B cached credit" 4 rb.Obs.Profile.pr_cached;
  Alcotest.(check int) "B nested depth" 2 rb.Obs.Profile.pr_max_depth;
  Alcotest.(check int) "A outermost depth" 1 ra.Obs.Profile.pr_max_depth;
  Alcotest.(check int) "A fuel" 9 ra.Obs.Profile.pr_fuel;
  Alcotest.(check bool) "self <= total" true
    (ra.Obs.Profile.pr_self_us <= ra.Obs.Profile.pr_total_us +. 1e-9);
  Alcotest.(check bool) "A total covers B total" true
    (ra.Obs.Profile.pr_total_us >= rb.Obs.Profile.pr_total_us);
  let json = Obs.Profile.report_to_json rows in
  Alcotest.(check bool) "profile schema" true
    (contains ~sub:"\"schema\": \"ms2-profile-1\"" json);
  Alcotest.(check bool) "hit rate from cached credit" true
    (contains ~sub:"\"cache_hit_rate\": 0.800" json)

let profile_ranks_by_self_time () =
  reset_sinks ();
  Obs.Profile.enable ();
  let slow = Obs.Profile.enter "SLOW" in
  let rec burn n acc = if n = 0 then acc else burn (n - 1) (acc + n) in
  ignore (Sys.opaque_identity (burn 2_000_000 0));
  Obs.Profile.exit slow ~fuel:0 ~nodes:0;
  let fast = Obs.Profile.enter "FAST" in
  Obs.Profile.exit fast ~fuel:0 ~nodes:0;
  match Obs.Profile.report () with
  | first :: _ ->
      Alcotest.(check string) "hottest first" "SLOW"
        first.Obs.Profile.pr_macro
  | [] -> Alcotest.fail "empty report"

(* ------------------------------------------------------------------ *)
(* CLI goldens                                                         *)
(* ------------------------------------------------------------------ *)

let ms2c =
  if Sys.file_exists "../bin/ms2c.exe" then "../bin/ms2c.exe"
  else "_build/default/bin/ms2c.exe"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run_cli args =
  let out = Filename.temp_file "ms2c_obs" ".out" in
  let err = Filename.temp_file "ms2c_obs" ".err" in
  let code =
    Sys.command (Printf.sprintf "%s %s > %s 2> %s" ms2c args out err)
  in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

let write_fixture name text =
  let path = Filename.temp_file ("ms2c_obs_" ^ name) ".mc" in
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  path

(* OUTER produces an invocation of INNER, so INNER's expansion carries a
   one-frame Loc.origin backtrace — the logical span parentage.  INNER
   must already be defined when OUTER's template is parsed, or the
   template holds a plain call named INNER instead of an invocation. *)
let nested_file () =
  write_fixture "nested"
    "syntax exp INNER {| ( $$exp::e ) |} { return `($e + $e); }\n\
     syntax exp OUTER {| ( $$exp::e ) |} { return `(INNER(($e))); }\n\
     int main(void) { int x; x = OUTER((3)); return x; }\n"

let with_files files k =
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with _ -> ()) files)
    (fun () -> k files)

let with_tmp ext k =
  let path = Filename.temp_file "ms2c_obs" ext in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with _ -> ())
    (fun () -> k path)

let trace_out_spans () =
  with_files [ nested_file () ] (fun files ->
      with_tmp ".trace.json" (fun trace ->
          Tutil.with_fresh_path @@ fun snap ->
          let code, _, err =
            run_cli
              (Printf.sprintf
                 "expand %s --cache-file %s --trace-out %s -o /dev/null"
                 (List.hd files) snap trace)
          in
          Alcotest.(check int) "clean exit" 0 code;
          Alcotest.(check string) "no stderr" "" err;
          let json = read_file trace in
          Alcotest.(check bool) "traceEvents wrapper" true
            (contains ~sub:"{\"traceEvents\": [" json);
          Alcotest.(check bool) "per-invocation expand spans" true
            (contains ~sub:"\"name\": \"OUTER\", \"cat\": \"expand\"" json
            && contains ~sub:"\"name\": \"INNER\", \"cat\": \"expand\"" json);
          Alcotest.(check bool) "pipeline stage spans" true
            (contains ~sub:"\"name\": \"lex\"" json
            && contains ~sub:"\"name\": \"parse\"" json
            && contains ~sub:"\"name\": \"fragment\"" json
            && contains ~sub:"\"name\": \"render\", \"cat\": \"render\"" json);
          Alcotest.(check bool) "the cache key has its own span" true
            (contains ~sub:"\"name\": \"key\", \"cat\": \"cache\"" json);
          Alcotest.(check bool)
            "INNER's logical parent travels in span args" true
            (contains ~sub:"\"parent_macro\": \"OUTER\"" json);
          Alcotest.(check bool) "nested expansion depth recorded" true
            (contains ~sub:"\"expansion_depth\": 1" json)))

(* Four files on two workers: each worker expands two, and ships each
   file's spans once, on that file's track. *)
let trace_merge_under_jobs () =
  with_files (List.init 4 (fun _ -> nested_file ())) (fun files ->
      with_tmp ".trace.json" (fun trace ->
          let code, _, _ =
            run_cli
              (Printf.sprintf
                 "expand %s --jobs 2 --trace-out %s -o /dev/null"
                 (String.concat " " files) trace)
          in
          Alcotest.(check int) "clean exit" 0 code;
          let json = read_file trace in
          Alcotest.(check int) "one named track per file" 4
            (count_sub ~sub:"\"process_name\"" json);
          Alcotest.(check bool) "every file's pid present" true
            (List.for_all
               (fun i -> contains ~sub:(Printf.sprintf "\"pid\": %d" i) json)
               [ 0; 1; 2; 3 ]);
          Alcotest.(check int) "each file's spans once" 4
            (count_sub ~sub:"\"name\": \"OUTER\"" json)))

let metrics_dump_schema () =
  with_files [ nested_file () ] (fun files ->
      with_tmp ".metrics.json" (fun metrics ->
          Tutil.with_fresh_path @@ fun snap ->
          let code, _, _ =
            run_cli
              (Printf.sprintf
                 "expand %s --cache-file %s --metrics %s -o /dev/null"
                 (List.hd files) snap metrics)
          in
          Alcotest.(check int) "clean exit" 0 code;
          let json = read_file metrics in
          List.iter
            (fun sub ->
              Alcotest.(check bool) (sub ^ " present") true
                (contains ~sub json))
            [
              "\"schema\": \"ms2-metrics-1\"";
              "\"counters\"";
              "\"gauges\"";
              "\"histograms\"";
              "\"engine.invocations_expanded\": 2";
              "\"engine.macros_defined\": 2";
              "\"cache.misses\": 1";
              "\"fill.templates\": 2";
            ]))

let stats_format_json () =
  with_files [ nested_file () ] (fun files ->
      let code, _, err =
        run_cli
          (Printf.sprintf "expand %s --stats --stats-format=json -o /dev/null"
             (List.hd files))
      in
      Alcotest.(check int) "clean exit" 0 code;
      Alcotest.(check bool) "stderr carries the metrics schema" true
        (contains ~sub:"\"schema\": \"ms2-metrics-1\"" err);
      Alcotest.(check bool) "engine totals present" true
        (contains ~sub:"\"engine.invocations_expanded\": 2" err))

let trace_bypass_is_visible () =
  with_files [ nested_file () ] (fun files ->
      let f = List.hd files in
      Tutil.with_fresh_path @@ fun snap ->
      let code, _, err =
        run_cli
          (Printf.sprintf
             "expand %s --cache-file %s --trace --stats -o /dev/null" f snap)
      in
      Alcotest.(check int) "clean exit" 0 code;
      Alcotest.(check bool) "bypass announced in the trace log" true
        (contains ~sub:"cache: bypassed for" err);
      Alcotest.(check bool) "aggregate counter counts it" true
        (contains ~sub:"cache bypasses: 1" err);
      Alcotest.(check bool) "labeled reason in stats" true
        (contains ~sub:"trace mode 1" err))

let profile_table_and_json () =
  with_files [ nested_file () ] (fun files ->
      let f = List.hd files in
      let code, out, err = run_cli (Printf.sprintf "profile %s" f) in
      Alcotest.(check int) "clean exit" 0 code;
      Alcotest.(check string) "no stderr" "" err;
      Alcotest.(check bool) "header row" true
        (contains ~sub:"macro" out && contains ~sub:"self(ms)" out);
      Alcotest.(check bool) "both macros profiled" true
        (contains ~sub:"OUTER" out && contains ~sub:"INNER" out);
      let code_j, out_j, _ =
        run_cli (Printf.sprintf "profile %s --format=json" f)
      in
      Alcotest.(check int) "json exit" 0 code_j;
      Alcotest.(check bool) "profile schema" true
        (contains ~sub:"\"schema\": \"ms2-profile-1\"" out_j);
      (* INNER expands within OUTER's produced code: depth 2 *)
      Alcotest.(check bool) "nested macro's max depth" true
        (contains ~sub:"\"max_depth\": 2" out_j);
      Alcotest.(check bool) "rows carry full cost columns" true
        (contains ~sub:"\"fuel\":" out_j && contains ~sub:"\"nodes\":" out_j))

let profile_corpus_ranks () =
  (* with a store (the --cache-file), a repeated definition-free
     fragment reaches the cache's state fixed-point on its second run
     (the first registers [f]'s C declaration), so the third run
     replays — and the replay credits the profiler with the invocations
     it skipped *)
  let uses = write_fixture "uses" "int f(int a) { return OUTER((a)); }\n" in
  with_files [ nested_file (); uses ] (fun files ->
      let defs = List.nth files 0 and uses = List.nth files 1 in
      Tutil.with_fresh_path @@ fun snap ->
      let code, out, _ =
        run_cli
          (Printf.sprintf "profile %s %s %s %s --cache-file %s --format=json"
             defs uses uses uses snap)
      in
      Alcotest.(check int) "clean exit" 0 code;
      Alcotest.(check bool) "cache replay credits invocations" true
        (contains ~sub:"\"cached_invocations\": 1" out))

let () =
  Alcotest.run "obs"
    [
      ( "recorder",
        [
          Alcotest.test_case "disabled span records nothing" `Quick
            disabled_span_records_nothing;
          Alcotest.test_case "enabled span records" `Quick
            enabled_span_records;
          Alcotest.test_case "failing span still recorded" `Quick
            failing_span_still_recorded;
          Alcotest.test_case "chrome trace shape" `Quick chrome_trace_shape;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick counters_and_gauges;
          Alcotest.test_case "snapshot/absorb merges" `Quick
            snapshot_absorb_merges;
          Alcotest.test_case "histogram buckets cumulative" `Quick
            histogram_buckets_cumulative;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "self/total/depth accounting" `Quick
            profile_self_total_depth;
          Alcotest.test_case "ranks by self time" `Quick
            profile_ranks_by_self_time;
        ] );
      ( "cli",
        [
          Alcotest.test_case "--trace-out span shape" `Quick trace_out_spans;
          Alcotest.test_case "--jobs 2 trace merge" `Quick
            trace_merge_under_jobs;
          Alcotest.test_case "--metrics schema" `Quick metrics_dump_schema;
          Alcotest.test_case "--stats-format=json" `Quick stats_format_json;
          Alcotest.test_case "--trace bypass is visible" `Quick
            trace_bypass_is_visible;
          Alcotest.test_case "profile table and json" `Quick
            profile_table_and_json;
          Alcotest.test_case "profile credits cache replays" `Quick
            profile_corpus_ranks;
        ] );
    ]
