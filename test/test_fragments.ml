(** Correctness properties of intra-file fragment parallelism
    ([--fragment-jobs N], speculative expansion of top-level fragment
    runs on the domain pool):

    - byte-identity: output, diagnostics, exit codes, source maps and
      [--line-directives] output match the sequential walk exactly, on
      synthetic corpora, the golden [--prelude] corpus and the fault
      corpus;
    - speculation accounting: the crafted fixtures below have fully
      deterministic speculated/committed/revalidated counters, asserted
      exactly — an anonymous struct mints a tag (worker abort), a
      macro-generating macro bumps the definition version mid-run
      (abort + version-poisons every later fragment of the run);
    - threshold: seven pure fragments stay sequential, eight
      speculate;
    - chaos: an [engine/fragment] failpoint firing inside speculative
      workers forces rollback of every fragment, and the sequential
      re-expansion still produces byte-identical output;
    - degrade: [--trace] announces once and falls back to the
      sequential walk. *)

let ms2c =
  if Sys.file_exists "../bin/ms2c.exe" then "../bin/ms2c.exe"
  else "_build/default/bin/ms2c.exe"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** Run [ms2c args], returning (exit code, stdout, stderr). *)
let run_cli args =
  let out = Filename.temp_file "ms2c_fr" ".out" in
  let err = Filename.temp_file "ms2c_fr" ".err" in
  let code =
    Sys.command (Printf.sprintf "%s %s > %s 2> %s" ms2c args out err)
  in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

let write_fixture name text =
  let path = Filename.temp_file ("ms2c_fr_" ^ name) ".mc" in
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  path

let with_files files k =
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with _ -> ()) files)
    (fun () -> k files)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Extract an integer metric from [--stats-format=json] output
   (rendered as ["name": value] lines by the metrics registry). *)
let metric name s =
  let key = Printf.sprintf "\"%s\": " name in
  let kl = String.length key and m = String.length s in
  let rec find i = if i + kl > m then None
    else if String.sub s i kl = key then Some (i + kl)
    else find (i + 1)
  in
  match find 0 with
  | None -> Alcotest.failf "metric %s not reported" name
  | Some i ->
      let j = ref i in
      while !j < m && (match s.[!j] with '0' .. '9' -> true | _ -> false) do
        incr j
      done;
      int_of_string (String.sub s i (!j - i))

let frag_counters stderr =
  ( metric "fragments.speculated" stderr,
    metric "fragments.committed" stderr,
    metric "fragments.revalidated" stderr )

(* Compare a sequential run against a fragment-parallel run of the same
   invocation, asserting exit code, stdout and stderr are
   byte-identical; returns the sequential triple. *)
let check_identity ?(jobs = 4) ~what (flags : string) (files : string list) =
  let args = String.concat " " files in
  let c1, out1, err1 =
    run_cli (Printf.sprintf "expand --fragment-jobs 1 %s %s" flags args)
  in
  let cn, outn, errn =
    run_cli (Printf.sprintf "expand --fragment-jobs %d %s %s" jobs flags args)
  in
  Alcotest.(check int) (what ^ ": same exit code") c1 cn;
  Alcotest.(check string) (what ^ ": byte-identical output") out1 outn;
  Alcotest.(check string) (what ^ ": byte-identical diagnostics") err1 errn;
  (c1, out1, err1)

(* One definition barrier, twelve pure uses, three anonymous-struct
   declarations.  The struct declarations mint a tag on the worker, so
   they abort and re-expand sequentially: exactly 15 fragments
   speculate, 12 commit, 3 revalidate — deterministic, because commit
   validation walks fragments in input order. *)
let synthetic_source =
  "syntax exp DBL {| ( $$exp::e ) |} { return `( (2 * $(e)) ); }\n"
  ^ String.concat ""
      (List.concat_map
         (fun band ->
           List.map
             (fun i ->
               Printf.sprintf "int u%d(int x) { return DBL(x + %d); }\n" i i)
             band
           @ [ Printf.sprintf "struct { int a; int b; } s%d;\n" (List.hd band) ])
         [ [ 0; 1; 2; 3 ]; [ 4; 5; 6; 7 ]; [ 8; 9; 10; 11 ] ])

let synthetic_identity () =
  let f = write_fixture "synth" synthetic_source in
  with_files [ f ] (fun files ->
      let c, out, _ = check_identity ~what:"synthetic corpus" "" files in
      Alcotest.(check int) "clean exit" 0 c;
      Alcotest.(check bool) "expansion really happened" true
        (contains ~sub:"2 * (x + 11)" out);
      let c4, _, err4 =
        run_cli
          (Printf.sprintf "expand --fragment-jobs 4 --stats \
                           --stats-format=json %s"
             (List.hd files))
      in
      Alcotest.(check int) "stats run exit" 0 c4;
      let s, k, r = frag_counters err4 in
      Alcotest.(check int) "15 fragments speculated" 15 s;
      Alcotest.(check int) "12 committed" 12 k;
      Alcotest.(check int) "3 anon-struct fragments revalidated" 3 r)

(* Every field of [Api.stats] has a row in the one counter table:
   publishing an engine's counters and reading them back off the
   registry gives the same record, speculation ledger included. *)
let stats_survive_publish () =
  Ms2_support.Obs.Metrics.reset ();
  let e = Ms2.Api.create_engine () in
  let u =
    Ms2.Api.expand_unit ~fragment_jobs:2 e ~source:"frag.mc" synthetic_source
  in
  Alcotest.(check bool) "expanded" true (Option.is_none u.Ms2.Api.u_fatal);
  let s = Ms2.Api.stats e in
  Ms2.Api.publish_metrics [ s ];
  Alcotest.(check bool) "published_stats = stats" true
    (Ms2.Api.published_stats () = s);
  Alcotest.(check (triple int int int))
    "speculated, committed, revalidated" (15, 12, 3)
    (s.fragments_speculated, s.fragments_committed, s.fragments_revalidated);
  (* the run leaves most counters at 0, where a missing row would read
     back right by accident: publish a record whose every field is set.
     The memo counters are the registry's own, not published. *)
  let t = Ms2.Api.stats_of_counters String.length in
  t.pattern_memo_hits <- s.pattern_memo_hits;
  t.pattern_memo_misses <- s.pattern_memo_misses;
  t.firstset_memo_hits <- s.firstset_memo_hits;
  t.firstset_memo_misses <- s.firstset_memo_misses;
  Ms2.Api.publish_metrics [ t ];
  Alcotest.(check bool) "every field published" true
    (Ms2.Api.published_stats () = t)

(* A macro-generating macro invoked mid-run: the invocation looks pure
   to the pre-scanner, but expanding it registers a macro, so the
   worker observes a definition-version bump and aborts; committing its
   sequential re-expansion moves the version, so every later fragment
   of the run fails commit validation and revalidates too.

   The pre-scanner merges [def_tracer gen_one;] into the preceding
   function's fragment (an identifier after [}] may continue a
   [struct {...} name;] declaration), so the run has 8 fragments, not
   9: u0..u2 commit, [u3 + gen_one] aborts, u4..u7 version-fail. *)
let generator_source =
  "syntax exp DBL {| ( $$exp::e ) |} { return `( (2 * $(e)) ); }\n\
   syntax decl def_tracer [] {| $$id::name ; |}\n\
   {\n\
   return list(`[syntax stmt $name {| ( $$exp::e ) ; |}\n\
   {\n\
   return `{ $e; };\n\
   }]);\n\
   }\n\
   int u0(int x) { return DBL(x + 0); }\n\
   int u1(int x) { return DBL(x + 1); }\n\
   int u2(int x) { return DBL(x + 2); }\n\
   int u3(int x) { return DBL(x + 3); }\n\
   def_tracer gen_one;\n\
   int u4(int x) { return DBL(x + 4); }\n\
   int u5(int x) { return DBL(x + 5); }\n\
   int u6(int x) { return DBL(x + 6); }\n\
   int u7(int x) { return DBL(x + 7); }\n"

let generated_macro_abort () =
  let f = write_fixture "gen" generator_source in
  with_files [ f ] (fun files ->
      let c, _, _ =
        check_identity ~what:"mid-run macro definition" "" files
      in
      Alcotest.(check int) "clean exit" 0 c;
      let c4, _, err4 =
        run_cli
          (Printf.sprintf "expand --fragment-jobs 4 --stats \
                           --stats-format=json %s"
             (List.hd files))
      in
      Alcotest.(check int) "stats run exit" 0 c4;
      let s, k, r = frag_counters err4 in
      Alcotest.(check int) "8 fragments speculated" 8 s;
      Alcotest.(check int) "3 committed ahead of the definition" 3 k;
      Alcotest.(check int) "defining + poisoned fragments revalidated" 5 r)

(* Ten pure fragments that call a top-level meta function.  Workers
   roll back onto the run-start checkpoint as it is, meta function
   included, so every fragment commits. *)
let meta_function_source =
  "metadcl int twice(int x) { return x * 2; }\n\
   syntax exp TW {| ( $$num::n ) |} { return make_num(twice(num_value(n))); }\n"
  ^ String.concat ""
      (List.init 10 (fun i ->
           Printf.sprintf "int m%d(int x) { return x + TW(%d); }\n" i i))

let meta_function_commits () =
  let f = write_fixture "metafn" meta_function_source in
  with_files [ f ] (fun files ->
      let _, out, _ = check_identity ~jobs:2 ~what:"meta function" "" files in
      Alcotest.(check bool) "expansion really happened" true
        (contains ~sub:"x + 18" out);
      let c, _, err =
        run_cli
          (Printf.sprintf "expand --fragment-jobs 2 --stats \
                           --stats-format=json %s"
             (List.hd files))
      in
      Alcotest.(check int) "stats run exit" 0 c;
      Alcotest.(check (triple int int int)) "all ten commit" (10, 10, 0)
        (frag_counters err))

(* A fragment that stores a lambda with captured locals in a global
   commits: the global holds the captured bindings by value, so nothing
   is shared with the worker that made it.  Of the eleven speculated
   fragments only [k1] re-expands: on its worker, [keep] was not yet
   set. *)
let escaped_lambda_commits () =
  let src =
    "metadcl int keep(int x);\n\
     syntax exp setk {| ( $$num::n ) |} {\n\
     int base = num_value(n);\n\
     keep = (int y; y + base);\n\
     return make_num(0);\n\
     }\n\
     syntax exp callk {| ( ) |} { return make_num(keep(1)); }\n\
     int k0 = setk(5);\n"
    ^ String.concat ""
        (List.init 9 (fun i -> Printf.sprintf "int p%d = %d;\n" i i))
    ^ "int k1 = callk();\n"
  in
  let f = write_fixture "escaped" src in
  with_files [ f ] (fun files ->
      let _, out, _ = check_identity ~jobs:2 ~what:"escaped lambda" "" files in
      Alcotest.(check bool) "the lambda kept its local" true
        (contains ~sub:"k1 = 6" out);
      let c, _, err =
        run_cli
          (Printf.sprintf "expand --fragment-jobs 2 --stats \
                           --stats-format=json %s"
             (List.hd files))
      in
      Alcotest.(check int) "stats run exit" 0 c;
      Alcotest.(check (triple int int int)) "ten of eleven commit"
        (11, 10, 1) (frag_counters err);
      Alcotest.(check int) "no foreign_closure abort" 0
        (metric "fragments.abort.foreign_closure" err))

(* The speculation threshold: a file needs at least eight top-level
   fragments before [--fragment-jobs 2] speculates.  Seven pure
   functions stay on the sequential walk; eight speculate, and all
   commit.  Either way the output matches [--fragment-jobs 1]. *)
let pure_source n =
  String.concat ""
    (List.init n (fun i ->
         Printf.sprintf "int pure%d(int x) { return x + %d; }\n" i i))

let fragment_threshold () =
  let speculated n =
    let f = write_fixture (Printf.sprintf "pure%d" n) (pure_source n) in
    with_files [ f ] (fun files ->
        ignore
          (check_identity ~jobs:2
             ~what:(Printf.sprintf "%d pure fragments" n) "" files);
        let c, _, err =
          run_cli
            (Printf.sprintf
               "expand --fragment-jobs 2 --stats --stats-format=json %s"
               (List.hd files))
        in
        Alcotest.(check int) "stats run exit" 0 c;
        let s, _, _ = frag_counters err in
        s)
  in
  Alcotest.(check int) "7 fragments: sequential walk" 0 (speculated 7);
  Alcotest.(check bool) "8 fragments: speculation runs" true (speculated 8 > 0)

(* A typedef halfway down a unit of fresh names is a barrier, so the
   second half speculates from a run-start state holding the first
   half's 4,000 names.  A fragment's commit diff must cost what the
   fragment wrote, not that state: diffing the whole top scope per
   fragment made [--fragment-jobs 2] about 15x slower than the
   sequential walk at this size.  Best of three keeps jitter out. *)
let mid_barrier_speculation () =
  let lines = 8000 in
  let b = Buffer.create (lines * 32) in
  for i = 0 to lines - 1 do
    if i = lines / 2 then Buffer.add_string b "typedef int mid_t;\n";
    Printf.bprintf b "int fresh_%d_x = %d;\n" i i
  done;
  let f = write_fixture "mid" (Buffer.contents b) in
  with_files [ f ] (fun files ->
      let file = List.hd files in
      let best jobs =
        let run () =
          let t0 = Unix.gettimeofday () in
          let c, out, _ =
            run_cli (Printf.sprintf "expand --fragment-jobs %d %s" jobs file)
          in
          Alcotest.(check int) (Printf.sprintf "exit at %d jobs" jobs) 0 c;
          (Unix.gettimeofday () -. t0, out)
        in
        let runs = List.init 3 (fun _ -> run ()) in
        (List.fold_left (fun m (t, _) -> Float.min m t) infinity runs,
         snd (List.hd runs))
      in
      let t1, out1 = best 1 and t2, out2 = best 2 in
      Alcotest.(check string) "byte-identical output" out1 out2;
      if t2 > 3. *. t1 then
        Alcotest.failf
          "--fragment-jobs 2 took %.3f s, %.1fx the sequential %.3f s" t2
          (t2 /. t1) t1)

(* Block-scale ledger: a pool item is a block of consecutive fragments,
   so a worker meets anonymous structs (a gensym-mint abort), pointer
   tests that read variables (stale once an anonymous struct re-expands
   and writes one) and a macro-generating invocation (a definition bump
   that fails every later fragment) in the middle of its blocks.  Every
   fragment's verdict must still be what a lone speculation of it from
   the run-start state gets, so the ledger is the same at every
   [--fragment-jobs] and was read off the per-fragment implementation.
   [MINTP(r)] mints only when [r] is a pointer, which it is after the
   fragment before it in its block but not in the run-start state: its
   verdict is a stale read, not a mint.  The pre-scanner folds
   [def_tracer gen_one;] into the fragment before it, so 1,999
   fragments speculate. *)
let block_source =
  let b = Buffer.create 80_000 in
  Buffer.add_string b
    "syntax exp DBL {| ( $$exp::e ) |} { return `( (2 * $(e)) ); }\n\
     syntax exp ISPTR {| ( $$exp::e ) |}\n\
     { if (is_pointer(e)) return `(1); return `(0); }\n\
     syntax exp MINTP {| ( $$exp::e ) |}\n\
     { if (is_pointer(e)) { @id t = gensym(\"t\"); } return `(0); }\n\
     syntax decl def_tracer [] {| $$id::name ; |}\n\
     {\n\
     return list(`[syntax stmt $name {| ( $$exp::e ) ; |}\n\
     {\n\
     return `{ $e; };\n\
     }]);\n\
     }\n\
     int *p0;\n";
  for i = 1 to 1999 do
    if i = 1950 then Buffer.add_string b "def_tracer gen_one;\n"
    else if i mod 100 = 37 then
      Printf.bprintf b "struct { int a; int b; } s%d;\n" i
    else if i mod 50 = 11 then Printf.bprintf b "int q%d = ISPTR(p0);\n" i
    else if i mod 100 = 73 then Printf.bprintf b "int *r%d;\n" i
    else if i mod 100 = 74 then
      Printf.bprintf b "int m%d = MINTP(r%d);\n" i (i - 1)
    else Printf.bprintf b "int u%d(int x) { return DBL(x + %d); }\n" i i
  done;
  Buffer.contents b

let block_ledger () =
  let f = write_fixture "blocks" block_source in
  with_files [ f ] (fun files ->
      let file = List.hd files in
      List.iter
        (fun jobs ->
          let c, out, _ =
            check_identity ~jobs
              ~what:(Printf.sprintf "blocks at %d jobs" jobs) "" files
          in
          Alcotest.(check int) "clean exit" 0 c;
          Alcotest.(check bool) "expansion really happened" true
            (contains ~sub:"2 * (x + 1999)" out);
          let c, _, err =
            run_cli
              (Printf.sprintf
                 "expand --fragment-jobs %d --stats --stats-format=json %s"
                 jobs file)
          in
          Alcotest.(check int) "stats run exit" 0 c;
          let what s = Printf.sprintf "%s at %d jobs" s jobs in
          Alcotest.(check (triple int int int))
            (what "speculated, committed, revalidated")
            (1999, 1871, 128) (frag_counters err);
          Alcotest.(check (list int))
            (what "defs_bump, gensym_mint, meta_decl, stale_read")
            [ 1; 20; 0; 107 ]
            (List.map
               (fun cause -> metric ("fragments.abort." ^ cause) err)
               [ "defs_bump"; "gensym_mint"; "meta_decl"; "stale_read" ]))
        [ 2; 4 ])

(* A committed fragment's delta keeps a rewrite that restores the
   run-start value.  [mk x] mints a name, so it re-expands on the main
   engine and makes [x] a long there; the [int x;] after it commits,
   and must put [x] back to int although int is what the run-start
   state held.  A delta that dropped the rewrite as unchanged left [x]
   a long, and the stale-read re-expansion of [q] printed [long]. *)
let redeclaration_commits () =
  let src =
    "syntax exp TN {| ( $$exp::e ) |}\n\
     { return `($(make_id(type_name_of(e)))); }\n\
     syntax decl mk [] {| $$id::n ; |}\n\
     { @id t = gensym(\"t\"); return list(`[long $n;]); }\n\
     int x;\n\
     typedef int t0;\n\
     mk x;\n\
     int x;\n"
    ^ String.concat "" (List.init 6 (fun i -> Printf.sprintf "int p%d;\n" i))
    ^ "int q = TN(x);\n"
  in
  let f = write_fixture "redecl" src in
  with_files [ f ] (fun files ->
      let _, out, _ = check_identity ~jobs:2 ~what:"redeclaration" "" files in
      Alcotest.(check bool) "x is an int again" true
        (contains ~sub:"int q = int;" out))

(* ------------------------------------------------------------------ *)
(* Corpus-wide byte-identity                                           *)
(* ------------------------------------------------------------------ *)

let repo_corpus_identity () =
  (* every prelude-marked file of the golden corpus, in one run *)
  let dir = "corpus" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mc")
    |> List.sort compare
    |> List.filter_map (fun f ->
           let path = Filename.concat dir f in
           let text = read_file path in
           let first =
             match String.index_opt text '\n' with
             | Some i -> String.sub text 0 i
             | None -> text
           in
           if contains ~sub:"ms2: prelude" first
              && not (contains ~sub:"hygienic" first)
           then Some path
           else None)
  in
  if List.length files < 2 then ()
  else
    ignore
      (check_identity ~what:"golden corpus" "--prelude --keep-going" files)

let fault_corpus_identity () =
  (* the whole fault corpus at the default watchdog deadline: fragment
     mode must report the same diagnostics in the same order (tight
     [--timeout-ms] values are avoided on purpose — wall-clock deadlines
     are racy under load and would flake independently of fragments) *)
  let dir = Filename.concat "corpus" "faults" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mc")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  in
  if files = [] then ()
  else ignore (check_identity ~what:"fault corpus" "--keep-going" files)

let sourcemap_and_line_directives () =
  let f = write_fixture "map" synthetic_source in
  with_files [ f ] (fun files ->
      let file = List.hd files in
      let map1 = Filename.temp_file "ms2c_fr_map1" ".json" in
      let map4 = Filename.temp_file "ms2c_fr_map4" ".json" in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun p -> try Sys.remove p with _ -> ()) [ map1; map4 ])
        (fun () ->
          let c1, out1, _ =
            run_cli
              (Printf.sprintf
                 "expand --fragment-jobs 1 --line-directives --sourcemap %s %s"
                 map1 file)
          in
          let c4, out4, _ =
            run_cli
              (Printf.sprintf
                 "expand --fragment-jobs 4 --line-directives --sourcemap %s %s"
                 map4 file)
          in
          Alcotest.(check int) "sequential exit" 0 c1;
          Alcotest.(check int) "fragment exit" 0 c4;
          Alcotest.(check bool) "line directives present" true
            (contains ~sub:"#line" out1);
          Alcotest.(check string) "directive output identical" out1 out4;
          Alcotest.(check string) "source maps byte-identical"
            (read_file map1) (read_file map4)))

(* ------------------------------------------------------------------ *)
(* Chaos and degrade                                                   *)
(* ------------------------------------------------------------------ *)

let chaos_failpoint_rollback () =
  (* after=1 lets the deterministic file-entry hit pass, then every
     speculative worker hit fires: all executed fragments fail, all
     roll back and re-expand sequentially, and the output must still be
     byte-identical to a clean sequential run.  How many fragments the
     pool managed to start before cancellation is scheduling-dependent,
     so only the invariants are asserted exactly. *)
  let f = write_fixture "chaos" synthetic_source in
  with_files [ f ] (fun files ->
      let file = List.hd files in
      let c1, out1, _ = run_cli (Printf.sprintf "expand %s" file) in
      let c4, out4, err4 =
        run_cli
          (Printf.sprintf
             "expand --fragment-jobs 4 --failpoints engine/fragment=after=1 \
              --stats --stats-format=json %s"
             file)
      in
      Alcotest.(check int) "clean sequential exit" 0 c1;
      Alcotest.(check int) "chaos run still exits 0" 0 c4;
      Alcotest.(check string) "output identical despite injected failures"
        out1 out4;
      let s, k, r = frag_counters err4 in
      Alcotest.(check int) "nothing commits under chaos" 0 k;
      Alcotest.(check int) "every speculation rolled back" s r;
      Alcotest.(check bool) "speculation was attempted" true (s >= 1))

let trace_degrades_sequential () =
  let f = write_fixture "trace" synthetic_source in
  with_files [ f ] (fun files ->
      let file = List.hd files in
      let c1, out1, _ =
        run_cli (Printf.sprintf "expand --fragment-jobs 1 --trace %s" file)
      in
      let c4, out4, err4 =
        run_cli (Printf.sprintf "expand --fragment-jobs 4 --trace %s" file)
      in
      Alcotest.(check int) "sequential exit" 0 c1;
      Alcotest.(check int) "trace exit" 0 c4;
      Alcotest.(check string) "trace output identical" out1 out4;
      Alcotest.(check bool) "degrade announced once" true
        (contains ~sub:"fragments: expanding" err4
        && contains ~sub:"trace mode is on" err4))

let auto_fragment_jobs () =
  let f = write_fixture "auto" synthetic_source in
  with_files [ f ] (fun files ->
      let file = List.hd files in
      let c1, out1, _ = run_cli (Printf.sprintf "expand %s" file) in
      let ca, outa, _ =
        run_cli (Printf.sprintf "expand --fragment-jobs auto %s" file)
      in
      Alcotest.(check int) "auto exit" 0 ca;
      Alcotest.(check int) "sequential exit" 0 c1;
      Alcotest.(check string) "auto output identical" out1 outa)

let () =
  Alcotest.run "fragments"
    [
      ( "byte-identity",
        [
          Alcotest.test_case "synthetic corpus + exact counters" `Quick
            synthetic_identity;
          Alcotest.test_case "golden corpus (--prelude)" `Quick
            repo_corpus_identity;
          Alcotest.test_case "fault corpus diagnostics" `Quick
            fault_corpus_identity;
          Alcotest.test_case "source maps and --line-directives" `Quick
            sourcemap_and_line_directives;
        ] );
      ( "speculation",
        [
          Alcotest.test_case "mid-run macro definition aborts" `Quick
            generated_macro_abort;
          Alcotest.test_case "every stats field survives publish" `Quick
            stats_survive_publish;
          Alcotest.test_case "eight fragments before speculation" `Quick
            fragment_threshold;
          Alcotest.test_case "top-level meta function commits" `Quick
            meta_function_commits;
          Alcotest.test_case "escaped lambda commits" `Quick
            escaped_lambda_commits;
          Alcotest.test_case "speculation after a mid-unit barrier is linear"
            `Quick mid_barrier_speculation;
          Alcotest.test_case "block-scale ledger is per fragment" `Quick
            block_ledger;
          Alcotest.test_case "a rewrite to the run-start value commits"
            `Quick redeclaration_commits;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "failpoint in workers rolls back" `Quick
            chaos_failpoint_rollback;
        ] );
      ( "degrade",
        [
          Alcotest.test_case "--trace falls back sequential" `Quick
            trace_degrades_sequential;
          Alcotest.test_case "--fragment-jobs auto" `Quick auto_fragment_jobs;
        ] );
    ]
