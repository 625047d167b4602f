(** Determinism and merged-telemetry properties of the shared-memory
    domain pool ([--jobs N --jobs-mode=domains], the default parallel
    mode):

    - corpus-wide byte-identity: output, source maps and diagnostic
      order from a domain pool match [--jobs 1] exactly, clean or
      failing, with or without [--keep-going];
    - first-fatal semantics: without [--keep-going] a parallel run
      reports the {e first} fatal file in input order — the
      work-stealing pool must not report whichever fatal a worker
      happened to reach first;
    - chaos: armed failpoints (error and watchdog-timeout triggers)
      fire inside domain workers with the same diagnostics and exit
      codes as the sequential pipeline;
    - merged cache counters: engines on different domains share one
      cache store, so [--stats] reports merged hits, not per-worker
      zeros. *)

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
  let out = Filename.temp_file "ms2c_mc" ".out" in
  let err = Filename.temp_file "ms2c_mc" ".err" in
  let code =
    Sys.command (Printf.sprintf "%s %s > %s 2> %s" ms2c args out err)
  in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

let write_fixture name text =
  let path = Filename.temp_file ("ms2c_mc_" ^ name) ".mc" in
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

(* Self-contained files exercising distinct pipeline layers: plain
   macros, meta functions with interpreter work, generated macros. *)
let macro_file i =
  write_fixture
    (Printf.sprintf "m%d" i)
    (Printf.sprintf
       "syntax exp DBL%d {| ( $$exp::e ) |} { return `($e + $e); }\n\
        int f%d(int x) { return DBL%d(x * %d); }\n"
       i i i (i + 1))

let meta_file i =
  write_fixture
    (Printf.sprintf "t%d" i)
    (Printf.sprintf
       "@exp dbl%d(@exp e) { return `($e + $e); }\n\
        syntax exp MID%d {| ( $$exp::e ) |} { return dbl%d(e); }\n\
        int g%d(int y) { return MID%d(y - %d); }\n"
       i i i i i (i + 1))

let bad_file i =
  write_fixture (Printf.sprintf "bad%d" i) (Printf.sprintf "int b%d( { ;\n" i)

(* A file whose macro fails at expansion time: recovered under
   --keep-going, so the file still produces output. *)
let erroring_file i =
  write_fixture
    (Printf.sprintf "r%d" i)
    (Printf.sprintf
       "syntax exp BAD%d {| $$exp::a |} { error(\"boom\"); return a; }\n\
        int r%d(int a) { return BAD%d(a); }\n"
       i i i)

(* Run the same invocation at --jobs 1 and on a domain pool, asserting
   exit code, stdout and stderr are byte-identical; returns the
   sequential triple for additional checks. *)
let check_identity ?(jobs = 4) ~what (flags : string) (files : string list) =
  let args = String.concat " " files in
  let c1, out1, err1 =
    run_cli (Printf.sprintf "expand --jobs 1 %s %s" flags args)
  in
  let cn, outn, errn =
    run_cli
      (Printf.sprintf "expand --jobs %d --jobs-mode=domains %s %s" jobs flags
         args)
  in
  Alcotest.(check int) (what ^ ": same exit code") c1 cn;
  Alcotest.(check string) (what ^ ": byte-identical output") out1 outn;
  Alcotest.(check string) (what ^ ": byte-identical diagnostics") err1 errn;
  (c1, out1, err1)

(* ------------------------------------------------------------------ *)
(* Corpus-wide byte-identity                                           *)
(* ------------------------------------------------------------------ *)

let corpus_identity () =
  let files =
    List.concat_map (fun i -> [ macro_file i; meta_file i ]) [ 1; 2; 3; 4 ]
  in
  with_files files (fun files ->
      let c, out, _ = check_identity ~what:"mixed corpus" "" files in
      Alcotest.(check int) "clean corpus exits 0" 0 c;
      Alcotest.(check bool) "expansion really happened" true
        (contains ~sub:"x * 2 + x * 2" out || contains ~sub:"+" out))

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
           (* non-hygienic prelude files expand under one flag set *)
           if contains ~sub:"ms2: prelude" first
              && not (contains ~sub:"hygienic" first)
           then Some path
           else None)
  in
  if List.length files < 2 then ()
  else
    ignore
      (check_identity ~what:"golden corpus" "--prelude --keep-going" files)

let sourcemap_identity () =
  let files = [ macro_file 1; macro_file 2; meta_file 3 ] in
  with_files files (fun files ->
      let args = String.concat " " files in
      let map1 = Filename.temp_file "ms2c_mc_map1" ".json" in
      let mapn = Filename.temp_file "ms2c_mc_mapn" ".json" in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun f -> try Sys.remove f with _ -> ()) [ map1; mapn ])
        (fun () ->
          let c1, out1, _ =
            run_cli
              (Printf.sprintf "expand --jobs 1 --sourcemap %s %s" map1 args)
          in
          let cn, outn, _ =
            run_cli
              (Printf.sprintf
                 "expand --jobs 3 --jobs-mode=domains --sourcemap %s %s" mapn
                 args)
          in
          Alcotest.(check int) "sequential exit" 0 c1;
          Alcotest.(check int) "domains exit" 0 cn;
          Alcotest.(check string) "output identical" out1 outn;
          Alcotest.(check string) "source maps byte-identical"
            (read_file map1) (read_file mapn)))

(* ------------------------------------------------------------------ *)
(* Failure determinism                                                 *)
(* ------------------------------------------------------------------ *)

let first_fatal_in_input_order () =
  (* two fatal files; the pool must report the one that is first in
     input order even if a worker finishes the later one first, and
     must not leak output (exit 1 path) *)
  let files =
    [ macro_file 1; bad_file 2; macro_file 3; bad_file 4; macro_file 5 ]
  in
  with_files files (fun files ->
      let c, out, err = check_identity ~what:"fatal stop" "" files in
      Alcotest.(check int) "fatal exits 1" 1 c;
      Alcotest.(check string) "no output on fatal" "" out;
      Alcotest.(check bool) "first fatal file reported" true
        (contains ~sub:"int b2" err);
      Alcotest.(check bool) "later fatal not reached" false
        (contains ~sub:"int b4" err))

let keep_going_diag_order () =
  (* a recovered diagnostic ahead of a fatal file: both are reported
     in input order at every job count *)
  let files =
    [ erroring_file 0; bad_file 1; macro_file 2; bad_file 3; meta_file 4;
      bad_file 5 ]
  in
  with_files files (fun files ->
      let c, _, err =
        check_identity ~what:"keep-going sweep" "--keep-going" files
      in
      Alcotest.(check int) "degraded exits 3" 3 c;
      Alcotest.(check bool) "recovered error reported" true
        (contains ~sub:"macro error: boom" err);
      List.iter
        (fun i ->
          Alcotest.(check bool)
            (Printf.sprintf "b%d reported" i)
            true
            (contains ~sub:(Printf.sprintf "int b%d" i) err))
        [ 1; 3; 5 ])

(* ------------------------------------------------------------------ *)
(* Chaos inside domain workers                                         *)
(* ------------------------------------------------------------------ *)

let failpoint_error_in_domains () =
  (* [engine/fragment=error] fires identically for every file, so the
     armed-failpoint path (including its cache bypass) stays
     deterministic under the pool *)
  let files = [ macro_file 1; macro_file 2; macro_file 3 ] in
  with_files files (fun files ->
      let c, _, err =
        check_identity ~what:"failpoint chaos"
          "--failpoints engine/fragment=error --keep-going" files
      in
      Alcotest.(check int) "all files degraded" 3 c;
      Alcotest.(check bool) "failpoint diagnostic surfaced" true
        (contains ~sub:"failpoint" err))

let watchdog_timeout_in_domains () =
  (* a stalled interpreter step inside a domain worker must be cut by
     the per-engine watchdog, not hang the pool *)
  let files = [ meta_file 1; macro_file 2 ] in
  with_files files (fun files ->
      let args = String.concat " " files in
      let c, _, err =
        run_cli
          (Printf.sprintf
             "expand --jobs 2 --jobs-mode=domains --timeout-ms 400 \
              --failpoints interp/step=timeout --keep-going %s"
             args)
      in
      Alcotest.(check int) "watchdog degrades, not hangs" 3 c;
      Alcotest.(check bool) "timeout diagnostic surfaced" true
        (contains ~sub:"deadline exceeded" err))

(* ------------------------------------------------------------------ *)
(* Merged telemetry                                                    *)
(* ------------------------------------------------------------------ *)

let merged_cache_counters () =
  let f = macro_file 1 in
  with_files [ f ] (fun _ ->
      (* the same file four times across two domains: whichever engine
         expands it first feeds every other through the shared store *)
      let c, _, err =
        run_cli
          (Printf.sprintf
             "expand --jobs 2 --jobs-mode=domains --stats %s %s %s %s" f f f
             f)
      in
      Alcotest.(check int) "clean exit" 0 c;
      Alcotest.(check bool) "stats name the pool mode" true
        (contains ~sub:"jobs: 2 (domains)" err);
      let hits =
        (* first "cache hits: N" line of the text stats *)
        let rec find i =
          match String.index_from_opt err i 'c' with
          | None -> 0
          | Some j ->
              let tag = "cache hits: " in
              if
                j + String.length tag <= String.length err
                && String.sub err j (String.length tag) = tag
              then
                int_of_string
                  (String.sub err
                     (j + String.length tag)
                     (String.index_from err (j + String.length tag) '\n'
                     - j - String.length tag))
              else find (j + 1)
        in
        find 0
      in
      Alcotest.(check bool) "merged hit counter is non-zero" true (hits > 0))

let jobs_meta_in_metrics () =
  let files = [ macro_file 1; macro_file 2 ] in
  with_files files (fun files ->
      let args = String.concat " " files in
      let metrics = Filename.temp_file "ms2c_mc_metrics" ".json" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove metrics with _ -> ())
        (fun () ->
          let c, _, _ =
            run_cli
              (Printf.sprintf
                 "expand --jobs 2 --jobs-mode=domains --metrics %s -o \
                  /dev/null %s"
                 metrics args)
          in
          Alcotest.(check int) "clean exit" 0 c;
          let m = read_file metrics in
          Alcotest.(check bool) "resolved job count recorded" true
            (contains ~sub:"\"driver.jobs\": 2" m);
          Alcotest.(check bool) "pool mode recorded" true
            (contains ~sub:"\"driver.jobs_mode.domains\": 1" m)))

let () =
  Alcotest.run "multicore"
    [
      ( "byte-identity",
        [
          Alcotest.test_case "mixed corpus" `Quick corpus_identity;
          Alcotest.test_case "golden corpus (--prelude)" `Quick
            repo_corpus_identity;
          Alcotest.test_case "source maps" `Quick sourcemap_identity;
        ] );
      ( "failure determinism",
        [
          Alcotest.test_case "first fatal in input order" `Quick
            first_fatal_in_input_order;
          Alcotest.test_case "--keep-going diagnostic order" `Quick
            keep_going_diag_order;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "failpoint error in workers" `Quick
            failpoint_error_in_domains;
          Alcotest.test_case "watchdog timeout in workers" `Quick
            watchdog_timeout_in_domains;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "merged cache counters" `Quick
            merged_cache_counters;
          Alcotest.test_case "jobs metadata in --metrics" `Quick
            jobs_meta_in_metrics;
        ] );
    ]
