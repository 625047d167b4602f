(** [--fragment-jobs] is accepted and ignored: every unit expands in one
    sequential walk, each definition taking effect for the code after
    it.

    - the ignored flag: [ms2c expand --fragment-jobs 2] and
      [--fragment-jobs auto] exit as a run without the flag does, with
      byte-identical output, diagnostics, [--stats], source maps and
      [--line-directives] output, on a synthetic file, the golden
      [--prelude] corpus and the fault corpus; [ms2c serve] rejects the
      flag as a usage error;
    - sequential goldens: outputs of fixtures no other suite pins, at
      the default flags;
    - every field of [Api.stats] survives a publish to the metrics
      registry and a read back. *)

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

(* Run [expand FLAGS FILES] without [--fragment-jobs] and with it at 2
   and auto, asserting exit code, stdout and stderr are byte-identical;
   returns the run without the flag. *)
let check_identity ~what (flags : string) (files : string list) =
  let args = String.concat " " files in
  let ((c0, out0, err0) as base) =
    run_cli (Printf.sprintf "expand %s %s" flags args)
  in
  List.iter
    (fun jobs ->
      let c, out, err =
        run_cli
          (Printf.sprintf "expand --fragment-jobs %s %s %s" jobs flags args)
      in
      let what = Printf.sprintf "%s, --fragment-jobs %s" what jobs in
      Alcotest.(check int) (what ^ ": same exit code") c0 c;
      Alcotest.(check string) (what ^ ": byte-identical output") out0 out;
      Alcotest.(check string) (what ^ ": byte-identical stderr") err0 err)
    [ "2"; "auto" ];
  base

(* One macro definition, twelve uses, three anonymous-struct
   declarations. *)
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
      let c, out, err =
        check_identity ~what:"synthetic corpus" "--stats --stats-format=json"
          files
      in
      Alcotest.(check int) "clean exit" 0 c;
      Alcotest.(check bool) "expansion really happened" true
        (contains ~sub:"2 * (x + 11)" out);
      Alcotest.(check (pair int int)) "macros defined, invocations expanded"
        (1, 12)
        (metric "engine.macros_defined" err,
         metric "engine.invocations_expanded" err))

(* Every field of [Api.stats] has a row in the one counter table:
   publishing an engine's counters and reading them back off the
   registry gives the same record. *)
let stats_survive_publish () =
  Ms2_support.Obs.Metrics.reset ();
  let e = Ms2.Api.create_engine () in
  let u = Ms2.Api.expand_unit e ~source:"synth.mc" synthetic_source in
  Alcotest.(check bool) "expanded" true (Option.is_none u.Ms2.Api.u_fatal);
  let s = Ms2.Api.stats e in
  Ms2.Api.publish_metrics [ s ];
  Alcotest.(check bool) "published_stats = stats" true
    (Ms2.Api.published_stats () = s);
  Alcotest.(check int) "invocations expanded" 12 s.invocations_expanded;
  (* the run leaves most counters at 0, where a missing row would read
     back right by accident: publish a record whose every field is set.
     The memo counters are the registry's own, not published, and the
     [fragments_*] fields are constant 0. *)
  let t = Ms2.Api.stats_of_counters String.length in
  t.pattern_memo_hits <- s.pattern_memo_hits;
  t.pattern_memo_misses <- s.pattern_memo_misses;
  t.firstset_memo_hits <- s.firstset_memo_hits;
  t.firstset_memo_misses <- s.firstset_memo_misses;
  Ms2.Api.publish_metrics [ t ];
  Alcotest.(check bool) "every field published" true
    (Ms2.Api.published_stats () = t)

(* A macro-generating macro invoked mid-unit registers [gen_one] and
   emits nothing; the functions on either side expand as usual. *)
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

let generated_macro_golden () =
  let f = write_fixture "gen" generator_source in
  with_files [ f ] (fun files ->
      let c, out, err =
        run_cli (Printf.sprintf "expand %s" (List.hd files))
      in
      Alcotest.(check int) "clean exit" 0 c;
      Alcotest.(check string) "no diagnostics" "" err;
      Alcotest.(check string) "golden"
        (String.concat "\n"
           (List.init 8 (fun i ->
                Printf.sprintf "int u%d(int x)\n{\n  return 2 * (x + %d);\n}\n"
                  i i)))
        out)

(* [mk x] makes [x] a long; the [int x;] after it makes it an int
   again, and [TN(x)] reads the type the walk has at that point. *)
let redeclaration_golden () =
  let src =
    "syntax exp TN {| ( $$exp::e ) |}\n\
     { return `($(make_id(type_name_of(e)))); }\n\
     syntax decl mk [] {| $$id::n ; |}\n\
     { @id t = gensym(\"t\"); return list(`[long $n;]); }\n\
     int x;\n\
     typedef int t0;\n\
     mk x;\n\
     int x;\n\
     int p0;\n\
     int q = TN(x);\n"
  in
  let f = write_fixture "redecl" src in
  with_files [ f ] (fun files ->
      let c, out, _ = run_cli (Printf.sprintf "expand %s" (List.hd files)) in
      Alcotest.(check int) "clean exit" 0 c;
      Alcotest.(check string) "golden"
        "int x;\n\n\
         typedef int t0;\n\n\
         long x;\n\n\
         int x;\n\n\
         int p0;\n\n\
         int q = int;\n"
        out)

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
  (* the whole fault corpus at the default watchdog deadline (tight
     [--timeout-ms] values are avoided on purpose: wall-clock deadlines
     are racy under load and would flake independently of the flag) *)
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
      let map0 = Filename.temp_file "ms2c_fr_map0" ".json" in
      let map2 = Filename.temp_file "ms2c_fr_map2" ".json" in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun p -> try Sys.remove p with _ -> ()) [ map0; map2 ])
        (fun () ->
          let c0, out0, _ =
            run_cli
              (Printf.sprintf "expand --line-directives --sourcemap %s %s"
                 map0 file)
          in
          let c2, out2, _ =
            run_cli
              (Printf.sprintf
                 "expand --fragment-jobs 2 --line-directives --sourcemap %s %s"
                 map2 file)
          in
          Alcotest.(check int) "exit without the flag" 0 c0;
          Alcotest.(check int) "exit with the flag" 0 c2;
          Alcotest.(check bool) "line directives present" true
            (contains ~sub:"#line" out0);
          Alcotest.(check string) "directive output identical" out0 out2;
          Alcotest.(check string) "source maps byte-identical"
            (read_file map0) (read_file map2)))

(* ------------------------------------------------------------------ *)
(* The flag                                                            *)
(* ------------------------------------------------------------------ *)

(* [--fragment-jobs auto] resolves to nothing: the one sequential walk. *)
let auto_fragment_jobs () =
  let f = write_fixture "auto" synthetic_source in
  with_files [ f ] (fun files ->
      let c, _, _ = check_identity ~what:"auto" "" files in
      Alcotest.(check int) "clean exit" 0 c)

let serve_rejects_flag () =
  let c, _, err = run_cli "serve --fragment-jobs 2 < /dev/null" in
  Alcotest.(check int) "usage error" 124 c;
  Alcotest.(check bool) "names the option" true
    (contains ~sub:"fragment-jobs" err)

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
      ( "degrade",
        [
          Alcotest.test_case "--fragment-jobs auto" `Quick auto_fragment_jobs;
          Alcotest.test_case "serve rejects --fragment-jobs" `Quick
            serve_rejects_flag;
        ] );
      ( "sequential walk",
        [
          Alcotest.test_case "a macro generated mid-unit" `Quick
            generated_macro_golden;
          Alcotest.test_case "a later redeclaration wins" `Quick
            redeclaration_golden;
        ] );
      ( "counters",
        [
          Alcotest.test_case "every stats field survives publish" `Quick
            stats_survive_publish;
        ] );
    ]
