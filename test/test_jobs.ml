(** CLI goldens for the parallel driver: [--jobs] exit codes (0 clean,
    3 degraded, 1 fatal, 124 usage), deterministic input-order
    diagnostics and output, and the [--no-cache] ablation. *)

let ms2c =
  if Sys.file_exists "../bin/ms2c.exe" then "../bin/ms2c.exe"
  else "_build/default/bin/ms2c.exe"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** Run [ms2c args] (with [env], e.g. ["VAR=value"], prepended),
    returning (exit code, stdout, stderr). *)
let run_cli ?(env = "") args =
  let out = Filename.temp_file "ms2c_jobs" ".out" in
  let err = Filename.temp_file "ms2c_jobs" ".err" in
  let code =
    Sys.command (Printf.sprintf "%s %s %s > %s 2> %s" env ms2c args out err)
  in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

let write_fixture name text =
  let path = Filename.temp_file ("ms2c_jobs_" ^ name) ".mc" in
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  path

(* Self-contained files (each defines the macro it uses), so their
   expansions are identical whether files share a session ([--jobs 1])
   or are independent compilation units ([--jobs N]). *)
let good_file i =
  write_fixture
    (Printf.sprintf "good%d" i)
    (Printf.sprintf
       "syntax exp TWICE%d {| ( $$exp::e ) |} { return `($e + $e); }\n\
        int f%d(int x) { return TWICE%d(x * 3); }\n"
       i i i)

let bad_file i =
  write_fixture (Printf.sprintf "bad%d" i) (Printf.sprintf "int b%d( { ;\n" i)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let index_of ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i =
    if i + n > m then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go 0

let with_files files k =
  Fun.protect
    ~finally:(fun () -> List.iter (fun f -> try Sys.remove f with _ -> ()) files)
    (fun () -> k files)

(* ------------------------------------------------------------------ *)
(* Clean runs                                                          *)
(* ------------------------------------------------------------------ *)

let clean_parallel_matches_sequential () =
  with_files [ good_file 1; good_file 2; good_file 3; good_file 4 ]
    (fun files ->
      let args = String.concat " " files in
      let c1, seq, e1 = run_cli (Printf.sprintf "expand --jobs 1 %s" args) in
      let c4, par, e4 = run_cli (Printf.sprintf "expand --jobs 4 %s" args) in
      Alcotest.(check int) "sequential exit 0" 0 c1;
      Alcotest.(check int) "parallel exit 0" 0 c4;
      Alcotest.(check string) "no sequential stderr" "" e1;
      Alcotest.(check string) "no parallel stderr" "" e4;
      Alcotest.(check string)
        "self-contained files expand identically in parallel" seq par;
      (* input order is preserved regardless of completion order *)
      let pos i = index_of ~sub:(Printf.sprintf "int f%d" i) par in
      List.iter
        (fun (a, b) ->
          match (pos a, pos b) with
          | Some pa, Some pb ->
              Alcotest.(check bool)
                (Printf.sprintf "f%d before f%d" a b)
                true (pa < pb)
          | _ -> Alcotest.fail "expected function missing from output")
        [ (1, 2); (2, 3); (3, 4) ])

let jobs_one_is_default_path () =
  with_files [ good_file 1; good_file 2 ] (fun files ->
      let args = String.concat " " files in
      let _, dflt, _ = run_cli (Printf.sprintf "expand %s" args) in
      let _, j1, _ = run_cli (Printf.sprintf "expand --jobs 1 %s" args) in
      Alcotest.(check string) "--jobs 1 is the sequential pipeline" dflt j1)

(* ------------------------------------------------------------------ *)
(* Failures                                                            *)
(* ------------------------------------------------------------------ *)

let fatal_exit_1_no_output () =
  with_files [ good_file 1; bad_file 2; good_file 3; good_file 4 ]
    (fun files ->
      let args = String.concat " " files in
      let code, out, err = run_cli (Printf.sprintf "expand --jobs 4 %s" args) in
      Alcotest.(check int) "fatal exits 1" 1 code;
      Alcotest.(check string) "no output on fatal" "" out;
      Alcotest.(check bool) "diagnostic names the bad file" true
        (contains ~sub:"syntax error" err))

let keep_going_exit_3_salvages () =
  with_files [ good_file 1; bad_file 2; good_file 3; good_file 4 ]
    (fun files ->
      let args = String.concat " " files in
      let code, out, err =
        run_cli (Printf.sprintf "expand --jobs 4 --keep-going %s" args)
      in
      Alcotest.(check int) "degraded exits 3" 3 code;
      Alcotest.(check bool) "diagnostic reported" true
        (contains ~sub:"syntax error" err);
      List.iter
        (fun i ->
          Alcotest.(check bool)
            (Printf.sprintf "f%d survives" i)
            true
            (contains ~sub:(Printf.sprintf "int f%d" i) out))
        [ 1; 3; 4 ];
      Alcotest.(check bool) "failed file contributes nothing" false
        (contains ~sub:"int b2" out))

let diagnostics_in_input_order () =
  with_files [ bad_file 1; good_file 2; bad_file 3; bad_file 4 ]
    (fun files ->
      let args = String.concat " " files in
      let code, _, err =
        run_cli (Printf.sprintf "expand --jobs 4 --keep-going %s" args)
      in
      Alcotest.(check int) "degraded exits 3" 3 code;
      let pos i = index_of ~sub:(Printf.sprintf "int b%d" i) err in
      List.iter
        (fun (a, b) ->
          match (pos a, pos b) with
          | Some pa, Some pb ->
              Alcotest.(check bool)
                (Printf.sprintf "b%d's diagnostic precedes b%d's" a b)
                true (pa < pb)
          | _ -> Alcotest.fail "expected diagnostic missing from stderr")
        [ (1, 3); (3, 4) ])

let jobs_zero_resolves_auto () =
  with_files [ good_file 1; good_file 2 ] (fun files ->
      let args = String.concat " " files in
      let c1, seq, _ = run_cli (Printf.sprintf "expand --jobs 1 %s" args) in
      let c0, auto0, _ = run_cli (Printf.sprintf "expand --jobs 0 %s" args) in
      let ca, autoa, _ =
        run_cli (Printf.sprintf "expand --jobs auto %s" args)
      in
      Alcotest.(check int) "--jobs 1 exits 0" 0 c1;
      Alcotest.(check int) "--jobs 0 resolves and exits 0" 0 c0;
      Alcotest.(check int) "--jobs auto resolves and exits 0" 0 ca;
      Alcotest.(check string) "--jobs 0 output matches --jobs 1" seq auto0;
      Alcotest.(check string) "--jobs auto output matches --jobs 1" seq autoa)

let jobs_negative_usage_error () =
  with_files [ good_file 1 ] (fun files ->
      let code, _, _ =
        run_cli (Printf.sprintf "expand --jobs -1 %s" (List.hd files))
      in
      Alcotest.(check int) "--jobs -1 is a usage error" 124 code;
      let code', _, _ =
        run_cli
          (Printf.sprintf "expand --jobs-mode=threads %s" (List.hd files))
      in
      Alcotest.(check int) "unknown --jobs-mode is a usage error" 124 code')

let fork_mode_matches_domains () =
  with_files [ good_file 1; good_file 2; good_file 3 ] (fun files ->
      let args = String.concat " " files in
      let cd, dom, ed =
        run_cli (Printf.sprintf "expand --jobs 3 --jobs-mode=domains %s" args)
      in
      let cf, frk, ef =
        run_cli (Printf.sprintf "expand --jobs 3 --jobs-mode=fork %s" args)
      in
      Alcotest.(check int) "domains exit 0" 0 cd;
      Alcotest.(check int) "fork exit 0" 0 cf;
      Alcotest.(check string) "fork output = domains output" dom frk;
      Alcotest.(check string) "fork stderr = domains stderr" ed ef)

(* ------------------------------------------------------------------ *)
(* Ablation                                                            *)
(* ------------------------------------------------------------------ *)

let no_cache_byte_identical () =
  with_files [ good_file 1; good_file 2 ] (fun files ->
      let args = String.concat " " files in
      let c1, cached, _ = run_cli (Printf.sprintf "expand %s %s" args args) in
      let c2, uncached, _ =
        run_cli (Printf.sprintf "expand --no-cache %s %s" args args)
      in
      Alcotest.(check int) "cached exit" 0 c1;
      Alcotest.(check int) "uncached exit" 0 c2;
      Alcotest.(check string) "--no-cache is byte-identical" cached uncached)

let stats_report_cache_counters () =
  with_files [ good_file 1 ] (fun files ->
      let f = List.hd files in
      (* the same file twice through the shared session: the second
         fragment replays from the cache *)
      let code, _, err =
        run_cli (Printf.sprintf "expand --stats %s %s %s" f f f)
      in
      Alcotest.(check int) "clean exit" 0 code;
      Alcotest.(check bool) "stats mention cache hits" true
        (contains ~sub:"cache hits:" err);
      Alcotest.(check bool) "no hits under --no-cache" true
        (let _, _, err' =
           run_cli (Printf.sprintf "expand --stats --no-cache %s %s" f f)
         in
         contains ~sub:"cache hits: 0" err'))

(* ------------------------------------------------------------------ *)
(* Statistics: one registry behind every rendering                     *)
(* ------------------------------------------------------------------ *)

module Json = Ms2_support.Json

(* The counters of an [ms2-metrics-1] document, by registry name. *)
let json_counters (doc : string) : string -> int =
  match Json.parse doc with
  | Error e -> Alcotest.failf "unparseable metrics JSON: %s" e
  | Ok v -> (
      match Json.member v "counters" with
      | None -> Alcotest.fail "metrics JSON has no counters"
      | Some c -> fun name ->
          (match Option.bind (Json.member c name) Json.int with
          | Some n -> n
          | None -> Alcotest.failf "metrics JSON lacks counter %s" name))

(* Every counter the text [--stats] block prints, as (registry name,
   value) pairs: each text line is matched against its registry names in
   order of appearance. *)
let text_counters (err : string) : (string * int) list =
  let ints line =
    let b = Buffer.create 8 and acc = ref [] in
    let flush () =
      if Buffer.length b > 0 then begin
        acc := int_of_string (Buffer.contents b) :: !acc;
        Buffer.clear b
      end
    in
    String.iter
      (fun c -> if c >= '0' && c <= '9' then Buffer.add_char b c else flush ())
      line;
    flush ();
    List.rev !acc
  in
  let lines =
    [ ("jobs: ", [ "driver.jobs" ]);
      ("macros defined: ", [ "engine.macros_defined" ]);
      ("meta declarations run: ", [ "engine.meta_declarations_run" ]);
      ("invocations expanded: ", [ "engine.invocations_expanded" ]);
      ("fuel consumed: ", [ "engine.fuel_consumed" ]);
      ("AST nodes produced: ", [ "engine.nodes_produced" ]);
      ("cache hits: ", [ "cache.hits" ]);
      ("cache misses: ", [ "cache.misses" ]);
      ("cache evictions: ", [ "cache.evictions" ]);
      ("cache bypasses: ", [ "cache.bypasses" ]);
      ("  bypassed for: ",
       [ "cache.bypass.trace"; "cache.bypass.failpoints";
         "cache.bypass.uncacheable"; "cache.bypass.budget" ]);
      ("fragments speculated: ",
       [ "fragments.speculated"; "fragments.committed";
         "fragments.revalidated" ]);
      ("  aborted for: ",
       [ "fragments.abort.defs_bump"; "fragments.abort.gensym_mint";
         "fragments.abort.meta_decl"; "fragments.abort.stale_read";
         "fragments.abort.foreign_closure" ]);
      ("pattern memo: ",
       [ "parser.pattern_memo.hits"; "parser.pattern_memo.misses";
         "pattern.firstset.memo_hits"; "pattern.firstset.memo_misses" ]) ]
  in
  List.concat_map
    (fun line ->
      match
        List.find_opt
          (fun (prefix, _) -> String.starts_with ~prefix line)
          lines
      with
      | None -> []
      | Some (_, names) ->
          let values = ints line in
          Alcotest.(check int)
            (Printf.sprintf "numbers on %S" line)
            (List.length names) (List.length values);
          List.combine names values)
    (String.split_on_char '\n' err)

(* A file whose 15 top-level uses speculate deterministically under
   --fragment-jobs 2: 12 commit, the 3 anonymous structs revalidate. *)
let speculating_file () =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "syntax exp TRPL {| ( $$exp::e ) |} { return `( (3 * $(e)) ); }\n";
  for i = 0 to 11 do
    Buffer.add_string b
      (Printf.sprintf "int u%d(int x) { return TRPL(x + %d); }\n" i i);
    if i mod 4 = 3 then
      Buffer.add_string b
        (Printf.sprintf "struct { int a; int b; } s%d;\n" i)
  done;
  write_fixture "spec" (Buffer.contents b)

let text_json_agree () =
  (* distinct self-contained files: every counter is deterministic (no
     cross-file cache traffic for the domain scheduler to reorder), and
     the engine totals do not depend on how many engines ran them — a
     shared engine is published once, not once per file *)
  with_files
    [ good_file 1; good_file 2; good_file 3; speculating_file () ]
    (fun files ->
      let args = String.concat " " files in
      let totals =
        List.map
          (fun mode ->
            let run fmt =
              let code, _, err =
                run_cli
                  (Printf.sprintf "expand %s --fragment-jobs 2 --stats %s %s"
                     mode fmt args)
              in
              Alcotest.(check int) (mode ^ " exit") 0 code;
              err
            in
            let text = text_counters (run "") in
            let json = json_counters (run "--stats-format=json") in
            Alcotest.(check bool)
              (mode ^ ": text prints the engine counters")
              true
              (List.mem_assoc "engine.invocations_expanded" text
              && List.mem_assoc "fragments.speculated" text);
            List.iter
              (fun (name, v) ->
                Alcotest.(check int) (Printf.sprintf "%s: %s" mode name)
                  v (json name))
              text;
            (mode, json))
          [ "--jobs 1"; "--jobs 2"; "--jobs 2 --jobs-mode=fork" ]
      in
      let _, seq = List.hd totals in
      List.iter
        (fun (mode, json) ->
          List.iter
            (fun name ->
              Alcotest.(check int)
                (Printf.sprintf "%s: %s as at --jobs 1" mode name)
                (seq name) (json name))
            [ "engine.invocations_expanded"; "engine.macros_defined";
              "engine.fuel_consumed"; "engine.nodes_produced";
              "fragments.speculated"; "fragments.committed";
              "fragments.revalidated" ])
        (List.tl totals))

(* A snapshot primed by an earlier batch replays under fork exactly as
   under domains: the forked workers' own hits are what --stats counts,
   and the parent's one snapshot load is what --metrics counts. *)
let fork_cache_file_counters () =
  let snap = Filename.temp_file "ms2c_jobs_snap" ".bin" in
  let metrics = Filename.temp_file "ms2c_jobs_metrics" ".json" in
  with_files
    [ good_file 1; good_file 2; good_file 3; snap; metrics ]
    (fun files ->
      let args = String.concat " " (List.filteri (fun i _ -> i < 3) files) in
      Sys.remove snap;
      let c, _, _ =
        run_cli
          (Printf.sprintf "expand --jobs 2 --cache-file %s %s" snap args)
      in
      Alcotest.(check int) "priming run" 0 c;
      List.iter
        (fun mode ->
          let c, _, err =
            run_cli
              (Printf.sprintf
                 "expand --jobs 2 --jobs-mode=%s --cache-file %s --stats \
                  --metrics %s %s"
                 mode snap metrics args)
          in
          Alcotest.(check int) (mode ^ " exit") 0 c;
          Alcotest.(check bool)
            (mode ^ ": every file replays from the snapshot")
            true
            (contains ~sub:"cache hits: 3\n" err);
          Alcotest.(check int)
            (mode ^ ": snapshot entries loaded once")
            3
            (json_counters (read_file metrics) "snapshot.load.entries"))
        [ "domains"; "fork" ])

(* A forked worker killed before it ships a result (the stand-in for an
   OOM kill) costs its file only: a located diagnostic, the other files'
   output, and statistics over the workers that did report. *)
let fork_worker_death () =
  with_files [ good_file 1; good_file 2; good_file 3 ] (fun files ->
      let args = String.concat " " files in
      let victim = List.nth files 1 in
      let env = Printf.sprintf "MS2_TEST_WORKER_KILL=%s" victim in
      let code, out, err =
        run_cli ~env
          (Printf.sprintf "expand --jobs 2 --jobs-mode=fork --keep-going \
                           --stats %s"
             args)
      in
      Alcotest.(check int) "degraded exits 3" 3 code;
      Alcotest.(check bool) "the death is diagnosed" true
        (contains ~sub:"killed by SIGKILL" err
        && contains ~sub:(Filename.basename victim) err);
      Alcotest.(check bool) "f1 and f3 survive" true
        (contains ~sub:"int f1" out && contains ~sub:"int f3" out);
      Alcotest.(check bool) "the lost file contributes nothing" false
        (contains ~sub:"int f2" out);
      Alcotest.(check bool) "stats cover the two surviving workers" true
        (contains ~sub:"invocations expanded: 2\n" err);
      let code, out, err =
        run_cli ~env (Printf.sprintf "expand --jobs 2 --jobs-mode=fork %s" args)
      in
      Alcotest.(check int) "fatal exits 1" 1 code;
      Alcotest.(check string) "no output on fatal" "" out;
      Alcotest.(check bool) "rerun hint" true
        (contains ~sub:"killed by SIGKILL" err
        && contains ~sub:"rerun with --keep-going" err))

let () =
  Alcotest.run "jobs"
    [
      ( "parallel driver",
        [
          Alcotest.test_case "clean run, input order" `Quick
            clean_parallel_matches_sequential;
          Alcotest.test_case "--jobs 1 is sequential" `Quick
            jobs_one_is_default_path;
          Alcotest.test_case "fatal exits 1, no output" `Quick
            fatal_exit_1_no_output;
          Alcotest.test_case "--keep-going exits 3" `Quick
            keep_going_exit_3_salvages;
          Alcotest.test_case "diagnostics in input order" `Quick
            diagnostics_in_input_order;
          Alcotest.test_case "--jobs 0/auto resolves" `Quick
            jobs_zero_resolves_auto;
          Alcotest.test_case "--jobs -1 usage error" `Quick
            jobs_negative_usage_error;
          Alcotest.test_case "--jobs-mode=fork parity" `Quick
            fork_mode_matches_domains;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "--no-cache byte-identical" `Quick
            no_cache_byte_identical;
          Alcotest.test_case "cache counters in --stats" `Quick
            stats_report_cache_counters;
        ] );
      ( "statistics",
        [
          Alcotest.test_case "text and JSON --stats agree" `Quick
            text_json_agree;
          Alcotest.test_case "fork --cache-file counters" `Quick
            fork_cache_file_counters;
          Alcotest.test_case "fork worker death" `Quick fork_worker_death;
        ] );
    ]
