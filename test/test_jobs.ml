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
      Alcotest.(check int) "--jobs -1 is a usage error" 124 code)

(* ------------------------------------------------------------------ *)
(* Ablation                                                            *)
(* ------------------------------------------------------------------ *)

(* Every way a run can hold the cache against [--no-cache]: a one-shot
   run (no store), then a cold and a warm [--cache-file] over one
   shared engine, the warm run replaying each of the repeated files. *)
let no_cache_byte_identical () =
  with_files [ good_file 1; good_file 2 ] (fun files ->
      let args = String.concat " " files in
      let expand flags =
        let code, out, err =
          run_cli (Printf.sprintf "expand %s %s %s" flags args args)
        in
        Alcotest.(check int) (flags ^ " exit") 0 code;
        (out, err)
      in
      let uncached, _ = expand "--no-cache" in
      Alcotest.(check string) "no store is byte-identical" uncached
        (fst (expand ""));
      Tutil.with_fresh_path @@ fun snap ->
      let cached () = expand (Printf.sprintf "--cache-file %s --stats" snap) in
      let cold, _ = cached () in
      Alcotest.(check string) "cold --cache-file is byte-identical" uncached
        cold;
      let warm, err = cached () in
      Alcotest.(check bool) "the warm run replays every file" true
        (contains ~sub:"cache hits: 4\n" err);
      Alcotest.(check string) "warm --cache-file is byte-identical" uncached
        warm)

let stats_report_cache_counters () =
  Tutil.with_fresh_path @@ fun snap ->
  with_files [ good_file 1 ] (fun files ->
      let f = List.hd files in
      (* the same file three times through the shared session, twice
         over one --cache-file (the store a one-shot run otherwise does
         not keep).  Within a run the file never replays: it redefines
         its macro, so each fragment meets a new session state.  The
         second run meets the states the first one stored, and replays. *)
      let run () =
        run_cli
          (Printf.sprintf "expand --cache-file %s --stats %s %s %s" snap f f f)
      in
      let _ = run () in
      let code, _, err = run () in
      Alcotest.(check int) "clean exit" 0 code;
      Alcotest.(check bool) "stats mention cache hits" true
        (contains ~sub:"cache hits:" err);
      let hits =
        match index_of ~sub:"cache hits: " err with
        | None -> 0
        | Some i ->
            Scanf.sscanf (String.sub err i (String.length err - i))
              "cache hits: %d" Fun.id
      in
      Alcotest.(check bool) "the repeated file replays" true (hits >= 1);
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
         "cache.bypass.budget" ]);
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

(* Two domains compile the same fresh patterns in lockstep: a spin
   barrier before each pattern sends both into the memo probe together,
   so they race on every pattern.  The process-global pattern memo must
   still count exactly one miss and one hit per pattern, whichever
   domain inserts: the flake this pins had both racers count a miss, so
   two runs of one batch could disagree.  Fewer patterns than the
   memo's 512-entry cap, so no reset interferes. *)
let pattern_memo_race () =
  let module Ast = Ms2_syntax.Ast in
  let counter name = Ms2_support.Obs.Metrics.(value (counter name)) in
  let hits () = counter "parser.pattern_memo.hits"
  and misses () = counter "parser.pattern_memo.misses" in
  let n = 200 in
  let pats =
    Array.init n (fun i ->
        Ast.Pe_token (Ms2_syntax.Token.IDENT (Printf.sprintf "memo_race_%d" i))
        :: List.init 20 (fun j ->
               Ast.Pe_binder
                 { b_spec = Ast.Ps_sort Ms2_mtype.Sort.Exp;
                   b_name = Ast.ident (Printf.sprintf "e%d" j) }))
  in
  let h0 = hits () and m0 = misses () in
  let arrived = Atomic.make 0 in
  let sweep () =
    Array.iteri
      (fun k pat ->
        Atomic.incr arrived;
        while Atomic.get arrived < 2 * (k + 1) do
          Domain.cpu_relax ()
        done;
        let (_ : Ms2_parser.State.compiled_pattern) =
          Ms2_parser.Parser.compile_pattern pat
        in
        ())
      pats
  in
  let d = Domain.spawn sweep in
  sweep ();
  Domain.join d;
  Alcotest.(check int) "one miss per pattern" n (misses () - m0);
  Alcotest.(check int) "one hit per pattern" n (hits () - h0)

let text_json_agree () =
  (* distinct self-contained files: every counter is deterministic (no
     cross-file cache traffic for the domain scheduler to reorder), and
     the engine totals do not depend on how many engines ran them — a
     shared engine is published once, not once per file *)
  Tutil.with_fresh_path @@ fun snap ->
  with_files
    [ good_file 1; good_file 2; good_file 3; speculating_file () ]
    (fun files ->
      let args = String.concat " " files in
      let totals =
        List.map
          (fun mode ->
            let run fmt =
              (* a --cache-file leg starts cold every run *)
              (try Sys.remove snap with Sys_error _ -> ());
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
          [ "--jobs 1"; "--jobs 2"; "--jobs 2 --cache-file " ^ snap ]
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

(* Per-file engines fork when the batch keeps no store and run on the
   domain pool when a --cache-file gives it one; either way the output
   and diagnostics are those of --jobs 1, cold or warm. *)
let substrate_follows_store () =
  Tutil.with_fresh_path @@ fun snap ->
  Tutil.with_fresh_path @@ fun metrics ->
  with_files [ good_file 1; bad_file 2; good_file 3 ] (fun files ->
      let args = String.concat " " files in
      let expand what flags =
        let code, out, err =
          run_cli
            (Printf.sprintf "expand --keep-going --metrics %s %s %s" metrics
               flags args)
        in
        Alcotest.(check int) (what ^ ": exit 3") 3 code;
        (out, err, json_counters (read_file metrics))
      in
      let substrate what m ~fork =
        Alcotest.(check (pair int int))
          (what ^ ": driver.jobs_mode.fork, .domains")
          (if fork then (1, 0) else (0, 1))
          (m "driver.jobs_mode.fork", m "driver.jobs_mode.domains")
      in
      let seq_out, seq_err, _ = expand "--jobs 1" "--jobs 1" in
      let cache = "--jobs 2 --cache-file " ^ snap in
      List.iter
        (fun (what, flags, fork) ->
          let out, err, m = expand what flags in
          substrate what m ~fork;
          Alcotest.(check string) (what ^ ": output = --jobs 1") seq_out out;
          Alcotest.(check string) (what ^ ": diagnostics = --jobs 1") seq_err
            err;
          if what = "warm" then
            Alcotest.(check int) "warm: both clean files replay" 2
              (m "cache.hits"))
        [ ("no store", "--jobs 2", true); ("cold", cache, false);
          ("warm", cache, false) ];
      (* nothing spawns a domain before the fork, which OCaml refuses
         after one: not the prelude load, not the fragment pool *)
      let _, _, m = expand "no store" "--jobs 2 --prelude --fragment-jobs 2" in
      substrate "--prelude --fragment-jobs 2" m ~fork:true;
      let code, _, _ =
        run_cli (Printf.sprintf "expand --jobs 2 --jobs-mode=fork %s" args)
      in
      Alcotest.(check int) "--jobs-mode is a usage error" 124 code)

(* A snapshot primed by an earlier batch replays on the domain pool:
   the shared store's hits are what --stats counts, and the one
   snapshot load is what --metrics counts. *)
let cache_file_counters () =
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
      let c, _, err =
        run_cli
          (Printf.sprintf
             "expand --jobs 2 --cache-file %s --stats --metrics %s %s" snap
             metrics args)
      in
      Alcotest.(check int) "warm exit" 0 c;
      Alcotest.(check bool) "the domain pool ran it" true
        (contains ~sub:"jobs: 2 (domains)\n" err);
      Alcotest.(check bool) "every file replays from the snapshot" true
        (contains ~sub:"cache hits: 3\n" err);
      Alcotest.(check int) "snapshot entries loaded once" 3
        (json_counters (read_file metrics) "snapshot.load.entries"))

(* A forked worker killed before it ships a result (the stand-in for an
   OOM kill) costs its file only: a located diagnostic, the other files'
   output, and statistics over the files that did report.  Five files
   on two workers, so a fresh worker takes over after the death. *)
let fork_worker_death () =
  with_files (List.init 5 (fun i -> good_file (i + 1))) (fun files ->
      let args = String.concat " " files in
      let victim = List.nth files 1 in
      let env = Printf.sprintf "MS2_TEST_WORKER_KILL=%s" victim in
      let code, out, err =
        run_cli ~env
          (Printf.sprintf "expand --jobs 2 --keep-going --stats %s" args)
      in
      Alcotest.(check int) "degraded exits 3" 3 code;
      Alcotest.(check bool) "the death is diagnosed" true
        (contains ~sub:"killed by SIGKILL" err
        && contains ~sub:(Filename.basename victim) err);
      Alcotest.(check bool) "f1, f3, f4 and f5 survive" true
        (List.for_all
           (fun i -> contains ~sub:(Printf.sprintf "int f%d" i) out)
           [ 1; 3; 4; 5 ]);
      Alcotest.(check bool) "the lost file contributes nothing" false
        (contains ~sub:"int f2" out);
      Alcotest.(check bool) "stats cover the four surviving files" true
        (contains ~sub:"invocations expanded: 4\n" err);
      let code, out, err =
        run_cli ~env (Printf.sprintf "expand --jobs 2 %s" args)
      in
      Alcotest.(check int) "fatal exits 1" 1 code;
      Alcotest.(check string) "no output on fatal" "" out;
      Alcotest.(check bool) "rerun hint" true
        (contains ~sub:"killed by SIGKILL" err
        && contains ~sub:"rerun with --keep-going" err))

(* ------------------------------------------------------------------ *)
(* One-shot runs keep no store                                         *)
(* ------------------------------------------------------------------ *)

(* [defs] and six definition-free units that use its macros.  With
   [~repeat] the six are one file six times: once the session reaches
   its fixed-point (after the first copy registers [f0]) every further
   copy meets a state a store would already hold, so a store replays
   it.  Without, the six are distinct: a store would only miss. *)
let one_shot_batch ?(repeat = false) k =
  let defs =
    write_fixture "defs"
      "syntax exp INNER {| ( $$exp::e ) |} { return `($e + $e); }\n\
       syntax exp OUTER {| ( $$exp::e ) |} { return `(INNER(($e))); }\n\
       int main(void) { int x; x = OUTER((3)); return x; }\n"
  in
  let uses =
    List.init (if repeat then 1 else 6) (fun i ->
        write_fixture "uses"
          (Printf.sprintf "int f%d(int a) { return OUTER((a)); }\n" i))
  in
  with_files (defs :: uses) (fun _ ->
      let units =
        if repeat then List.init 6 (fun _ -> List.hd uses) else uses
      in
      k (String.concat " " (defs :: units)))

let no_store_counters ~what json =
  List.iter
    (fun name ->
      Alcotest.(check int) (Printf.sprintf "%s: %s" what name) 0 (json name))
    [ "cache.hits"; "cache.misses"; "cache.bypasses" ]

let one_shot_expand_keeps_no_store () =
  one_shot_batch ~repeat:true (fun args ->
      List.iter
        (fun mode ->
          let expand flags =
            let code, out, err =
              run_cli (Printf.sprintf "expand %s %s %s" mode flags args)
            in
            Alcotest.(check int) (Printf.sprintf "%s %s exit" mode flags) 0
              code;
            (out, err)
          in
          let out, err = expand "--stats --stats-format=json" in
          no_store_counters ~what:mode (json_counters err);
          Alcotest.(check string) (mode ^ ": = --no-cache") out
            (fst (expand "--no-cache"));
          Tutil.with_fresh_path @@ fun snap ->
          Tutil.with_fresh_path @@ fun metrics ->
          let with_file () =
            let out, _ =
              expand
                (Printf.sprintf "--cache-file %s --metrics %s" snap metrics)
            in
            (out, json_counters (read_file metrics))
          in
          let cold, c = with_file () in
          Alcotest.(check string) (mode ^ ": = cold --cache-file") out cold;
          (* the witness has power: a store, when there is one, counts *)
          Alcotest.(check bool)
            (mode ^ ": the cold --cache-file run counts its misses")
            true
            (c "cache.misses" > 0);
          let warm, _ = with_file () in
          Alcotest.(check string) (mode ^ ": = warm --cache-file") out warm)
        [ "--jobs 1"; "--jobs 2" ])

(* [check] and [profile] print no statistics, so the runtime's own
   allocation count stands in, on the distinct batch (where a store can
   only miss): a store keys, checkpoints and keeps every unit (+16%
   words on it when runs kept one), while a run without one takes the
   [--no-cache] path word for word.  The 2% slack covers the flag's own
   argv bytes. *)
let allocated_words cmd =
  let code, _, err = run_cli ~env:"OCAMLRUNPARAM=v=0x400" cmd in
  match index_of ~sub:"allocated_words: " err with
  | None -> Alcotest.failf "no GC statistics from %s" cmd
  | Some i ->
      ( code,
        Scanf.sscanf (String.sub err i (String.length err - i))
          "allocated_words: %d" Fun.id )

let allocates_as_no_cache cmd args =
  let code, words = allocated_words (Printf.sprintf "%s %s" cmd args) in
  let code', words' =
    allocated_words (Printf.sprintf "%s --no-cache %s" cmd args)
  in
  Alcotest.(check (pair int int)) (cmd ^ " exits") (0, 0) (code, code');
  Alcotest.(check bool)
    (Printf.sprintf "%s allocates as --no-cache (%d vs %d words)" cmd words
       words')
    true
    (float_of_int words <= 1.02 *. float_of_int words')

let one_shot_check_keeps_no_store () =
  one_shot_batch (allocates_as_no_cache "check")

let one_shot_profile_keeps_no_store () =
  one_shot_batch (allocates_as_no_cache "profile --format=json");
  one_shot_batch ~repeat:true (fun args ->
      let cached flags =
        let code, out, _ =
          run_cli (Printf.sprintf "profile --format=json %s %s" flags args)
        in
        Alcotest.(check int) ("profile exit " ^ flags) 0 code;
        match
          Option.bind (Result.to_option (Json.parse out)) (fun v ->
              Option.bind (Json.member v "macros") Json.list)
        with
        | None -> Alcotest.fail "profile JSON has no macros"
        | Some rows ->
            List.fold_left
              (fun acc r ->
                acc
                + Option.value ~default:0
                    (Option.bind (Json.member r "cached_invocations") Json.int))
              0 rows
      in
      Alcotest.(check int) "no replays without --cache-file" 0 (cached "");
      Tutil.with_fresh_path @@ fun snap ->
      Alcotest.(check bool) "a fresh --cache-file replays" true
        (cached ("--cache-file " ^ snap) > 0))

(* The prelude loads once per batch: per-file engines start from the
   driver's post-prelude checkpoint, and the driver's prelude engine is
   counted once, so the counters read as at --jobs 1. *)
let prelude_counted_once () =
  with_files [ good_file 1; good_file 2; good_file 3 ] (fun files ->
      let args = String.concat " " files in
      let counters flags =
        let c, out, err =
          run_cli (Printf.sprintf "expand --prelude --stats %s %s" flags args)
        in
        Alcotest.(check int) (flags ^ ": exit 0") 0 c;
        ( out,
          List.filter
            (fun (name, _) ->
              List.mem name
                [ "engine.macros_defined"; "engine.meta_declarations_run";
                  "engine.invocations_expanded"; "engine.fuel_consumed" ])
            (text_counters err) )
      in
      let out1, c1 = counters "--jobs 1" in
      Alcotest.(check int) "prelude's 10 macros + 3" 13
        (List.assoc "engine.macros_defined" c1);
      Tutil.with_fresh_path @@ fun snap ->
      List.iter
        (fun flags ->
          let out2, c2 = counters flags in
          Alcotest.(check string) (flags ^ ": same output") out1 out2;
          Alcotest.(check (list (pair string int)))
            (flags ^ ": same counters") c1 c2)
        [ "--jobs 2"; "--jobs 2 --cache-file " ^ snap ])

(* A prelude that fails to load (an armed failpoint) is one fatal
   diagnostic from the driver, exit 1, at any job count. *)
let prelude_failure_is_fatal () =
  Tutil.with_fresh_path @@ fun snap ->
  with_files [ good_file 1; good_file 2 ] (fun files ->
      let args = String.concat " " files in
      List.iter
        (fun flags ->
          let c, out, err =
            run_cli ~env:"MS2_FAILPOINTS=engine/fragment=error"
              (Printf.sprintf "expand --prelude %s %s" flags args)
          in
          Alcotest.(check int) (flags ^ ": exit 1") 1 c;
          Alcotest.(check string) (flags ^ ": no output") "" out;
          Alcotest.(check bool) (flags ^ ": a located diagnostic") true
            (contains ~sub:"<prelude>:" err))
        [ "--jobs 1"; "--jobs 2"; "--jobs 2 --cache-file " ^ snap ])

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
          Alcotest.test_case "substrate follows the store" `Quick
            substrate_follows_store;
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
          Alcotest.test_case "--cache-file counters" `Quick
            cache_file_counters;
          Alcotest.test_case "fork worker death" `Quick fork_worker_death;
          Alcotest.test_case "--prelude counted once" `Quick
            prelude_counted_once;
          Alcotest.test_case "a failed prelude load is fatal" `Quick
            prelude_failure_is_fatal;
          Alcotest.test_case "pattern memo counts one miss across domains"
            `Quick pattern_memo_race;
        ] );
      ( "one-shot",
        [
          Alcotest.test_case "expand keeps no store" `Quick
            one_shot_expand_keeps_no_store;
          Alcotest.test_case "check keeps no store" `Quick
            one_shot_check_keeps_no_store;
          Alcotest.test_case "profile keeps no store" `Quick
            one_shot_profile_keeps_no_store;
        ] );
    ]
