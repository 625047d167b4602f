(** Transactional fragment isolation, the wall-clock watchdog, and the
    failpoint framework.

    The central invariant: whatever way a fragment dies — injected
    failure at any pipeline site, wall-clock timeout, stack overflow,
    plain parse error — the engine (a) reports a *located* diagnostic,
    (b) does not crash or hang beyond its deadline, and (c) rolls the
    session back to the last good state, so the next fragment behaves
    exactly as on a fresh engine.  The failpoint sweep drives every
    registered site through both the [error] and [timeout] triggers and
    asserts all three properties structurally via
    {!Ms2.Engine.fingerprint}. *)

open Tutil
module Diag = Ms2_support.Diag
module Loc = Ms2_support.Loc
module Limits = Ms2_support.Limits
module Failpoint = Ms2_support.Failpoint
module Engine = Ms2.Engine

(* ------------------------------------------------------------------ *)
(* Fixture fragments                                                   *)
(* ------------------------------------------------------------------ *)

(* Session state the sweep must preserve: a macro (with its compiled
   pattern), a [metadcl] global, and a meta function. *)
let prime_src =
  "syntax stmt primed {| ; |} { return `{y = y + 1;}; }\n\
   metadcl int gcount;\n\
   @stmt dup(@stmt s) { return `{{ $s $s }}; }\n"

(* Traverses every failpoint site: defines a macro (engine/register),
   invokes macros (parser/invocation, parser/pattern via the primed
   macro's compiled parser, engine/invoke), runs meta statements
   (interp/step), calls a meta function (interp/call) and a builtin
   (builtins/call), and fills templates (fill/alloc); parser/token and
   engine/fragment fire on any fragment at all. *)
let driver_src =
  "syntax stmt driver {| ; |} {\n\
  \  @stmt s;\n\
  \  char *n;\n\
  \  s = `{y = y + 1;};\n\
  \  s = dup(s);\n\
  \  n = exp_string(`(y + 1));\n\
  \  return s;\n\
   }\n\
   int y;\n\
   int f() {\n\
  \  driver;\n\
  \  primed;\n\
  \  return 0;\n\
   }\n"

let good_src = "int g() { primed; return 0; }\n"

let spin_src =
  "syntax stmt spin {| ; |} {\n\
  \  int i;\n\
  \  i = 0;\n\
  \  while (1) i = i + 1;\n\
  \  return `{;};\n\
   }\n\
   int f() { spin; return 0; }\n"

let deep_src n =
  "int f() { return " ^ String.make n '(' ^ "1" ^ String.make n ')' ^ "; }"

let sweep_limits =
  { Limits.default with Limits.timeout_ms = 150; invocation_timeout_ms = 150 }

let expand_ok engine src =
  match Ms2.Api.expand_diag ~engine ~source:"prime.mc" src with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "prime failed: %s" (Diag.to_string d)

let prime engine = expand_ok engine prime_src

(** What [good_src] renders to on a freshly primed engine — the oracle
    for "the session behaves as if the failed fragment never ran". *)
let reference_good limits =
  let engine = Ms2.Api.create_engine ~limits () in
  prime engine;
  match Ms2.Api.expand_diag ~engine ~source:"good.mc" good_src with
  | Ok out -> out
  | Error d -> Alcotest.failf "reference failed: %s" (Diag.to_string d)

(* ------------------------------------------------------------------ *)
(* The failpoint sweep                                                 *)
(* ------------------------------------------------------------------ *)

let sweep_one ~trigger ~code site () =
  Failpoint.reset ();
  let engine = Ms2.Api.create_engine ~limits:sweep_limits () in
  prime engine;
  let fp = Engine.fingerprint engine in
  Failpoint.arm site trigger;
  let t0 = Unix.gettimeofday () in
  let result =
    Fun.protect ~finally:Failpoint.reset (fun () ->
        Ms2.Api.expand_diag ~engine ~source:"driver.mc" driver_src)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match result with
  | Ok out ->
      Alcotest.failf "failpoint %s never fired; expanded to:\n%s" site out
  | Error d ->
      Alcotest.(check string) (site ^ ": stable code") code d.Diag.code;
      Alcotest.(check bool)
        (site ^ ": diagnostic is located")
        true
        (not (Loc.is_dummy d.Diag.loc)));
  (* the 150ms deadline bounds the timeout trigger; the 2s failpoint
     fallback bounds everything else — 3s means "did not hang" *)
  Alcotest.(check bool)
    (Printf.sprintf "%s: bounded time (%.2fs)" site elapsed)
    true (elapsed < 3.0);
  Alcotest.(check string)
    (site ^ ": state rolled back")
    fp (Engine.fingerprint engine);
  match Ms2.Api.expand_diag ~engine ~source:"good.mc" good_src with
  | Ok out ->
      Alcotest.(check string)
        (site ^ ": session behaves like a fresh engine")
        (reference_good sweep_limits)
        out
  | Error d ->
      Alcotest.failf "%s: session unusable after rollback: %s" site
        (Diag.to_string d)

let sweep_cases =
  List.concat_map
    (fun site ->
      [ tc
          (Printf.sprintf "%s=error recovers" site)
          (sweep_one ~trigger:Failpoint.Error ~code:Diag.code_failpoint site);
        tc
          (Printf.sprintf "%s=timeout recovers" site)
          (sweep_one ~trigger:Failpoint.Timeout ~code:Diag.code_timeout site)
      ])
    (* serve sites live on the daemon's request path and the
       persistence sites (io/ and snapshot/ prefixes) on the
       crash-recovery path — not inside the engine: this in-process
       sweep never reaches them.  test_serve.ml and test_recovery.ml
       sweep them through the real subsystems instead. *)
    (List.filter
       (fun s -> not (Failpoint.serve_site s || Failpoint.persist_site s))
       Failpoint.sites)

let after_trigger_counts () =
  Failpoint.reset ();
  let engine = Ms2.Api.create_engine ~limits:sweep_limits () in
  prime engine;
  (* after=1 lets the [driver] invocation through and fires on the
     second invocation ([primed]) *)
  Failpoint.arm "engine/invoke" (Failpoint.After (Atomic.make 1));
  let result =
    Fun.protect ~finally:Failpoint.reset (fun () ->
        Ms2.Api.expand_diag ~engine ~source:"driver.mc" driver_src)
  in
  match result with
  | Ok out -> Alcotest.failf "after=1 never fired; got:\n%s" out
  | Error d ->
      Alcotest.(check string) "fires as error" Diag.code_failpoint d.Diag.code;
      check_contains ~msg:"names the site" d.Diag.message "engine/invoke";
      (* [driver;] is on line 11 of the fixture, [primed;] on line 12:
         after=1 must let the first invocation through *)
      check_contains ~msg:"fired on the second invocation"
        (Diag.to_string d) "12:"

let spec_grammar () =
  let ok s =
    match Failpoint.parse_spec s with
    | Ok spec -> spec
    | Error msg -> Alcotest.failf "spec %S should parse: %s" s msg
  in
  let err s =
    match Failpoint.parse_spec s with
    | Ok _ -> Alcotest.failf "spec %S should be rejected" s
    | Error msg -> msg
  in
  Alcotest.(check int) "two clauses" 2
    (List.length (ok "fill/alloc=error, interp/step=after=3"));
  (match ok "interp/step=off" with
  | [ ("interp/step", None) ] -> ()
  | _ -> Alcotest.fail "off parses to a disarm clause");
  (match ok "parser/token=after=0" with
  | [ ("parser/token", Some (Failpoint.After n)) ] when Atomic.get n = 0 -> ()
  | _ -> Alcotest.fail "after=0 parses");
  (* semicolons work as separators (shell-friendly) *)
  Alcotest.(check int) "semicolon separator" 2
    (List.length (ok "engine/invoke=error; engine/register=timeout"));
  check_contains ~msg:"unknown site" (err "bogus=error") "unknown failpoint";
  check_contains ~msg:"unknown trigger" (err "interp/step=later")
    "unknown trigger";
  check_contains ~msg:"negative count" (err "interp/step=after=-1")
    "after=N";
  check_contains ~msg:"missing trigger" (err "interp/step")
    "expected site=trigger"

(* ------------------------------------------------------------------ *)
(* Checkpoint / rollback                                               *)
(* ------------------------------------------------------------------ *)

let checkpoint_roundtrip () =
  let engine = Ms2.Api.create_engine () in
  prime engine;
  let fp = Engine.fingerprint engine in
  let cp = Ms2.Api.checkpoint engine in
  let grow () =
    match
      Ms2.Api.expand_diag ~engine ~source:"more.mc"
        "syntax stmt louder {| ; |} { return `{y = y + 2;}; }\n\
         metadcl int extra;\n"
    with
    | Ok _ -> ()
    | Error d -> Alcotest.failf "grow failed: %s" (Diag.to_string d)
  in
  grow ();
  Alcotest.(check bool) "state advanced" false
    (fp = Engine.fingerprint engine);
  Ms2.Api.rollback engine cp;
  Alcotest.(check string) "rollback restores the fingerprint" fp
    (Engine.fingerprint engine);
  (* the rolled-back macro is really gone, not just uncounted: a bare
     [louder;] is then an ordinary expression statement and passes
     through verbatim instead of expanding *)
  (match Ms2.Api.expand_diag ~engine "int h() { louder; return 0; }" with
  | Ok out ->
      check_contains ~msg:"identifier passes through" (norm out) "louder;";
      Alcotest.(check bool) "not expanded" false
        (contains ~sub:"y = y + 2" (norm out))
  | Error d -> Alcotest.failf "probe failed: %s" (Diag.to_string d));
  (* a checkpoint is reusable: grow and roll back a second time *)
  grow ();
  Ms2.Api.rollback engine cp;
  Alcotest.(check string) "checkpoint survives reuse" fp
    (Engine.fingerprint engine);
  match Ms2.Api.expand_diag ~engine good_src with
  | Ok _ -> ()
  | Error d ->
      Alcotest.failf "session unusable after rollback: %s" (Diag.to_string d)

let fragment_isolation_automatic () =
  let engine = Ms2.Api.create_engine () in
  prime engine;
  let fp = Engine.fingerprint engine in
  (* the fragment parses (and registers) a macro signature, then dies on
     a syntax error: without rollback the half-registered signature
     would poison every later parse *)
  let bad = "syntax stmt evil {| ; |} { return `{y = 9;}; }\nint oops(" in
  (match Ms2.Api.expand_diag ~engine ~source:"bad.mc" bad with
  | Ok out -> Alcotest.failf "expected a parse error, got:\n%s" out
  | Error _ -> ());
  Alcotest.(check string) "bad fragment rolled back" fp
    (Engine.fingerprint engine);
  (* [evil;] is an ordinary expression statement once the dead
     fragment's registration is rolled back *)
  (match Ms2.Api.expand_diag ~engine "int h() { evil; return 0; }" with
  | Ok out ->
      check_contains ~msg:"identifier passes through" (norm out) "evil;";
      Alcotest.(check bool) "not expanded" false
        (contains ~sub:"y = 9" (norm out))
  | Error d -> Alcotest.failf "probe failed: %s" (Diag.to_string d));
  match Ms2.Api.expand_diag ~engine good_src with
  | Ok _ -> ()
  | Error d ->
      Alcotest.failf "session unusable after bad fragment: %s"
        (Diag.to_string d)

(* No meta value refers to an engine, so a checkpoint taken on one
   engine rolls back onto a fresh one: the same fingerprint, the same
   output, and a meta function called there updates that engine's
   global, not the global of the engine that defined it. *)
let checkpoint_adopted_by_another_engine () =
  let counter_src =
    "metadcl int hits;\n\
     metadcl int bump(int by) { hits = hits + by; return hits; }\n\
     syntax exp count {| ( ) |} { return make_num(bump(1)); }\n"
  in
  let a = Ms2.Api.create_engine () in
  prime a;
  expand_ok a counter_src;
  let cp = Ms2.Api.checkpoint a in
  let b = Ms2.Api.create_engine () in
  Ms2.Api.rollback b cp;
  Alcotest.(check string) "equal fingerprint" (Engine.fingerprint a)
    (Engine.fingerprint b);
  let out engine src =
    match Ms2.Api.expand_diag ~engine src with
    | Ok out -> norm out
    | Error d -> Alcotest.failf "expand failed: %s" (Diag.to_string d)
  in
  Alcotest.(check string) "equal output" (out a good_src) (out b good_src);
  Alcotest.(check string) "b counts its own calls" (canon "int n = 1;")
    (out b "int n = count();");
  Alcotest.(check string) "b again" (canon "int n = 2;")
    (out b "int n = count();");
  Alcotest.(check string) "a's global is untouched" (canon "int n = 1;")
    (out a "int n = count();")

(* A checkpoint holds the session's maps as they are and a rollback
   stores them back, so neither allocates more as the session grows.
   The session here holds 10,000 object-level names, 60 macros and 3
   meta globals; copying any one of its tables would cost tens of
   thousands of words. *)
let checkpoint_cost_is_flat () =
  let engine = Ms2.Api.create_engine () in
  let b = Buffer.create 300_000 in
  for i = 1 to 60 do
    Printf.bprintf b "syntax stmt mac%d {| ; |} { return `{y = %d;}; }\n" i i
  done;
  Buffer.add_string b "metadcl int g1;\nmetadcl int g2;\nmetadcl int g3;\n";
  for i = 1 to 10_000 do
    Printf.bprintf b "int name_%d;\n" i
  done;
  (match
     Ms2.Api.expand_diag ~engine ~source:"big.mc" (Buffer.contents b)
   with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "setup failed: %s" (Diag.to_string d));
  let fp = Engine.fingerprint engine in
  let round () = Ms2.Api.rollback engine (Ms2.Api.checkpoint engine) in
  round ();
  let w0 = Gc.minor_words () in
  round ();
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check string) "the round trip keeps the state" fp
    (Engine.fingerprint engine);
  if words > 1_000. then
    Alcotest.failf "checkpoint + rollback allocated %.0f minor words" words

(* ------------------------------------------------------------------ *)
(* Wall-clock watchdog                                                 *)
(* ------------------------------------------------------------------ *)

let unlimited_fuel =
  { Limits.default with Limits.fuel = max_int; invocation_fuel = max_int }

let fragment_deadline () =
  let limits = { unlimited_fuel with Limits.timeout_ms = 200 } in
  let engine = Ms2.Api.create_engine ~limits () in
  let t0 = Unix.gettimeofday () in
  (match Ms2.Api.expand_diag ~engine ~source:"spin.mc" spin_src with
  | Ok out -> Alcotest.failf "expected a timeout, got:\n%s" out
  | Error d ->
      Alcotest.(check string) "code" Diag.code_timeout d.Diag.code;
      check_contains ~msg:"names the macro" d.Diag.message "spin";
      check_contains ~msg:"mentions the deadline" d.Diag.message "deadline");
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "bounded wall time (%.2fs)" elapsed)
    true (elapsed < 2.0);
  (* the engine survives the timeout (rollback) and keeps working *)
  match Ms2.Api.expand_diag ~engine "int g() { return 1; }" with
  | Ok _ -> ()
  | Error d ->
      Alcotest.failf "session unusable after timeout: %s" (Diag.to_string d)

let invocation_deadline () =
  (* no fragment-level deadline at all: the per-invocation narrow alone
     must bound the stalling macro *)
  let limits = { unlimited_fuel with Limits.invocation_timeout_ms = 200 } in
  let engine = Ms2.Api.create_engine ~limits () in
  let t0 = Unix.gettimeofday () in
  (match Ms2.Api.expand_diag ~engine ~source:"spin.mc" spin_src with
  | Ok out -> Alcotest.failf "expected a timeout, got:\n%s" out
  | Error d -> Alcotest.(check string) "code" Diag.code_timeout d.Diag.code);
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "bounded wall time (%.2fs)" elapsed)
    true (elapsed < 2.0)

(* ------------------------------------------------------------------ *)
(* Stack-overflow containment                                          *)
(* ------------------------------------------------------------------ *)

(* Eight plain top-level declarations ahead of the deep one: enough
   fragments that [fragment_jobs >= 2] takes the speculative walk, so the
   overflow is contained by the same boundary either way. *)
let deep_after_plain_src n =
  String.concat ""
    (List.init 8 (fun i -> Printf.sprintf "int plain%d = %d;\n" i i))
  ^ deep_src n

let stack_overflow_contained ~fragment_jobs () =
  let engine = Ms2.Api.create_engine () in
  prime engine;
  let fp = Engine.fingerprint engine in
  (* whether 300k-deep nesting overflows depends on the runtime's stack
     limit; the invariant is the same either way: no crash, state
     intact, session usable *)
  (match
     Diag.protect (fun () ->
         Engine.expand_source engine ~source:"deep.mc" ~fragment_jobs
           (deep_after_plain_src 300_000))
   with
  | Ok _ -> ()
  | Error d ->
      Alcotest.(check string) "contained as E0606" Diag.code_stack d.Diag.code;
      Alcotest.(check bool) "located" true (not (Loc.is_dummy d.Diag.loc)));
  Alcotest.(check string) "state intact" fp (Engine.fingerprint engine);
  match Ms2.Api.expand_diag ~engine good_src with
  | Ok out ->
      Alcotest.(check string) "session behaves like a fresh engine"
        (reference_good Limits.default) out
  | Error d ->
      Alcotest.failf "session unusable after deep input: %s"
        (Diag.to_string d)

(* ------------------------------------------------------------------ *)
(* CLI: batch isolation, exit codes, flag validation                   *)
(* ------------------------------------------------------------------ *)

let ms2c =
  if Sys.file_exists "../bin/ms2c.exe" then "../bin/ms2c.exe"
  else "_build/default/bin/ms2c.exe"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** Run [env ms2c args], returning (exit code, stdout, stderr). *)
let run_cli ?(env = "") args =
  let out = Filename.temp_file "ms2c_txn" ".out" in
  let err = Filename.temp_file "ms2c_txn" ".err" in
  let code =
    Sys.command (Printf.sprintf "%s %s %s > %s 2> %s" env ms2c args out err)
  in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

let write_temp suffix content =
  let path = Filename.temp_file "ms2c_txn" suffix in
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc;
  path

(* A three-file batch: [a] defines and uses a macro, [bad] fails
   mid-parse after registering one, [c] uses [a]'s macro. *)
let batch_files () =
  let a =
    write_temp "_a.mc"
      "syntax stmt tickx {| ; |} { return `{w = w + 1;}; }\n\
       int w;\n\
       int f() { tickx; return 0; }\n"
  in
  let bad =
    write_temp "_bad.mc"
      "syntax stmt evil {| ; |} { return `{;}; }\nint oops("
  in
  let c = write_temp "_c.mc" "int h() { tickx; return 1; }\n" in
  (a, bad, c)

let cli_batch_isolation () =
  let a, bad, c = batch_files () in
  let code, out, err =
    run_cli (Printf.sprintf "expand --keep-going %s %s %s" a bad c)
  in
  List.iter Sys.remove [ a; bad; c ];
  Alcotest.(check int) "degraded exit" 3 code;
  check_contains ~msg:"first file expanded" (norm out) "int f()";
  check_contains ~msg:"file after the failure still expanded" (norm out)
    "int h()";
  check_contains ~msg:"macro from the good file still works" (norm out)
    "w = w + 1;";
  check_contains ~msg:"failure reported" err "syntax error"

let cli_batch_fatal_without_keep_going () =
  let a, bad, c = batch_files () in
  let code, out, _ =
    run_cli (Printf.sprintf "expand %s %s %s" a bad c)
  in
  List.iter Sys.remove [ a; bad; c ];
  Alcotest.(check int) "fatal exit" 1 code;
  Alcotest.(check string) "no partial output" "" out

let cli_stack_overflow_contained () =
  (* a 1M-word stack limit makes the 300k-deep parse overflow
     deterministically; the driver must contain it as E0606 *)
  let deep = write_temp "_deep.mc" (deep_src 300_000) in
  let code, _, err =
    run_cli ~env:"OCAMLRUNPARAM=l=1M"
      (Printf.sprintf "expand --diag-format json %s" deep)
  in
  Sys.remove deep;
  Alcotest.(check int) "fatal exit" 1 code;
  check_contains ~msg:"stack code on stderr" err "E0606"

let cli_stack_overflow_batch_isolated () =
  (* the overflowing file is rolled back; files after it still expand *)
  let a, _, c = batch_files () in
  let deep = write_temp "_deep.mc" (deep_src 300_000) in
  let code, out, err =
    run_cli ~env:"OCAMLRUNPARAM=l=1M"
      (Printf.sprintf "expand --keep-going --diag-format json %s %s %s" a
         deep c)
  in
  List.iter Sys.remove [ a; deep; c ];
  Alcotest.(check int) "degraded exit" 3 code;
  check_contains ~msg:"stack code on stderr" err "E0606";
  check_contains ~msg:"file after the overflow still expanded" (norm out)
    "int h()"

let cli_timeout_flag () =
  let spin = write_temp "_spin.mc" spin_src in
  let t0 = Unix.gettimeofday () in
  let code, _, err =
    run_cli
      (Printf.sprintf "expand --fuel 0 --invocation-fuel 0 --timeout-ms 200 %s"
         spin)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Sys.remove spin;
  Alcotest.(check int) "fatal exit" 1 code;
  check_contains ~msg:"timeout code on stderr" err "E0605";
  check_contains ~msg:"names the macro" err "spin";
  Alcotest.(check bool)
    (Printf.sprintf "no hang (%.2fs)" elapsed)
    true (elapsed < 3.0)

let cli_failpoints_flag () =
  let a, _, _ = batch_files () in
  let code, _, err =
    run_cli (Printf.sprintf "expand --failpoints interp/step=error %s" a)
  in
  Sys.remove a;
  Alcotest.(check int) "fatal exit" 1 code;
  check_contains ~msg:"injected code on stderr" err "E0607"

let cli_unwritable_output () =
  let a, _, _ = batch_files () in
  let dir = Filename.temp_file "ms2c_txn" "_gone" in
  Sys.remove dir;
  (* [dir] does not exist, so the atomic temp file cannot be created *)
  let code, _, err =
    run_cli (Printf.sprintf "expand -o %s %s" (Filename.concat dir "out.c") a)
  in
  Sys.remove a;
  Alcotest.(check int) "fatal exit" 1 code;
  check_contains ~msg:"explains itself" err "cannot write output"

let cli_rejects_bad_flags () =
  let reject args needle =
    let code, _, err = run_cli args in
    Alcotest.(check int) (args ^ ": usage error exit") 124 code;
    check_contains ~msg:(args ^ ": explains itself") err needle
  in
  reject "expand --fuel=-1" "negative";
  reject "expand --invocation-fuel=-7" "negative";
  reject "expand --max-nodes=-1" "negative";
  reject "expand --max-errors=-2" "negative";
  reject "expand --timeout-ms=-100" "negative";
  reject "expand --failpoints bogus=error" "unknown failpoint";
  reject "expand --failpoints interp/step=maybe" "unknown trigger"

let cli_check_parity () =
  let a, bad, c = batch_files () in
  (* clean: exit 0, "ok" on stderr *)
  let code, _, err = run_cli (Printf.sprintf "check %s %s" a c) in
  Alcotest.(check int) "clean check exits 0" 0 code;
  check_contains ~msg:"says ok" err "ok";
  (* keep-going: per-file isolation, degraded exit *)
  let code, _, err =
    run_cli (Printf.sprintf "check --keep-going %s %s %s" a bad c)
  in
  Alcotest.(check int) "degraded check exits 3" 3 code;
  check_contains ~msg:"failure reported" err "syntax error";
  (* fatal without keep-going *)
  let code, _, _ = run_cli (Printf.sprintf "check %s %s %s" a bad c) in
  Alcotest.(check int) "fatal check exits 1" 1 code;
  (* limits flags reach the engine *)
  let spin = write_temp "_spin.mc" spin_src in
  let code, _, err = run_cli (Printf.sprintf "check --fuel 10000 %s" spin) in
  Alcotest.(check int) "fuel-bounded check exits 1" 1 code;
  check_contains ~msg:"fuel code" err "E0601";
  (* diag-format honored *)
  let code, _, err =
    run_cli (Printf.sprintf "check --diag-format json %s" bad)
  in
  Alcotest.(check int) "json check exits 1" 1 code;
  check_contains ~msg:"json diagnostics" err {|{"severity":"error"|};
  List.iter Sys.remove [ a; bad; c; spin ]

(* ------------------------------------------------------------------ *)
(* Closed session state                                                *)
(* ------------------------------------------------------------------ *)

(* The gensym and anonymous-tag counts are session state: a rollback
   restores them, so a retry mints the names the rolled-back run
   minted. *)
let counters_roll_back () =
  let engine = Ms2.Api.create_engine ~hygienic:true () in
  expand_ok engine swap2_defs;
  let counts () =
    ( Ms2_support.Gensym.count engine.Engine.gensym,
      Ms2_csem.Senv.anon_count (Ms2_csem.Senv.tables engine.Engine.senv) )
  in
  let before = counts () in
  let cp = Ms2.Api.checkpoint engine in
  let mint = swap2_use ^ "struct { int a; } s;\n" in
  let out () =
    match Ms2.Api.expand_diag ~engine mint with
    | Ok out -> out
    | Error d -> Alcotest.failf "mint failed: %s" (Diag.to_string d)
  in
  let first = out () in
  let g, a = counts () in
  Alcotest.(check bool) "both counters moved" true
    (g > fst before && a > snd before);
  Ms2.Api.rollback engine cp;
  Alcotest.(check (pair int int)) "rollback restores them" before (counts ());
  Alcotest.(check string) "the retry mints the same names" first (out ())

(* Run [order] on sessions alice and bob, both rooted at the first
   engine's current state; each session's i-th request runs on engine
   [i mod n].  The sessions are created before any request runs or, with
   [~lazily], at their first request.  Alice's outputs. *)
let alice_outputs ?(lazily = false) engines order =
  let base = Ms2.Api.checkpoint engines.(0) in
  let sessions = Hashtbl.create 2 in
  let session who =
    match Hashtbl.find_opt sessions who with
    | Some s -> s
    | None ->
        let s = (Ms2.Api.Session.create base ~id:who, ref 0) in
        Hashtbl.add sessions who s;
        s
  in
  if not lazily then
    List.iter (fun who -> ignore (session who)) [ "alice"; "bob" ];
  List.filter_map
    (fun (who, text) ->
      let s, n = session who in
      let engine = engines.(!n mod Array.length engines) in
      incr n;
      match Ms2.Api.Session.expand s engine text with
      | Ok (out, _) -> if who = "alice" then Some out else None
      | Error (d, _) -> Alcotest.failf "%s: %s" who (Diag.to_string d))
    order

let one_engine cache = [| Ms2.Api.create_engine ~cache ~hygienic:true () |]

(* Alice's outputs in every order of [alice_orders], cache off and on,
   equal her outputs alone on one engine.  [engines cache] makes the
   engines one run uses. *)
let alice_outputs_agree ?lazily engines () =
  List.iter
    (fun cache ->
      let alone =
        alice_outputs (one_engine cache) (List.assoc "alone" alice_orders)
      in
      List.iter
        (fun (what, order) ->
          Alcotest.(check (list string))
            (Printf.sprintf "cache %b, %s" cache what)
            alone
            (alice_outputs ?lazily (engines cache) order))
        alice_orders)
    [ false; true ]

let sessions_isolate_fresh_names = alice_outputs_agree one_engine

(* A session is rooted at its base, not at whatever state the engine
   holds when it is created: alice created after bob's requests ran
   starts where bob started. *)
let session_rooted_at_base = alice_outputs_agree ~lazily:true one_engine

(* A session is a checkpoint value: its requests may alternate between
   two engines that share a store. *)
let session_moves_between_engines =
  alice_outputs_agree (fun cache ->
      let store = Ms2.Api.create_shared_cache () in
      Array.init 2 (fun _ ->
          Ms2.Api.create_engine ~cache ~cache_store:store ~hygienic:true ()))

let session_found_case () =
  let engine = Ms2.Api.create_engine () in
  let s = Ms2.Api.Session.create (Ms2.Api.checkpoint engine) ~id:"s" in
  let results =
    List.map (fun text -> Ms2.Api.Session.expand s engine text) found_requests
  in
  (match results with
  | [ Ok _; Error _; Error (d, _) ] ->
      check_contains ~msg:"the third request" (Diag.to_string d)
        "cannot assign base"
  | _ ->
      Alcotest.failf "expected ok, error, error; the third answered %s"
        (match List.nth results 2 with
        | Ok (out, _) -> out
        | Error (d, _) -> Diag.to_string d));
  Alcotest.(check bool) "isolated" true (Ms2.Api.Session.isolated s)

(* Each request draws on its own [--fuel]: twelve sessions of seven
   steps each all expand under a budget of fifty, and the engine's
   count of fuel consumed is the sum over them. *)
let session_fuel_per_request () =
  let limits = { Limits.default with Limits.fuel = 50 } in
  let engine = Ms2.Api.create_engine ~limits ~cache:false () in
  let base = Ms2.Api.checkpoint engine in
  let runs =
    List.init 12 (fun i ->
        let s = Ms2.Api.Session.create base ~id:(string_of_int i) in
        match Ms2.Api.Session.expand s engine (swap2_defs ^ swap2_use) with
        | Ok (out, d) -> (out, d.Ms2.Api.Session.d_fuel)
        | Error (d, _) ->
            Alcotest.failf "request %d: %s" (i + 1) (Diag.to_string d))
  in
  let first = fst (List.hd runs) in
  List.iter (fun (out, _) -> Alcotest.(check string) "same output" first out)
    runs;
  Alcotest.(check int) "fuel consumed is cumulative"
    (List.fold_left (fun acc (_, fuel) -> acc + fuel) 0 runs)
    (Ms2.Api.stats engine).Ms2.Api.fuel_consumed

let () =
  Alcotest.run "txn"
    [ ("failpoint sweep", sweep_cases);
      ( "failpoint framework",
        [ tc "after=N counts down" after_trigger_counts;
          tc "spec grammar" spec_grammar ] );
      ( "checkpoint/rollback",
        [ tc "checkpoint round-trips and is reusable" checkpoint_roundtrip;
          tc "a checkpoint rolls back onto another engine"
            checkpoint_adopted_by_another_engine;
          tc "fragment isolation is automatic" fragment_isolation_automatic;
          tc "checkpoint and rollback cost does not grow with the session"
            checkpoint_cost_is_flat ] );
      ( "closed state",
        [ tc "a rollback restores the fresh-name counters" counters_roll_back;
          tc "sessions do not see each other's fresh names"
            sessions_isolate_fresh_names;
          tc "a session created after another's requests starts at its base"
            session_rooted_at_base;
          tc "a session's requests may alternate between engines"
            session_moves_between_engines;
          tc "a rolled-back write through a lambda does not stick"
            session_found_case;
          tc "a session request's fuel is its own" session_fuel_per_request
        ] );
      ( "watchdog",
        [ tc "fragment deadline bounds a stalling macro" fragment_deadline;
          tc "invocation deadline narrows alone" invocation_deadline ] );
      ( "stack overflow",
        [ tc "contained and rolled back"
            (stack_overflow_contained ~fragment_jobs:1);
          tc "contained and rolled back, speculative walk"
            (stack_overflow_contained ~fragment_jobs:2) ] );
      ( "cli",
        [ tc "keep-going isolates bad files in a batch" cli_batch_isolation;
          tc "batch is fatal without keep-going"
            cli_batch_fatal_without_keep_going;
          tc "stack overflow is a located diagnostic"
            cli_stack_overflow_contained;
          tc "stack overflow doesn't poison the batch"
            cli_stack_overflow_batch_isolated;
          tc "timeout flag reaches the watchdog" cli_timeout_flag;
          tc "failpoints flag reaches the registry" cli_failpoints_flag;
          tc "unwritable output is a diagnostic" cli_unwritable_output;
          tc "bad flag values are usage errors" cli_rejects_bad_flags;
          tc "check honors the expand flags" cli_check_parity ] ) ]
