(** Engine integration tests: the whole pipeline, recursive expansion,
    expansion in every syntactic position, multi-fragment engines,
    statistics, and the purity guarantee. *)

open Tutil

let exp_macro_positions () =
  let defs =
    "syntax exp two {| |} { return make_num(2); }\n"
  in
  check_expands (defs ^ "int x = two + two;") "int x = 2 + 2;";
  check_expands (defs ^ "int f() { return two * 3; }")
    "int f() { return 2 * 3; }";
  check_expands (defs ^ "int f() { if (two) g(two); return 0; }")
    "int f() { if (2) g(2); return 0; }";
  check_expands (defs ^ "int a[3] = {two, two, two};")
    "int a[3] = {2, 2, 2};";
  check_expands (defs ^ "int f() { for (i = two; i < two; i++) ; return 0; }")
    "int f() { for (i = 2; i < 2; i++) ; return 0; }";
  check_expands (defs ^ "int f() { switch (two) { case 1: break; } return 0; }")
    "int f() { switch (2) { case 1: break; } return 0; }"

let recursive_expansion () =
  (* a macro that expands into an invocation of another macro *)
  check_expands
    "syntax exp one {| |} { return make_num(1); }\n\
     syntax exp oneplus {| |} { return `(one + 1); }\n\
     int x = oneplus;"
    "int x = 1 + 1;";
  (* bounded self-recursion through meta state *)
  check_expands
    "metadcl int depth;\n\
     syntax stmt countdown {| |} {\n\
     if (depth == 3) return `{done();};\n\
     depth = depth + 1;\n\
     return `{tick(); countdown};\n\
     }\n\
     int f() { countdown return 0; }"
    "int f() { { tick(); { tick(); { tick(); done(); } } } return 0; }"

let runaway_recursion () =
  check_error
    "syntax stmt loop {| |} { return `{loop}; }\n\
     int f() { loop }"
    "nesting depth"

let list_returning_decl_macro () =
  check_expands
    "syntax decl pair [] {| $$id::n ; |} {\n\
     return list(`[int $n;], `[int $(symbolconc(n, \"_max\"));]);\n\
     }\n\
     pair count;"
    "int count;\nint count_max;"

let empty_expansion () =
  check_expands
    "metadcl @decl none[];\n\
     syntax decl note [] {| $$id::n ; |} { return none; }\n\
     note whatever;\n\
     int keep;"
    "int keep;"

let stmt_list_macro_in_block () =
  check_expands
    "syntax stmt both [] {| $$exp::e ; |} {\n\
     return list(`{pre($e);}, `{post($e);});\n\
     }\n\
     int f() { both 7; return 0; }"
    "int f() { pre(7); post(7); return 0; }"

let macro_args_containing_macros () =
  check_expands
    "syntax exp two {| |} { return make_num(2); }\n\
     syntax exp dbl {| ( $$exp::e ) |} { return `(($e) * 2); }\n\
     int x = dbl(two + two);"
    "int x = (2 + 2) * 2;"

let macros_in_types () =
  (* invocations inside enum values, array sizes and sizeof types *)
  check_expands
    "syntax exp two {| |} { return make_num(2); }\n\
     enum sizes {small = two, big = two * 8};\n\
     int buffer[two];\n\
     struct s { int pad[two]; };\n\
     int f() { return sizeof(int [two]) + (int)two; }"
    "enum sizes {small = 2, big = 2 * 8};\n\
     int buffer[2];\n\
     struct s { int pad[2]; };\n\
     int f() { return sizeof(int [2]) + (int)2; }"

let staged_engine () =
  let engine = Ms2.Api.create_engine () in
  let ok src =
    match Ms2.Api.expand ~source:"stage" engine src with
    | Ok out -> out
    | Error e -> Alcotest.failf "stage failed: %s" e
  in
  let defs = ok "syntax exp three {| |} { return make_num(3); }" in
  Alcotest.(check string) "definitions emit nothing" "" (String.trim defs);
  let use = ok "int x = three;" in
  Alcotest.(check string) "later fragment sees the macro"
    (canon "int x = 3;") (norm use);
  (* meta globals persist across fragments *)
  ignore (ok "metadcl int n;");
  ignore (ok "syntax exp bump {| |} { n = n + 1; return make_num(n); }");
  let a = ok "int a = bump;" and b = ok "int b = bump;" in
  Alcotest.(check string) "first bump" (canon "int a = 1;") (norm a);
  Alcotest.(check string) "second bump" (canon "int b = 2;") (norm b)

let stats () =
  let engine = Ms2.Api.create_engine () in
  (match
     Ms2.Api.expand engine
       "syntax exp z {| |} { return make_num(0); }\n\
        metadcl int g;\n\
        int a = z + z;"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let s = Ms2.Api.stats engine in
  Alcotest.(check int) "macros" 1 s.Ms2.Api.macros_defined;
  Alcotest.(check int) "metadcls" 1 s.Ms2.Api.meta_declarations_run;
  Alcotest.(check int) "invocations" 2 s.Ms2.Api.invocations_expanded

let output_purity () =
  (* the output of expansion always re-parses as pure C *)
  let srcs =
    [ "syntax stmt w {| $$stmt::s |} { return `{lock(); $s; unlock();}; }\n\
       int f() { w { g(); } return 0; }";
      "syntax decl d [] {| $$id::n ; |} { return list(`[int $n;]); }\n\
       d alpha;\nd beta;" ]
  in
  List.iter
    (fun src ->
      let out = expand src in
      let reparsed = pprog out in
      ignore
        (Ms2_syntax.Pretty.program_to_string ~mode:Ms2_syntax.Pretty.strict
           reparsed))
    srcs

let return_type_violation () =
  (* a macro that promises @stmt[] but returns an int is caught at
     run time even if the static check is fooled... it cannot be fooled
     here, so check the declared/actual mismatch diagnostic path via a
     list with wrong element sorts is impossible statically; instead
     check that conforms() backs the engine by running a well-typed
     macro and confirming no error *)
  check_expands
    "syntax stmt ok {| |} { return `{f();}; }\nint g() { ok return 0; }"
    "int g() { f(); return 0; }"

let compiled_patterns_agree () =
  (* the compiled invocation parsers (paper §3's suggested acceleration)
     must produce the same expansions as the interpretive path *)
  let src =
    "metadcl @decl none[];\n\
     syntax decl reg [] {| $$id::name ( $$*/, exp::args ) $$?at num::pos \
     ; |} {\n\
     return list(`[int $name;]);\n\
     }\n\
     syntax stmt loopy {| [ $$+stmt::body ] ( $$.( $$id::k , $$exp::v \
     )::p ) |} {\n\
     return `{setup($(p->k), $(p->v)); $body;};\n\
     }\n\
     reg alpha(1, 2, 3) at 7;\n\
     reg beta();\n\
     int f() { loopy [ a(); b(); ] (key, 41 + 1) return 0; }"
  in
  let run ~compile_patterns =
    let engine = Ms2.Engine.create ~compile_patterns () in
    match Ms2.Api.expand ~source:"t" engine src with
    | Ok out -> norm out
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "identical expansions" (run ~compile_patterns:false)
    (run ~compile_patterns:true)

let tracing () =
  let engine = Ms2.Engine.create () in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  engine.Ms2.Engine.trace <- Some ppf;
  (match
     Ms2.Api.expand ~source:"t" engine
       "syntax exp two {| |} { return make_num(2); }\nint x = two;"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Format.pp_print_flush ppf ();
  let log = Buffer.contents buf in
  check_contains ~msg:"logs the macro name" log "expanding two";
  check_contains ~msg:"logs the result" log "=> 2"

(* -- the walk shares what it does not expand --------------------------- *)

(* Parse [text] against [engine]'s tables (so its macros are known), as
   the fragment runner does, and hand back the parsed program. *)
let parse_with (engine : Ms2.Engine.t) text =
  let st =
    Ms2_parser.State.of_string ~macros:engine.Ms2.Engine.macros
      ~tenv:engine.Ms2.Engine.tenv ~compiled:engine.Ms2.Engine.compiled
      ~source:"t.mc" text
  in
  fail_diag (fun () -> Ms2_parser.Parser.parse_program st)

(* An invocation-free program exercising every node kind the walk
   descends into. *)
let plain_source i =
  Printf.sprintf
    "struct s%d { int a[4]; enum e%d { A%d = 1, B%d = A%d + 2 } e; } v%d[8];\n\
     int (*fp%d[3])(int r[2], long w);\n\
     int t%d[3] = { 1, { 2, 3 } };\n\
     int f%d(int x, int y) {\n\
    \  int l = sizeof(int [2]) + (long)x;\n\
    \  if (x) y = -x; else y = !x;\n\
    \  while (x < y) { x++; y--; }\n\
    \  do x = x ? y : x; while (x);\n\
    \  for (x = 0; x < 3; x = x + 1) f(x, y, v[x].a[1]);\n\
    \  switch (x) { case 1: break; default: return l; }\n\
    \  done: return (x, y);\n\
     }\n"
    i i i i i i i i i

let walk_shares_invocation_free () =
  let engine = Ms2.Engine.create () in
  let prog = parse_with engine (plain_source 0) in
  let out = Ms2.Engine.expand_program engine prog in
  Alcotest.(check int) "declarations kept" (List.length prog)
    (List.length out);
  List.iter2
    (fun d d' ->
      Alcotest.(check bool)
        ("shared: " ^ print_decl d) true (d == d'))
    prog out

let walk_shares_siblings () =
  let engine = Ms2.Engine.create () in
  ignore
    (Ms2.Engine.expand_source engine
       "syntax exp two {| |} { return make_num(2); }");
  let prog =
    parse_with engine
      "int f0(int x) { return x + 1; }\n\
       int f1(int x) { if (x) return two; return x; }\n\
       int f2(int x) { while (x) x--; return x; }\n"
  in
  let out = Ms2.Engine.expand_program engine prog in
  match (prog, out) with
  | [ f0; f1; f2 ], [ f0'; f1'; f2' ] ->
      Alcotest.(check bool) "f0 shared" true (f0 == f0');
      Alcotest.(check bool) "f1 rebuilt" false (f1 == f1');
      Alcotest.(check bool) "f2 shared" true (f2 == f2');
      Alcotest.(check string) "f1 expanded"
        (canon "int f1(int x) { if (x) return 2; return x; }")
        (norm (print_decl f1'))
  | _ -> Alcotest.fail "expected three functions"

(* The walk's allocation per invocation-free declaration, counted in
   words (no clock): what is left is mostly [Senv] upkeep for the names
   the declarations bind, not a copy of the tree.  A walk that rebuilt
   every node, over binds that allocated closures, took 585 words per
   declaration; the sharing walk takes 377. *)
let walk_allocation_bound () =
  let n = 200 in
  let engine = Ms2.Engine.create () in
  let prog =
    parse_with engine (String.concat "" (List.init n plain_source))
  in
  let decls = List.length prog in
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Ms2.Engine.expand_program engine prog));
  let per_decl = (Gc.minor_words () -. w0) /. float_of_int decls in
  if per_decl > 450. then
    Alcotest.failf "the walk allocated %.0f words per declaration" per_decl

(* Children are expanded in the order the walk has always had: right to
   left within a node, left to right along a list.  A counter macro
   numbers its uses in that order. *)
let walk_order () =
  check_expands ~msg:"expansion order"
    "metadcl int c;\n\
     syntax exp N {| |} { c = c + 1; return make_num(c); }\n\
     syntax stmt S {| ; |} { c = c + 1; return `{ s($(make_num(c))); }; }\n\
     int a0 = N + N * N;\n\
     int a1 = (N)(N, N);\n\
     int a2 = N ? N : N;\n\
     int a3 = a[N][N] = (N, N);\n\
     int a4 = sizeof(enum {Q = N} [N]) + (enum {R = N} *)N;\n\
     int a5[N] = { N, { N, N } };\n\
     struct s1 { enum {T = N} m[N]; long n[N]; } v1[N];\n\
     int (*fp[N])(int r[N], long w[N]);\n\
     int g(int p[N]) {\n\
    \  if (N) S; else S;\n\
    \  while (N) S;\n\
    \  do S; while (N);\n\
    \  for (N; N; N) S;\n\
    \  switch (N) { case 1: S; default: S; }\n\
    \  return -N + N++ + (N)->y;\n\
     }\n"
    "int a0 = 3 + 2 * 1;\n\
     int a1 = 6(4, 5);\n\
     int a2 = 9 ? 8 : 7;\n\
     int a3 = a[13][12] = (11, 10);\n\
     int a4 = sizeof(enum {Q = 17} [16]) + (enum {R = 15} *)14;\n\
     int a5[21] = { 18, { 19, 20 } };\n\
     struct s1 { enum {T = 23} m[22]; long n[24]; } v1[25];\n\
     int (*fp[28])(int r[26], long w[27]);\n\
     int g(int p[29]) {\n\
    \  if (32) s(31); else s(30);\n\
    \  while (34) s(33);\n\
    \  do s(36); while (35);\n\
    \  for (40; 39; 38) s(37);\n\
    \  switch (43) { case 1: s(41); default: s(42); }\n\
    \  return -46 + 45++ + 44->y;\n\
     }\n"

let () =
  Alcotest.run "engine"
    [ ( "engine",
        [ tc "expression macros in all positions" exp_macro_positions;
          tc "recursive expansion" recursive_expansion;
          tc "runaway recursion bounded" runaway_recursion;
          tc "list-returning decl macros" list_returning_decl_macro;
          tc "macros expanding to nothing" empty_expansion;
          tc "stmt-list macros flatten in blocks" stmt_list_macro_in_block;
          tc "macro arguments containing macros" macro_args_containing_macros;
          tc "macros inside types" macros_in_types;
          tc "staged engines persist state" staged_engine;
          tc "statistics" stats;
          tc "output is pure C" output_purity;
          tc "well-typed returns pass conformance" return_type_violation;
          tc "compiled and interpreted patterns agree"
            compiled_patterns_agree;
          tc "expansion tracing" tracing ] );
      ( "walk",
        [ tc "invocation-free declarations are shared"
            walk_shares_invocation_free;
          tc "siblings of an expanded function are shared"
            walk_shares_siblings;
          tc "allocation per invocation-free declaration"
            walk_allocation_bound;
          tc "children expand in a fixed order" walk_order ] ) ]
