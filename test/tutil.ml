(** Shared helpers for the test suite. *)

let fail_diag f =
  try f ()
  with Ms2_support.Diag.Error d ->
    Alcotest.failf "unexpected diagnostic: %s" (Ms2_support.Diag.to_string d)

(* ------------------------------------------------------------------ *)
(* Parsing helpers                                                     *)
(* ------------------------------------------------------------------ *)

let pexpr src = fail_diag (fun () -> Ms2_parser.Parser.expr_of_string src)
let pstmt src = fail_diag (fun () -> Ms2_parser.Parser.stmt_of_string src)
let pdecl src = fail_diag (fun () -> Ms2_parser.Parser.decl_of_string src)
let pprog src = fail_diag (fun () -> Ms2_parser.Parser.program_of_string src)

let print_expr e = Ms2_syntax.Pretty.expr_to_string e
let print_stmt s = Ms2_syntax.Pretty.stmt_to_string s
let print_decl d = Ms2_syntax.Pretty.decl_to_string d

(* ------------------------------------------------------------------ *)
(* Normalization                                                       *)
(* ------------------------------------------------------------------ *)

(** Collapse all whitespace runs to single spaces (and trim), so tests
    compare code modulo layout. *)
let norm (s : string) : string =
  let b = Buffer.create (String.length s) in
  let pending = ref false in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\t' | '\n' | '\r' -> pending := true
      | c ->
          if !pending && Buffer.length b > 0 then Buffer.add_char b ' ';
          pending := false;
          Buffer.add_char b c)
    s;
  Buffer.contents b

(** Canonical form of a C (or C+meta) program: parse then pretty-print,
    normalized.  Comparing canonical forms tests AST equality without
    being whitespace- or layout-sensitive. *)
let canon (src : string) : string =
  norm (Ms2_syntax.Pretty.program_to_string (pprog src))

(* ------------------------------------------------------------------ *)
(* Expansion helpers                                                   *)
(* ------------------------------------------------------------------ *)

let expand src =
  match Ms2.Api.expand_string src with
  | Ok out -> out
  | Error e -> Alcotest.failf "expansion failed: %s" e

let expand_err src =
  match Ms2.Api.expand_string src with
  | Ok out -> Alcotest.failf "expected an error, got:\n%s" out
  | Error e -> e

(** Check that [src] expands to the same AST as the pure-C [expected]
    program (both sides canonicalized). *)
let check_expands ?(msg = "expansion") src expected =
  Alcotest.(check string) msg (canon expected) (norm (expand src))

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_contains ?(msg = "contains") s sub =
  if not (contains ~sub s) then
    Alcotest.failf "%s: %S does not contain %S" msg s sub

(** Check that expanding [src] fails with a message containing [sub]. *)
let check_error ?(msg = "error message") src sub =
  let err = expand_err src in
  if not (contains ~sub err) then
    Alcotest.failf "%s: %S does not mention %S" msg err sub

let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* CLI helpers                                                         *)
(* ------------------------------------------------------------------ *)

(** Run [k] on a temp path with no file there yet, removed afterwards.
    As a [--cache-file] it is a cold snapshot, loaded without a
    warning: the one way a one-shot [ms2c] run keeps an expansion-cache
    store, so the cache's counters and spans show. *)
let with_fresh_path k =
  let path = Filename.temp_file "ms2c_fresh" ".bin" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> k path)

(* ------------------------------------------------------------------ *)
(* Closed session state: fixtures shared by the in-process and daemon  *)
(* session tests                                                        *)
(* ------------------------------------------------------------------ *)

(** [swap2] from [corpus/hygienic_swap.mc], and a use of it: under
    hygiene, each use mints a fresh name for the template's [tmp]. *)
let swap2_defs =
  "syntax stmt swap2 {| ( $$exp::a , $$exp::b ) ; |}\n\
   {\n\
  \  return `{{int tmp = $a; $a = $b; $b = tmp;}};\n\
   }\n"

let swap2_use =
  "void f()\n{\n  int tmp = 1;\n  int other = 2;\n  swap2(tmp, other);\n}\n"

(** Session [alice]'s requests, and the orders they run in next to
    session [bob]'s: alone, after all of bob's, and interleaved.  Each
    order is a list of (session, request); alice's outputs must not
    depend on the order. *)
let alice = [ swap2_defs; swap2_use; swap2_use ]

let alice_orders =
  let tag who = List.map (fun r -> (who, r)) in
  [ ("alone", tag "alice" alice);
    ("after bob", tag "bob" alice @ tag "alice" alice);
    ( "interleaved",
      List.concat
        (List.map2 (fun a b -> [ ("alice", a); ("bob", b) ]) alice alice) ) ]

(** Three requests of one session: the first stores a lambda that
    writes its captured [base] in a global, the second calls it and then
    fails (so it is rolled back), the third calls it again.  A lambda
    stored in a global holds its captures by value and cannot write
    them, so the calls are errors naming [base]; a rollback that let the
    write through answered [int d = 7;]. *)
let found_requests =
  [ "metadcl int keep(int x);\n\
     syntax exp setk {| ( ) |} {\n\
     int base = 5;\n\
     keep = (int y; base = base + y);\n\
     return make_num(0);\n\
     }\n\
     syntax exp callk {| ( ) |} { return make_num(keep(1)); }\n\
     syntax exp boom {| ( ) |} { error(\"boom\"); return make_num(0); }\n\
     int a = setk();\n";
    "int c = callk();\nint e = boom();\n";
    "int d = callk();\n" ]
