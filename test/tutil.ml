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
