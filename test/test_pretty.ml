(** Pretty-printer tests: fixed-point property on concrete cases, strict
    mode (meta-residue detection), declarator printing. *)

open Tutil

(* parse → print → parse → print must be a fixed point *)
let fixed_point_cases =
  [ "int x = (a + b) * (c + d);";
    "int f(int a, char *b) { return a ? *b : 0; }";
    "int g() { for (i = 0; i < 10; i++) if (a[i] > m) m = a[i]; return m; }";
    "char *(*handler)(int, char **);";
    "struct s { int x; struct s *next; };";
    "enum e {a = 1, b, c = a + 5};";
    "int h() { do { x <<= 1, y++; } while (x < (1 << 20)); return x; }";
    "int k() { switch (c) { case 'a': return 1; default: break; } return 0; }";
    "typedef int (*cb)(void); cb table[10];";
    "int m() { return sizeof(struct s) + sizeof(x); }";
    "int n() { lab: if (--x) goto lab; return x; }" ]

let fixed_point () =
  List.iter
    (fun src ->
      let once = canon src in
      let twice = canon once in
      Alcotest.(check string) src once twice)
    fixed_point_cases

let precedence_parens () =
  let cases =
    [ ("(a + b) * c", "(a + b) * c");
      ("a + b * c", "a + b * c");
      ("-(a + b)", "-(a + b)");
      ("*(p + 1)", "*(p + 1)");
      ("(a = b) + 1", "(a = b) + 1");
      ("a == (b & c)", "a == (b & c)");
      ("(a, b)", "a, b");
      ("f((a, b), c)", "f((a, b), c)") ]
  in
  List.iter
    (fun (src, expected) ->
      Alcotest.(check string) src expected (print_expr (pexpr src)))
    cases

let strict_rejects_meta () =
  let prog =
    pprog "syntax stmt m {| $$stmt::s |} { return s; }\nint f() { m {x;} }"
  in
  match
    Ms2_syntax.Pretty.program_to_string ~mode:Ms2_syntax.Pretty.strict prog
  with
  | exception Ms2_syntax.Pretty.Meta_residue what ->
      check_contains ~msg:"residue names the construct" what "macro"
  | s -> Alcotest.failf "strict printing accepted meta residue: %s" s

let relaxed_prints_meta () =
  let prog =
    pprog "syntax stmt m {| $$stmt::s |} { return `{ $s; f(); }; }"
  in
  let out = Ms2_syntax.Pretty.program_to_string prog in
  check_contains ~msg:"macro header" out "syntax";
  check_contains ~msg:"placeholder" out "$s"

let declarators_roundtrip () =
  (* inside-out declarator syntax must survive a round trip *)
  List.iter
    (fun src ->
      Alcotest.(check string) src (canon src) (canon (canon src |> fun s -> s)))
    [ "int (*f(int))(char);" (* function returning function pointer *);
      "int (*a[3])(void);" (* array of function pointers *);
      "char *(*(*p)[4])(int);" ]

let escapes () =
  Alcotest.(check string) "string escape survives round trip"
    (canon {|char *s = "a\n\"b\"\\";|})
    (canon (canon {|char *s = "a\n\"b\"\\";|}))

(* A specifier wider than any margin stays on its declaration's line:
   the renderer never wraps. *)
let wide_struct_one_line () =
  let src =
    "int f() { struct point_tag { int alpha_coord; int beta_coord; \
     int gamma_coord; int dd; } p; return 0; }"
  in
  let local prog =
    match prog with
    | [ { Ms2_syntax.Ast.d =
            Decl_fun (_, _, _, { s = St_compound (Bi_decl d :: _); _ });
          _ } ] ->
        Ms2_syntax.Sexp.decl_to_string d
    | _ -> Alcotest.fail "expected one function with a local declaration"
  in
  let prog = pprog src in
  let out = Ms2_syntax.Pretty.program_to_string prog in
  Alcotest.(check (list string)) "one line per declaration"
    [ "int f()"; "{";
      "  struct point_tag { int alpha_coord; int beta_coord; int \
       gamma_coord; int dd; } p;";
      "  return 0;"; "}"; "" ]
    (String.split_on_char '\n' out);
  Alcotest.(check string) "re-parses to the same tree" (local prog)
    (local (pprog out))

let () =
  Alcotest.run "pretty"
    [ ( "pretty",
        [ tc "print/parse fixed point" fixed_point;
          tc "minimal parenthesization" precedence_parens;
          tc "strict mode rejects meta residue" strict_rejects_meta;
          tc "relaxed mode prints meta constructs" relaxed_prints_meta;
          tc "complex declarators" declarators_roundtrip;
          tc "string escapes" escapes;
          tc "wide struct stays on one line" wide_struct_one_line ] ) ]
