(** Interpreter tests: running meta code directly through the engine, by
    defining macros whose bodies compute and checking what they expand
    to.  An expression-macro [calc] that returns [make_num(...)] turns
    interpreter results into observable C constants. *)

open Tutil

(* Run meta code: wrap [body] (which must return an int) into an
   exp-macro returning make_num of it and read the constant back. *)
let run_int ?(prelude = "") body =
  let src =
    Printf.sprintf
      "%s\nsyntax exp calc {| ( ) |} {\n%s\n}\nint result = calc();" prelude
      body
  in
  let out = expand src in
  match pprog out with
  | [ { d = Ms2_syntax.Ast.Decl_plain
            (_, [ Ms2_syntax.Ast.Init_decl
                    (_, Some (Ms2_syntax.Ast.I_expr e)) ]); _ } ] -> (
      match e.Ms2_syntax.Ast.e with
      | Ms2_syntax.Ast.E_const (Ms2_syntax.Ast.Cint (v, _)) -> v
      | Ms2_syntax.Ast.E_unary
          (Ms2_syntax.Ast.Neg,
           { e = Ms2_syntax.Ast.E_const (Ms2_syntax.Ast.Cint (v, _)); _ }) ->
          -v
      | _ -> Alcotest.failf "not a constant: %s" out)
  | _ -> Alcotest.failf "unexpected expansion: %s" out

let check_int ?prelude name body expected =
  Alcotest.(check int) name expected (run_int ?prelude body)

let arithmetic () =
  check_int "arith" "return make_num(2 + 3 * 4);" 14;
  check_int "div mod" "return make_num(17 / 5 * 10 + 17 % 5);" 32;
  check_int "shift" "return make_num(1 << 4 >> 1);" 8;
  check_int "bitops" "return make_num((12 & 10) | (1 ^ 3));" 10;
  check_int "negative" "return make_num(-(3 - 8));" 5;
  check_int "comparison" "return make_num((3 < 5) + (5 <= 5) + (6 > 7));" 2;
  check_int "logical short circuit" "return make_num(0 && (1 / 0) || 1);" 1;
  check_int "bitnot" "return make_num(~0 + 1);" 0

let control_flow () =
  check_int "while"
    "int i = 0;\nint total = 0;\nwhile (i < 10) { total += i; i++; }\n\
     return make_num(total);"
    45;
  check_int "for with break/continue"
    "int i;\nint total = 0;\n\
     for (i = 0; i < 100; i++) {\n\
     if (i % 2 == 0) continue;\n\
     if (i > 10) break;\n\
     total += i;\n\
     }\nreturn make_num(total);"
    25;
  check_int "do while" "int i = 0;\ndo i++; while (i < 5);\nreturn make_num(i);" 5;
  check_int "switch"
    "int x = 2;\nint r = 0;\n\
     switch (x) { case 1: r = 10; break; case 2: r = 20; break; default: r \
     = 30; }\nreturn make_num(r);"
    20;
  check_int "switch fallthrough"
    "int r = 0;\nswitch (1) { case 1: r += 1; case 2: r += 2; break; case \
     3: r += 4; }\nreturn make_num(r);"
    3;
  check_int "switch default"
    "int r = 0;\nswitch (9) { case 1: r = 1; break; default: r = 7; }\n\
     return make_num(r);"
    7;
  check_int "conditional" "return make_num(3 > 2 ? 10 : 20);" 10

let incr_decr () =
  check_int "incr decr"
    "int x = 5;\nint a = x++;\nint b = ++x;\nint c = x--;\nint d = --x;\n\
     return make_num(1000 * a + 100 * b + 10 * c + d);"
    (1000 * 5 + 100 * 7 + 10 * 7 + 5)

let lists () =
  check_int "length" "return make_num(length(list(1, 2, 3)));" 3;
  check_int "head" "return make_num(*list(7, 8));" 7;
  check_int "tail" "return make_num(*(list(7, 8, 9) + 1));" 8;
  check_int "offset 2" "return make_num(*(list(7, 8, 9) + 2));" 9;
  check_int "index" "return make_num(list(4, 5, 6)[2]);" 6;
  check_int "append"
    "return make_num(length(append(list(1), list(2, 3))));" 3;
  check_int "cons" "return make_num(*cons(42, list(1)));" 42;
  check_int "reverse" "return make_num(*reverse(list(1, 2, 3)));" 3;
  check_int "nth" "return make_num(nth(list(10, 20), 1));" 20

let strings () =
  check_int "strcmp equal" "return make_num(strcmp(\"ab\", \"ab\") == 0);" 1;
  check_int "strcmp order" "return make_num(strcmp(\"a\", \"b\") < 0);" 1;
  check_int "strcat"
    "return make_num(strcmp(strcat(\"ab\", \"cd\"), \"abcd\") == 0);" 1;
  check_int "string +"
    "char *s = \"x\" + \"y\";\nreturn make_num(strcmp(s, \"xy\") == 0);" 1

let functions () =
  (* int-typed meta helpers are declared with metadcl (a function whose
     type mentions @ is a meta function even without it) *)
  check_int ~prelude:"metadcl int square(int x) { return x * x; }"
    "meta function" "return make_num(square(7));" 49;
  check_int
    ~prelude:
      "metadcl int fact(int n) { if (n <= 1) return 1; return n * fact(n - \
       1); }"
    "recursion" "return make_num(fact(6));" 720;
  check_int "lambda" "return make_num(length(map((int x; x), list(1, 2))));" 2;
  check_int "lambda captures"
    "int base = 100;\n\
     return make_num(*map((int x; x + base), list(5)));"
    105;
  check_int "filter"
    "return make_num(length(filter((int x; x > 2), list(1, 2, 3, 4))));" 2

let defaults () =
  (* uninitialized meta variables: lists are empty, ints zero *)
  check_int ~prelude:"metadcl @stmt frags[]; metadcl int counter;"
    "defaults" "return make_num(length(frags) + counter);" 0

let runtime_errors () =
  check_error
    "syntax exp c {| ( ) |} { return make_num(1 / 0); }\nint x = c();"
    "division by zero";
  check_error
    "metadcl @exp empty[];\n\
     syntax exp c {| ( ) |} { return *empty; }\n\
     int x = c();"
    "empty list";
  check_error
    "metadcl @exp ids[];\n\
     syntax exp c {| ( ) |} { return ids[4]; }\n\
     int x = c();"
    "out of bounds";
  check_error
    "syntax exp c {| ( ) |} { error(\"boom\"); return make_num(0); }\n\
     int x = c();"
    "boom"

let closures_and_mutation () =
  (* the paper's anonymous functions close over meta variables by
     reference: mutation inside map is visible outside *)
  check_int
    "closure sees mutation"
    "int acc = 0;\nmap((int x; acc = acc + x), list(1, 2, 3));\n\
     return make_num(acc);"
    6;
  (* a closure passed to a meta function still sees its environment *)
  check_int
    ~prelude:"metadcl int apply3(int f(int x)) { return f(3); }"
    "closure through meta function"
    "int base = 100;\nreturn make_num(apply3((int y; y + base)));"
    103;
  (* a lambda that escapes into a global keeps the locals it captured:
     a later macro calls it after the one that made it has returned *)
  let out =
    expand
      "metadcl int keep(int x);\n\
       syntax exp setk {| ( ) |} {\n\
       int base = 5;\n\
       keep = (int y; y + base);\n\
       return make_num(0);\n\
       }\n\
       syntax exp callk {| ( ) |} { return make_num(keep(1)); }\n\
       int a = setk();\n\
       int b = callk();"
  in
  Alcotest.(check string) "escaped lambda" (canon "int a = 0; int b = 6;")
    (norm out)

(* A lambda stored in a global holds the bindings it captured by value,
   frozen when it is stored: the session's meta state is closed, so a
   rollback, a cache replay or another session cannot reach the
   macro's locals through it. *)
let escaped_lambdas_freeze () =
  let use setk =
    "metadcl int keep(int x);\n\
     syntax exp setk {| ( ) |} {\n\
     int base = 5;\n" ^ setk
    ^ "return make_num(0);\n\
       }\n\
       syntax exp callk {| ( ) |} { return make_num(keep(1)); }\n\
       int a = setk();\n\
       int b = callk();"
  in
  let check what setk =
    Alcotest.(check string) what (canon "int a = 0; int b = 6;")
      (norm (expand (use setk)))
  in
  check "a later write to the local does not reach it"
    "keep = (int y; y + base);\nbase = 10;\n";
  (* a lambda bound next to it (here: itself) is left out of the copy,
     so freezing ends *)
  check "stored through a local" "int f(int x);\nf = (int y; y + base);\n\
                                  keep = f;\nbase = 10;\n";
  check_error (use "keep = (int y; base = base + y);\n")
    "cannot assign base"

(* Storing a global walks the value for lambdas to freeze, but a list
   consed onto the global's old value is walked only down to it: 40,000
   conses take a fraction of a second.  Walking the whole list each
   time took about 9 s, past this deadline. *)
let global_cons_is_linear () =
  let limits =
    { Ms2_support.Limits.default with Ms2_support.Limits.timeout_ms = 5000 }
  in
  let engine = Ms2.Api.create_engine ~limits () in
  match
    Ms2.Api.expand engine
      "metadcl int acc[];\n\
       syntax exp fill {| ( ) |} {\n\
       int i;\n\
       for (i = 0; i < 40000; i++) acc = cons(i, acc);\n\
       return make_num(length(acc));\n\
       }\n\
       int n = fill();"
  with
  | Ok out -> Alcotest.(check string) "length" (canon "int n = 40000;") (norm out)
  | Error e -> Alcotest.failf "expansion failed: %s" e

let scoping_semantics () =
  check_int "block scoping"
    "int x = 1;\nif (1) { int x = 2; x = x + 1; }\nreturn make_num(x);" 1;
  check_int "loop variable persists"
    "int i;\nint last = 0;\nfor (i = 0; i < 3; i++) last = i;\n\
     return make_num(last);"
    2

let comparisons_on_ids () =
  (* identifier equality compares names (the window_proc mechanism) *)
  check_int
    ~prelude:"metadcl int same(@id a, @id b) { if (a == b) return 1; \
              return 0; }"
    "id equality"
    "return make_num(same(gensym(\"q\"), gensym(\"q\")) * 10 + \
     same(make_id(\"k\"), make_id(\"k\")));"
    1

let tuple_values () =
  (* tuple field access and construction through patterns *)
  let out =
    expand
      "syntax exp pick {| ( $$.( $$num::a , $$num::b )::p ) |} {\n\
       return make_num(num_value(p->a) * 10 + num_value(p->b));\n\
       }\n\
       int x = pick(3, 7);"
  in
  Alcotest.(check string) "tuple access" (canon "int x = 37;") (norm out)

let uninitialized_ast () =
  check_error
    "syntax stmt m {| $$exp::e |} { @stmt s; return s; }\n\
     int f() { m 1; return 0; }"
    "uninitialized"

let () =
  Alcotest.run "interp"
    [ ( "interp",
        [ tc "arithmetic" arithmetic;
          tc "control flow" control_flow;
          tc "increment/decrement" incr_decr;
          tc "list operations" lists;
          tc "strings" strings;
          tc "functions and lambdas" functions;
          tc "default values" defaults;
          tc "runtime errors" runtime_errors;
          tc "closures and mutation" closures_and_mutation;
          tc "escaped lambdas freeze" escaped_lambdas_freeze;
          tc "consing onto a global is linear" global_cons_is_linear;
          tc "scoping semantics" scoping_semantics;
          tc "identifier equality" comparisons_on_ids;
          tc "tuple values" tuple_values;
          tc "uninitialized AST variables" uninitialized_ast ] ) ]
