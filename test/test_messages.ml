(** Error-message quality: every class of diagnostic must name the
    offending construct precisely (table-driven, one row per failure
    class).  These lock in the user experience: a regression that makes
    a message vaguer fails here. *)

open Tutil

(* (name, source, substrings the message must contain) *)
let cases =
  [ (* lexing *)
    ("unknown character", "int x = #;", [ "unexpected character"; "'#'" ]);
    ("unterminated string", "char *s = \"abc", [ "unterminated string" ]);
    ("unterminated comment", "/* hm", [ "unterminated comment" ]);
    ("bad escape", "char c = '\\q';", [ "unknown escape" ]);
    (* parsing *)
    ("missing rparen", "int x = (1 + 2;", [ "expected \")\"" ]);
    ("missing semicolon", "int f() { return 0 }", [ "expected" ]);
    ("decl after stmt", "int f() { g(); int x; return 0; }",
     [ "declaration after the first statement" ]);
    ("bad template opener",
     "syntax stmt m {| |} { return `@; }",
     [ "after backquote" ]);
    ("placeholder outside template", "int x = $y;",
     [ "placeholder outside" ]);
    (* pattern checking *)
    ("ambiguous repetition",
     "syntax stmt m {| $$*exp::xs $$exp::y |} { return `{;}; }",
     [ "one token"; "lookahead" ]);
    ("duplicate binders",
     "syntax stmt m {| $$exp::a $$stmt::a |} { return `{;}; }",
     [ "duplicate binder"; "a" ]);
    ("separator starts element",
     "syntax stmt m {| $$+/x id::xs |} { return `{;}; }",
     [ "separator"; "begin an element" ]);
    (* meta typing *)
    ("unbound meta variable",
     "syntax stmt m {| $$exp::e |} { return `{$oops;}; }",
     [ "unbound meta variable"; "oops" ]);
    ("sort mismatch in template",
     "syntax stmt m {| $$stmt::s |} { return `($s + 1); }",
     [ "placeholder of type @stmt"; "cannot stand for" ]);
    ("wrong return sort",
     "syntax exp m {| $$stmt::s |} { return s; }",
     [ "returned value"; "@stmt"; "@exp" ]);
    ("arity of meta function",
     "metadcl @stmt f(@stmt s) { return s; }\n\
      syntax stmt m {| $$stmt::s |} { return f(s, s); }",
     [ "wrong number of arguments"; "expected 1"; "got 2" ]);
    ("list of mixed sorts",
     "syntax stmt m {| $$stmt::s $$exp::e |} { return \
      `{f($(*list(s, e)));}; }",
     [ "incompatible types" ]);
    ("unknown component",
     "syntax stmt m {| $$decl::d |} { return `{f($(d->wat));}; }",
     [ "no component"; "wat"; "available" ]);
    ("address of meta value",
     "syntax stmt m {| $$stmt::s |} { print(&s); return `{;}; }",
     [ "illegal to take the address" ]);
    (* invocation placement *)
    ("decl macro in expression",
     "metadcl @decl none[];\n\
      syntax decl gen [] {| $$id::n ; |} { return none; }\n\
      int x = gen y;;",
     [ "gen"; "cannot be invoked"; "expression" ]);
    (* expansion *)
    ("macro error()",
     "syntax stmt m {| $$exp::e |} { error(\"bad operand\", \
      exp_string(e)); return `{;}; }\n\
      int f() { m 1 + 2; return 0; }",
     [ "bad operand"; "1 + 2" ]);
    ("runaway recursion",
     "syntax stmt loop {| |} { return `{loop}; }\nint f() { loop }",
     [ "nesting depth" ]);
    ("head of empty list",
     "metadcl @exp none[];\n\
      syntax exp m {| |} { return *none; }\nint x = m;",
     [ "empty list" ]);
    ("uninitialized ast variable",
     "syntax stmt m {| |} { @stmt s; return s; }\nint f() { m }",
     [ "uninitialized"; "s" ]) ]

let run_case (name, src, needles) () =
  let err = expand_err src in
  List.iter (fun needle -> check_contains ~msg:name err needle) needles

(* ------------------------------------------------------------------ *)
(* Golden renderings: caret output, JSON, stable error codes           *)
(* ------------------------------------------------------------------ *)

module Diag = Ms2_support.Diag
module Loc = Ms2_support.Loc

let golden_loc =
  Loc.make ~source:"golden.mc"
    ~start_pos:{ Loc.line = 2; col = 2; offset = 9 }
    ~end_pos:{ Loc.line = 2; col = 5; offset = 12 }

(* The caller's text lookup: the named sources it holds. *)
let texts named name = List.assoc_opt name named

let golden_caret_render () =
  let text = texts [ ("golden.mc", "int x;\nm bad;\nint y;\n") ] in
  let d = Diag.make ~loc:golden_loc Diag.Expansion "boom" in
  Alcotest.(check string) "caret render"
    "golden.mc:2:2-5: expansion error[E0501]: boom\n\
    \  2 | m bad;\n\
    \    |   ^^^"
    (Diag.render ~text d);
  (* unknown sources degrade to the plain header *)
  let far = { golden_loc with Loc.source = "never-registered.mc" } in
  Alcotest.(check string) "no source, no caret"
    "never-registered.mc:2:2-5: expansion error[E0501]: boom"
    (Diag.render ~text (Diag.make ~loc:far Diag.Expansion "boom"))

(* Carets quote the text the caller hands over, not whatever was last
   lexed under the same source name. *)
let carets_from_the_text_in_hand () =
  let first = "int x;\nint y = q(;\n" in
  match Ms2.Api.expand_diag ~source:"req.mc" first with
  | Ok out -> Alcotest.failf "expected an error, got:\n%s" out
  | Error d ->
      let render () = Diag.render ~text:(texts [ ("req.mc", first) ]) d in
      check_contains ~msg:"quotes the failing line" (render ())
        "2 | int y = q(;";
      ignore (Ms2.Api.expand_diag ~source:"req.mc" "int a;\nint b;\n");
      check_contains ~msg:"a later expansion under the same name"
        (render ()) "2 | int y = q(;"

let golden_json () =
  let d = Diag.make ~loc:golden_loc Diag.Expansion "boom \"quoted\"" in
  Alcotest.(check string) "json with location"
    {|{"severity":"error","code":"E0501","phase":"expansion","source":"golden.mc","line":2,"col":2,"end_line":2,"end_col":5,"message":"boom \"quoted\""}|}
    (Diag.to_json d);
  let d = Diag.make ~severity:Diag.Warning Diag.Type_check "t" in
  Alcotest.(check string) "json with dummy location"
    {|{"severity":"warning","code":"E0401","phase":"type","source":null,"line":null,"col":null,"end_line":null,"end_col":null,"message":"t"}|}
    (Diag.to_json d)

(* One source per phase; each must fail with that phase's stable code. *)
let code_cases =
  [ ("E0101", "int x = #;");
    ("E0201", "int x = (1;");
    ("E0301", "syntax stmt m {| $$*exp::xs $$exp::y |} { return `{;}; }");
    ("E0401", "syntax stmt m {| $$exp::e |} { return `{$oops;}; }");
    ("E0501",
     "syntax stmt m {| |} { error(\"x\"); return `{;}; }\nint f() { m }");
    ("E0603", "syntax stmt loop {| |} { return `{loop}; }\nint f() { loop }")
  ]

let stable_codes () =
  List.iter
    (fun (code, src) ->
      match Ms2.Api.expand_diag src with
      | Ok out -> Alcotest.failf "%s case expanded cleanly:\n%s" code out
      | Error d -> Alcotest.(check string) ("code " ^ code) code d.Diag.code)
    code_cases

let expansion_errors_carry_carets () =
  (* end-to-end: a real expansion error, rendered with its source's
     text, quotes the offending line *)
  let src =
    "syntax stmt m {| |} { error(\"boom\"); return `{;}; }\n\
     int f() {\n\
     m\n\
     return 0; }"
  in
  match Ms2.Api.expand_diag ~source:"caret.mc" src with
  | Ok out -> Alcotest.failf "expected an error, got:\n%s" out
  | Error d ->
      let rendered = Diag.render ~text:(texts [ ("caret.mc", src) ]) d in
      (* the loc (and thus the quoted line) is the error() call in the
         macro body; the invocation site is named in the message *)
      check_contains ~msg:"quotes the offending line" rendered
        "1 | syntax stmt m";
      check_contains ~msg:"draws a caret" rendered "^";
      check_contains ~msg:"names the invocation site" rendered
        "invoked at caret.mc:3:"

let locations_point_at_the_use () =
  (* expansion errors carry the invocation's location *)
  let err =
    expand_err
      "syntax stmt m {| |} { error(\"x\"); return `{;}; }\n\
       int f() {\n\
       m\n\
       return 0; }"
  in
  check_contains ~msg:"line of the invocation" err ":3:"

let () =
  Alcotest.run "messages"
    [ ( "diagnostic quality",
        List.map (fun c -> let n, _, _ = c in tc n (run_case c)) cases
        @ [ tc "expansion errors point at the use" locations_point_at_the_use ]
      );
      ( "golden renderings",
        [ tc "caret output" golden_caret_render;
          tc "json output" golden_json;
          tc "stable error codes" stable_codes;
          tc "expansion errors carry carets" expansion_errors_carry_carets;
          tc "carets from the text in hand" carets_from_the_text_in_hand ]
      ) ]
