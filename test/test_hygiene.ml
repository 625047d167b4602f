(** Hygiene by generated names: gensym'd identifiers cannot collide with
    user identifiers, because the marker they embed is rejected by the
    user-program lexer. *)

open Tutil
module Gensym = Ms2_support.Gensym

let freshness () =
  let g = Gensym.create () in
  let names = List.init 100 (fun _ -> Gensym.fresh g "t") in
  let sorted = List.sort_uniq compare names in
  Alcotest.(check int) "100 distinct names" 100 (List.length sorted);
  Alcotest.(check int) "count" 100 (Gensym.count g)

let reserved_marker () =
  let g = Gensym.create () in
  List.iter
    (fun base ->
      let n = Gensym.fresh g base in
      Alcotest.(check bool) (n ^ " is reserved") true (Gensym.is_reserved n))
    [ "t"; "printlength"; "x_y"; "" ];
  Alcotest.(check bool) "plain name not reserved" false
    (Gensym.is_reserved "printlength");
  Alcotest.(check bool) "marker without digits not reserved" false
    (Gensym.is_reserved "foo__g");
  Alcotest.(check bool) "marker with digit reserved" true
    (Gensym.is_reserved "foo__g7bar");
  (* the marker may occur in the base too: every occurrence is checked *)
  let minted = Gensym.fresh (Gensym.create ()) "a__gb" in
  Alcotest.(check string) "minted from a marked base" "a__gb__g1" minted;
  Alcotest.(check bool) "a later marker with digit reserved" true
    (Gensym.is_reserved minted);
  match
    Ms2_parser.State.of_string ~reject_reserved:true ("int " ^ minted ^ ";")
  with
  | exception Ms2_support.Diag.Error _ -> ()
  | _ -> Alcotest.fail "the lexer accepted a name gensym can mint"

let no_capture () =
  (* the dynamic_bind scenario: the user's own variable named like the
     temporary cannot exist, so the expansion cannot capture *)
  let out =
    expand
      "syntax stmt save_around {| $$id::v $$stmt::body |} {\n\
       @id tmp = gensym(v);\n\
       return `{{int $tmp = $v; $body; $v = $tmp;}};\n\
       }\n\
       int f() { int x = 1; save_around x { x = 2; } return x; }"
  in
  check_contains ~msg:"temp used" (norm out) "int x__g";
  (* two invocations get distinct temporaries *)
  let out2 =
    expand
      "syntax stmt save_around {| $$id::v $$stmt::body |} {\n\
       @id tmp = gensym(v);\n\
       return `{{int $tmp = $v; $body; $v = $tmp;}};\n\
       }\n\
       int f() { int x = 1;\n\
       save_around x { save_around x { x = 2; } }\n\
       return x; }"
  in
  check_contains ~msg:"first temp" (norm out2) "x__g1";
  check_contains ~msg:"second temp" (norm out2) "x__g2"

let user_cannot_forge () =
  (* a user program containing a reserved name is rejected up front, at
     lexing time *)
  match
    Ms2_parser.State.of_string ~reject_reserved:true "int x__g1 = 0;"
  with
  | exception Ms2_support.Diag.Error d ->
      check_contains ~msg:"reserved" (Ms2_support.Diag.to_string d)
        "reserved"
  | _ -> Alcotest.fail "reserved name accepted"

let gensym_in_meta_functions () =
  (* each call to a meta function gets fresh names from the same engine
     counter *)
  let out =
    expand
      "@stmt with_tmp(@exp e) {\n\
       @id t = gensym(\"v\");\n\
       return `{{int $t = $e; use($t);}};\n\
       }\n\
       syntax stmt tmp2 {| $$exp::a $$exp::b ; |} {\n\
       return `{ $(with_tmp(a)) $(with_tmp(b)) };\n\
       }\n\
       int f() { tmp2 1 2; return 0; }"
  in
  check_contains ~msg:"first" (norm out) "v__g1";
  check_contains ~msg:"second" (norm out) "v__g2"

(* Under hygiene a user unit may not spell a generated name, from the
   API and the CLI alike.  With only [f]'s [tmp] renamed to [tmp__g1],
   the swap's renamed temporary is [tmp__g1] too: it would capture the
   user's variable, and the swap would silently do nothing. *)
let forged_swap =
  "syntax stmt swap2 {| ( $$exp::a , $$exp::b ) ; |}\n\
   {\n\
   return `{{int tmp = $a; $a = $b; $b = tmp;}};\n\
   }\n\
   void f()\n\
   {\n\
   int tmp__g1 = 1;\n\
   int other = 2;\n\
   swap2(tmp__g1, other);\n\
   }\n"

let hygienic_runs_reject_forged_names () =
  let expand_with ?prelude ~hygienic src =
    Ms2.Api.expand_diag
      ~engine:(Ms2.Api.create_engine ~hygienic ?prelude ())
      ~source:"forged.mc" src
  in
  (match expand_with ~hygienic:true forged_swap with
  | Error d ->
      check_contains ~msg:"api" (Ms2_support.Diag.to_string d) "reserved"
  | Ok out -> Alcotest.failf "hygienic engine accepted:\n%s" out);
  Alcotest.(check bool) "accepted without hygiene" true
    (Result.is_ok (expand_with ~hygienic:false forged_swap));
  (* the prelude is trusted text: it still loads under hygiene *)
  (match
     expand_with ~prelude:true ~hygienic:true
       "int g() { int a = 1; int b = 2; swap(a, b); return a; }"
   with
  | Ok out -> check_contains ~msg:"prelude swap" (norm out) "swap__g1"
  | Error d -> Alcotest.failf "prelude: %s" (Ms2_support.Diag.to_string d));
  let ms2c =
    if Sys.file_exists "../bin/ms2c.exe" then "../bin/ms2c.exe"
    else "_build/default/bin/ms2c.exe"
  in
  let src = Filename.temp_file "forged" ".mc" in
  let err = Filename.temp_file "forged" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove src; Sys.remove err)
    (fun () ->
      Out_channel.with_open_bin src (fun oc ->
          output_string oc forged_swap);
      let code =
        Sys.command
          (Printf.sprintf "%s expand --hygienic %s > /dev/null 2> %s" ms2c
             (Filename.quote src) (Filename.quote err))
      in
      Alcotest.(check int) "ms2c exits 1" 1 code;
      check_contains ~msg:"cli"
        (In_channel.with_open_bin err In_channel.input_all)
        "reserved")

let () =
  Alcotest.run "hygiene"
    [ ( "hygiene",
        [ tc "gensym freshness" freshness;
          tc "reserved marker" reserved_marker;
          tc "no capture in expansions" no_capture;
          tc "users cannot forge generated names" user_cannot_forge;
          tc "fresh names in meta functions" gensym_in_meta_functions;
          tc "hygienic runs reject forged names"
            hygienic_runs_reject_forged_names ] ) ]
