(** Expansion provenance, end to end.

    Golden tests over [corpus/provenance/]: a doubly-nested failure must
    render its full "in expansion of ..." chain (text and JSON,
    innermost first), a runaway recursion must elide the middle of its
    chain, a property test checks that every node of an expanded
    program keeps a known location, and the CLI tests lock in
    [--line-directives] (output acceptable to a real C compiler),
    [--sourcemap] (every output line mapped, expanded lines carrying
    their macro stack) and [--trace] (inner invocations show the chain
    that produced them). *)

open Tutil
module Loc = Ms2_support.Loc
module Diag = Ms2_support.Diag

(* Tests normally run from [_build/default/test] ([dune runtest]), but
   also work from the project root. *)
let corpus_dir =
  if Sys.file_exists "corpus/provenance" then "corpus/provenance"
  else "test/corpus/provenance"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let corpus name = read_file (Filename.concat corpus_dir name)

let expand_err name =
  match Ms2.Api.expand_diag ~source:name (corpus name) with
  | Ok out -> Alcotest.failf "%s: expected an error, got:\n%s" name out
  | Error d -> d

(* Render [d] with the text of corpus file [name] in hand. *)
let render name d =
  Diag.render ~text:(fun s -> if s = name then Some (corpus name) else None) d

(* [String.index_of]-style search; [-1] when absent. *)
let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then -1 else if String.sub s i m = sub then i else go (i + 1)
  in
  go 0

let check_order ~msg s subs =
  let _ =
    List.fold_left
      (fun last sub ->
        let i = find_sub s sub in
        if i < 0 then Alcotest.failf "%s: %S not found in %S" msg sub s;
        if i < last then
          Alcotest.failf "%s: %S appears out of order in %S" msg sub s;
        i)
      (-1) subs
  in
  ()

(* ------------------------------------------------------------------ *)
(* Backtrace golden tests                                              *)
(* ------------------------------------------------------------------ *)

let nested_backtrace_text () =
  let d = expand_err "nested.mc" in
  let r = render "nested.mc" d in
  check_contains ~msg:"the error itself" r "boom";
  (* the full chain, innermost (the failing `inner') first *)
  check_order ~msg:"chain order" r
    [ "in expansion of macro `inner' at nested.mc";
      "in expansion of macro `outer' at nested.mc";
      "in expansion of macro `outest' at nested.mc" ];
  (* the outermost frame points at the user's own line *)
  check_contains ~msg:"user invocation line" r "nested.mc:8"

let nested_backtrace_json () =
  let d = expand_err "nested.mc" in
  let j = Diag.to_json d in
  check_contains ~msg:"stack present" j {|"expansion_stack":[{"macro":"inner"|};
  check_order ~msg:"frame order" j
    [ {|"macro":"inner"|}; {|"macro":"outer"|}; {|"macro":"outest"|} ];
  (* single-line JSON, stable prefix preserved *)
  Alcotest.(check bool) "single line" false (String.contains j '\n');
  check_contains ~msg:"stable prefix" j {|{"severity":"error","code":|}

let recursive_backtrace_elided () =
  let d = expand_err "recursive.mc" in
  Alcotest.(check string) "depth guard" Diag.code_depth d.Diag.code;
  let r = render "recursive.mc" d in
  check_contains ~msg:"chain shown" r "in expansion of macro `again'";
  check_contains ~msg:"deep chain elided" r "more expansion frames";
  let frame_lines =
    List.length
      (List.filter
         (fun l -> contains ~sub:"in expansion of" l)
         (String.split_on_char '\n' r))
  in
  Alcotest.(check int) "render cap respected" Loc.max_backtrace_frames
    frame_lines;
  check_contains ~msg:"json elision" (Diag.to_json d) {|"elided_frames":|}

(* ------------------------------------------------------------------ *)
(* Property: expansion never loses locations                           *)
(* ------------------------------------------------------------------ *)

(* Walk every located node of a pure-C program.  Declarators, params
   and initializers carry no span of their own, so the property is over
   the three located node kinds: declarations, statements, expressions. *)
let rec walk_expr f (e : Ms2_syntax.Ast.expr) =
  let open Ms2_syntax.Ast in
  f ("expr " ^ Ms2_syntax.Pretty.expr_to_string e) e.eloc;
  match e.e with
  | E_ident _ | E_const _ -> ()
  | E_call (g, args) -> walk_expr f g; List.iter (walk_expr f) args
  | E_index (a, b) | E_binary (_, a, b) | E_comma (a, b)
  | E_assign (_, a, b) ->
      walk_expr f a; walk_expr f b
  | E_member (a, _) | E_arrow (a, _) | E_postincr a | E_postdecr a
  | E_unary (_, a) | E_cast (_, a) | E_sizeof_expr a ->
      walk_expr f a
  | E_sizeof_type _ -> ()
  | E_cond (a, b, c) -> walk_expr f a; walk_expr f b; walk_expr f c
  | E_backquote _ | E_lambda _ | E_splice _ | E_macro _ ->
      Alcotest.fail "meta residue in expanded output"

let rec walk_stmt f (s : Ms2_syntax.Ast.stmt) =
  let open Ms2_syntax.Ast in
  f ("stmt " ^ Ms2_syntax.Pretty.stmt_to_string s) s.sloc;
  match s.s with
  | St_expr e -> walk_expr f e
  | St_compound items ->
      List.iter
        (function Bi_decl d -> walk_decl f d | Bi_stmt s -> walk_stmt f s)
        items
  | St_if (e, a, b) ->
      walk_expr f e; walk_stmt f a; Option.iter (walk_stmt f) b
  | St_while (e, s) | St_do (s, e) | St_switch (e, s) | St_case (e, s) ->
      walk_expr f e; walk_stmt f s
  | St_for (a, b, c, s) ->
      List.iter (Option.iter (walk_expr f)) [ a; b; c ];
      walk_stmt f s
  | St_default s | St_label (_, s) -> walk_stmt f s
  | St_return e -> Option.iter (walk_expr f) e
  | St_break | St_continue | St_goto _ | St_null -> ()
  | St_splice _ | St_macro _ ->
      Alcotest.fail "meta residue in expanded output"

and walk_decl f (d : Ms2_syntax.Ast.decl) =
  let open Ms2_syntax.Ast in
  f ("decl " ^ Ms2_syntax.Pretty.decl_to_string d) d.dloc;
  match d.d with
  | Decl_plain _ -> ()
  | Decl_fun (_, _, kr, body) ->
      List.iter (walk_decl f) kr;
      walk_stmt f body
  | Decl_metadcl _ | Decl_macro_def _ | Decl_splice _ | Decl_macro _ ->
      Alcotest.fail "meta residue in expanded output"

let expanded_locations_known () =
  (* successful corpus programs, including multi-round nested
     expansion: no node of the output may end up with an unknown
     location *)
  List.iter
    (fun name ->
      match Ms2.Api.expand_to_ast ~source:name (corpus name) with
      | Error d -> Alcotest.failf "%s: %s" name (Diag.to_string d)
      | Ok prog ->
          List.iter
            (walk_decl (fun what loc ->
                 if Loc.is_dummy loc then
                   Alcotest.failf "%s: unknown location on %s" name what))
            prog)
    [ "lines.mc"; "nested_ok.mc" ]

let expanded_locations_rooted () =
  (* every location of the expanded output roots in a user-written span
     of the input file — nothing escapes into "<none>" *)
  List.iter
    (fun name ->
      match Ms2.Api.expand_to_ast ~source:name (corpus name) with
      | Error d -> Alcotest.failf "%s: %s" name (Diag.to_string d)
      | Ok prog ->
          List.iter
            (walk_decl (fun what loc ->
                 let r = Loc.root loc in
                 if r.Loc.source <> name then
                   Alcotest.failf "%s: %s roots in %s" name what
                     r.Loc.source))
            prog)
    [ "lines.mc"; "nested_ok.mc" ]

(* ------------------------------------------------------------------ *)
(* CLI: #line directives, source maps, trace                           *)
(* ------------------------------------------------------------------ *)

let ms2c =
  if Sys.file_exists "../bin/ms2c.exe" then "../bin/ms2c.exe"
  else "_build/default/bin/ms2c.exe"

(** Run [ms2c args], returning (exit code, stdout, stderr). *)
let run_cli args =
  let out = Filename.temp_file "ms2c_prov" ".out" in
  let err = Filename.temp_file "ms2c_prov" ".err" in
  let code =
    Sys.command (Printf.sprintf "%s %s > %s 2> %s" ms2c args out err)
  in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

let gcc_available = Sys.command "gcc --version > /dev/null 2>&1" = 0

let cli_line_directives () =
  let code, out, _ =
    run_cli ("expand --line-directives " ^ corpus_dir ^ "/lines.mc")
  in
  Alcotest.(check int) "clean exit" 0 code;
  (* directives point at the user's own file *)
  check_contains ~msg:"directive present" out "#line";
  check_contains ~msg:"maps to the input file" out "lines.mc\"";
  (* the expanded block maps to the invocation line (11), never to the
     macro's template line (5); the first user line after it needs a
     re-sync back to 12 *)
  Alcotest.(check bool) "never maps to the template" false
    (contains ~sub:"#line 5" out);
  check_contains ~msg:"re-syncs after the expansion" out "#line 12";
  (* the result is still an ordinary C translation unit *)
  if gcc_available then begin
    let c = Filename.temp_file "ms2c_lines" ".c" in
    let oc = open_out c in
    output_string oc out;
    close_out oc;
    let ok =
      Sys.command
        (Printf.sprintf "gcc -std=c89 -w -fsyntax-only %s 2> /dev/null" c)
    in
    Sys.remove c;
    Alcotest.(check int) "gcc -fsyntax-only accepts the output" 0 ok
  end

let cli_sourcemap () =
  let map_file = Filename.temp_file "ms2c_prov" ".map" in
  let code, out, _ =
    run_cli ("expand --sourcemap " ^ map_file ^ " " ^ corpus_dir ^ "/lines.mc")
  in
  Alcotest.(check int) "clean exit" 0 code;
  let entries =
    List.filter (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (read_file map_file))
  in
  Sys.remove map_file;
  (* every physical output line has exactly one map entry, in order *)
  let out_lines =
    match String.split_on_char '\n' out with
    | lines when List.nth lines (List.length lines - 1) = "" ->
        List.length lines - 1
    | lines -> List.length lines
  in
  Alcotest.(check int) "one entry per output line" out_lines
    (List.length entries);
  List.iteri
    (fun i entry ->
      check_contains ~msg:"ascending out_line" entry
        (Printf.sprintf {|{"out_line":%d,|} (i + 1)))
    entries;
  (* the lines produced by the expansion carry the invocation frame *)
  let stacked =
    List.filter (fun e -> contains ~sub:{|"stack":[{"macro":"swap"|} e)
      entries
  in
  Alcotest.(check bool) "expanded lines carry the macro stack" true
    (List.length stacked >= 3);
  List.iter
    (fun e -> check_contains ~msg:"frame call site" e {|"line":11|})
    stacked;
  (* user-written lines have an empty stack *)
  Alcotest.(check bool) "user lines have no stack" true
    (List.exists (fun e -> contains ~sub:{|"stack":[]|} e) entries)

(* Every emit mode renders the same C: the source map never changes
   stdout, and [--line-directives] only adds [#line] lines.  A 40-deep
   [if] nest puts the innermost lines at column 160, well past any
   pretty-printer margin, and an empty function body prints a
   whitespace-only line that every mode must keep. *)
let emit_modes_byte_identical () =
  let depth = 40 in
  let src =
    "int f(int a)\n{\n"
    ^ String.concat "" (List.init depth (fun _ -> "if (a) { "))
    ^ "a++; " ^ String.make depth '}' ^ "\n}\nint g(void) {}\n"
  in
  let file = Filename.temp_file "ms2c_nest" ".mc" in
  let map_file = Filename.temp_file "ms2c_nest" ".map" in
  let oc = open_out_bin file in
  output_string oc src;
  close_out oc;
  let expand flags =
    let code, out, _ = run_cli (Printf.sprintf "expand %s %s" flags file) in
    Alcotest.(check int) ("clean exit " ^ flags) 0 code;
    out
  in
  let plain = expand "" in
  let mapped = expand ("--sourcemap " ^ map_file) in
  let directed = expand "--line-directives" in
  Sys.remove file;
  Sys.remove map_file;
  Alcotest.(check string) "--sourcemap leaves stdout alone" plain mapped;
  let undirected =
    String.concat "\n"
      (List.filter
         (fun l -> not (String.starts_with ~prefix:"#line" l))
         (String.split_on_char '\n' directed))
  in
  Alcotest.(check string) "--line-directives only adds #line lines" plain
    undirected;
  (* line 1 is the header and line 2 the body's brace; nesting level k
     (an [if], then its block, alternately) starts on line k + 2 *)
  let lines = Array.of_list (String.split_on_char '\n' plain) in
  for k = 1 to 2 * depth do
    let line = lines.(k + 1) in
    let text = String.trim line in
    Alcotest.(check int)
      (Printf.sprintf "level %d indentation" k)
      (2 * k)
      (String.length line - String.length text);
    Alcotest.(check string)
      (Printf.sprintf "level %d text" k)
      (if k mod 2 = 1 then "if (a)" else "{")
      text
  done

let cli_trace_shows_chain () =
  let code, _, err =
    run_cli ("expand --trace " ^ corpus_dir ^ "/nested_ok.mc -o /dev/null")
  in
  Alcotest.(check int) "clean exit" 0 code;
  check_contains ~msg:"outer expansion traced" err "expanding twice at";
  check_contains ~msg:"inner expansion traced" err "expanding bump at";
  (* the inner invocations were produced by `twice', and the trace says
     so *)
  check_contains ~msg:"chain in trace" err "in expansion of macro `twice'"

let cli_json_diag_chain () =
  let code, _, err =
    run_cli
      ("expand --diag-format json " ^ corpus_dir ^ "/nested.mc -o /dev/null")
  in
  Alcotest.(check int) "fatal exit" 1 code;
  check_order ~msg:"json chain over the CLI" err
    [ {|"macro":"inner"|}; {|"macro":"outer"|}; {|"macro":"outest"|} ]

let () =
  Alcotest.run "provenance"
    [ ( "backtraces",
        [ tc "nested failure renders the full chain" nested_backtrace_text;
          tc "nested failure serializes the chain" nested_backtrace_json;
          tc "runaway recursion elides the middle" recursive_backtrace_elided
        ] );
      ( "locations",
        [ tc "expansion never loses locations" expanded_locations_known;
          tc "expanded locations root in user code" expanded_locations_rooted
        ] );
      ( "cli",
        [ tc "--line-directives maps output to invocations"
            cli_line_directives;
          tc "--sourcemap covers every output line" cli_sourcemap;
          tc "--trace shows the producing chain" cli_trace_shows_chain;
          tc "json diagnostics carry the chain" cli_json_diag_chain;
          tc "emit modes are byte-identical" emit_modes_byte_identical ] ) ]
