(** Unit tests for the support library: locations, diagnostics, the
    domain pool. *)

open Ms2_support

let mk_loc a b =
  Loc.make ~source:"f.c"
    ~start_pos:{ Loc.line = a; col = 0; offset = a * 10 }
    ~end_pos:{ Loc.line = b; col = 5; offset = (b * 10) + 5 }

let loc_merge () =
  let l1 = mk_loc 1 2 and l2 = mk_loc 3 4 in
  let m = Loc.merge l1 l2 in
  Alcotest.(check int) "start from first" 1 m.Loc.start_pos.line;
  Alcotest.(check int) "end from second" 4 m.Loc.end_pos.line;
  (* dummy sides are ignored *)
  Alcotest.(check int) "dummy left" 3
    (Loc.merge Loc.dummy l2).Loc.start_pos.line;
  Alcotest.(check int) "dummy right" 1
    (Loc.merge l1 Loc.dummy).Loc.start_pos.line;
  (* merging both dummies stays dummy *)
  Alcotest.(check bool) "dummy both" true
    (Loc.is_dummy (Loc.merge Loc.dummy Loc.dummy));
  (* spans from different sources must not be glued together: the first
     span wins unchanged instead of claiming g.c's offsets in f.c *)
  let other =
    Loc.make ~source:"g.c"
      ~start_pos:{ Loc.line = 9; col = 0; offset = 90 }
      ~end_pos:{ Loc.line = 9; col = 3; offset = 93 }
  in
  let cross = Loc.merge l1 other in
  Alcotest.(check string) "cross-source keeps first source" "f.c"
    cross.Loc.source;
  Alcotest.(check int) "cross-source keeps first end" 2
    cross.Loc.end_pos.line;
  (* merge preserves the first side's origin *)
  let stamped = Loc.in_expansion ~macro:"m" ~call_site:l2 l1 in
  (match Loc.origin (Loc.merge stamped l2) with
  | Loc.Macro f -> Alcotest.(check string) "origin kept" "m" f.Loc.macro
  | Loc.User -> Alcotest.fail "merge dropped the origin")

let loc_dummy_is_explicit () =
  (* dummy-ness is the explicit [known] flag, not a line-number
     sentinel: a real location at line 0 stays real... *)
  let line0 =
    Loc.make ~source:"f.c"
      ~start_pos:{ Loc.line = 0; col = 0; offset = 0 }
      ~end_pos:{ Loc.line = 0; col = 1; offset = 1 }
  in
  Alcotest.(check bool) "line 0 is not dummy" false (Loc.is_dummy line0);
  (* ... and stamping an origin onto the dummy does not make it real *)
  let stamped = Loc.set_origin Loc.dummy (Loc.origin Loc.dummy) in
  Alcotest.(check bool) "dummy stays dummy" true (Loc.is_dummy stamped)

let loc_provenance () =
  let use = mk_loc 10 10 in
  let tpl = mk_loc 2 2 in
  (* in_expansion: template span + invocation origin *)
  let e = Loc.in_expansion ~macro:"swap" ~call_site:use tpl in
  Alcotest.(check int) "keeps the template span" 2 e.Loc.start_pos.line;
  (match Loc.backtrace e with
  | [ f ] ->
      Alcotest.(check string) "frame macro" "swap" f.Loc.macro;
      Alcotest.(check int) "frame call site" 10
        f.Loc.call_site.Loc.start_pos.line
  | fs -> Alcotest.failf "expected 1 frame, got %d" (List.length fs));
  (* a dummy location degrades to the call site itself *)
  let d = Loc.in_expansion ~macro:"swap" ~call_site:use Loc.dummy in
  Alcotest.(check int) "dummy degrades to call site" 10
    d.Loc.start_pos.line;
  (* push_frame appends at the *outer* end of the chain *)
  let outer_use = mk_loc 20 20 in
  let chained = Loc.push_frame ~macro:"outer" ~call_site:outer_use e in
  (match Loc.backtrace chained with
  | [ f1; f2 ] ->
      Alcotest.(check string) "innermost first" "swap" f1.Loc.macro;
      Alcotest.(check string) "appended outermost" "outer" f2.Loc.macro
  | fs -> Alcotest.failf "expected 2 frames, got %d" (List.length fs));
  (* root follows the chain to the outermost user-written span *)
  Alcotest.(check int) "root is outermost call site" 20
    (Loc.root chained).Loc.start_pos.line;
  Alcotest.(check bool) "root of user code is itself" true
    (Loc.root use == use)

let loc_backtrace_rendering () =
  let use = mk_loc 10 10 in
  let one = Loc.in_expansion ~macro:"m" ~call_site:use (mk_loc 2 2) in
  let line = Fmt.str "@[<v>%a@]" Loc.pp_backtrace one in
  Tutil.check_contains ~msg:"names the macro" line
    "in expansion of macro `m'";
  Tutil.check_contains ~msg:"names the call site" line "f.c:10:";
  Alcotest.(check string) "user code renders nothing" ""
    (Fmt.str "@[<v>%a@]" Loc.pp_backtrace use);
  (* deep chains are capped with a summary line *)
  let deep =
    let rec grow n loc =
      if n = 0 then loc
      else grow (n - 1) (Loc.in_expansion ~macro:"rec" ~call_site:loc
                           (mk_loc n n))
    in
    grow (Loc.max_backtrace_frames + 5) use
  in
  let rendered = Fmt.str "@[<v>%a@]" Loc.pp_backtrace deep in
  Tutil.check_contains ~msg:"elided count" rendered
    "... (5 more expansion frames)";
  let count_frames s =
    List.length
      (List.filter
         (fun l -> Tutil.contains ~sub:"in expansion of" l)
         (String.split_on_char '\n' s))
  in
  Alcotest.(check int) "capped frame lines" Loc.max_backtrace_frames
    (count_frames rendered)

let diag_backtrace_json () =
  let use = mk_loc 10 10 in
  let e = Loc.in_expansion ~macro:"m\"q" ~call_site:use (mk_loc 2 2) in
  let j = Diag.to_json (Diag.make ~loc:e Diag.Expansion "boom") in
  Tutil.check_contains ~msg:"has stack" j "\"expansion_stack\":[";
  Tutil.check_contains ~msg:"escaped macro name" j {|"macro":"m\"q"|};
  Tutil.check_contains ~msg:"frame location" j "\"line\":10";
  (* no provenance -> no expansion_stack field (golden JSON stability) *)
  let plain = Diag.to_json (Diag.make ~loc:use Diag.Expansion "boom") in
  Alcotest.(check bool) "no stack field" false
    (Tutil.contains ~sub:"expansion_stack" plain)

(* One JSON string escaper serves diagnostics, telemetry and source
   maps: the short escapes, [\b] and [\f] included, and [\u00XX] for
   the other control characters. *)
let json_escapes () =
  let module Json = Ms2_support.Json in
  Alcotest.(check string) "Json.escape"
    {|q\"s\\n\nr\rt\tb\bf\fu\u0001|}
    (Json.escape "q\"s\\n\nr\rt\tb\bf\012u\001");
  let j =
    Diag.to_json (Diag.make ~loc:(mk_loc 1 1) Diag.Expansion "a\bb\012c")
  in
  Tutil.check_contains ~msg:"diagnostic message" j {|"message":"a\bb\fc"|}

let loc_printing () =
  Tutil.check_contains ~msg:"single line"
    (Loc.to_string (mk_loc 3 3)) "f.c:3:0-5";
  Tutil.check_contains ~msg:"multi line"
    (Loc.to_string (mk_loc 3 5)) "f.c:3:0-5:5";
  Alcotest.(check string) "dummy" "<unknown location>"
    (Loc.to_string Loc.dummy);
  Alcotest.(check bool) "is_dummy" true (Loc.is_dummy Loc.dummy);
  Alcotest.(check bool) "not dummy" false (Loc.is_dummy (mk_loc 1 1))

let diag_phases () =
  List.iter
    (fun (phase, name) ->
      Alcotest.(check string) name name (Diag.phase_name phase))
    [ (Diag.Lexing, "lexical error"); (Diag.Parsing, "syntax error");
      (Diag.Pattern_check, "pattern error"); (Diag.Type_check, "type error");
      (Diag.Expansion, "expansion error") ]

let diag_raise_and_protect () =
  (match Diag.error ~loc:(mk_loc 1 1) Diag.Parsing "oops %d" 42 with
  | exception Diag.Error d ->
      Alcotest.(check string) "message" "oops 42" d.Diag.message;
      Tutil.check_contains ~msg:"rendered" (Diag.to_string d) "f.c:1:0-5";
      Tutil.check_contains ~msg:"phase shown" (Diag.to_string d)
        "syntax error"
  | _ -> Alcotest.fail "error did not raise");
  (match Diag.protect (fun () -> 7) with
  | Ok 7 -> ()
  | _ -> Alcotest.fail "protect passes values");
  match
    Diag.protect (fun () -> Diag.error Diag.Expansion "boom")
  with
  | Error d ->
      (* structured: phase and code survive, text is derived *)
      Alcotest.(check string) "message intact" "boom" d.Diag.message;
      Alcotest.(check string) "default code" "E0501" d.Diag.code;
      Tutil.check_contains ~msg:"protect catches" (Diag.to_string d) "boom"
  | Ok _ -> Alcotest.fail "protect should catch diagnostics"

let protect_is_selective () =
  (* non-diagnostic exceptions pass through *)
  match Diag.protect (fun () -> failwith "other") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "protect must not catch Failure"

let gensym_prefixes () =
  let g = Ms2_support.Gensym.create ~prefix:"__x" () in
  let n = Ms2_support.Gensym.fresh g "t" in
  Tutil.check_contains ~msg:"custom prefix" n "__x";
  Ms2_support.Gensym.set g 0;
  Alcotest.(check int) "reset" 0 (Ms2_support.Gensym.count g)

(* ------------------------------------------------------------------ *)
(* Domain pool                                                         *)
(* ------------------------------------------------------------------ *)

let pool_jobs = [ 1; 2; 4 ]

let pool_input_order () =
  List.iter
    (fun jobs ->
      List.iter
        (fun n ->
          Alcotest.(check (array (option int)))
            (Printf.sprintf "n=%d jobs=%d" n jobs)
            (Array.init n (fun i -> Some (i * i)))
            (Pool.map ~jobs n (fun i -> i * i)))
        [ 0; 1; 7; 500 ])
    pool_jobs

(* Item 17 stops the pool.  Item 3 is slow, so at [jobs] > 1 another
   worker reaches 17 while 3 still runs: 3 must finish anyway. *)
let pool_stop_keeps_earlier_items () =
  let n = 60 and at = 17 in
  List.iter
    (fun jobs ->
      let r =
        Pool.map ~jobs ~stop:(fun i -> i = at) n (fun i ->
            if i = 3 then Unix.sleepf 0.05;
            i)
      in
      for i = 0 to at do
        Alcotest.(check (option int))
          (Printf.sprintf "jobs=%d: item %d ran" jobs i)
          (Some i) r.(i)
      done;
      if jobs = 1 then
        for i = at + 1 to n - 1 do
          Alcotest.(check (option int))
            (Printf.sprintf "jobs=1: item %d cancelled" i)
            None r.(i)
        done)
    pool_jobs

let pool_reraises () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "jobs=%d" jobs)
        (Failure "item 5") (fun () ->
          ignore
            (Pool.map ~jobs 40 (fun i ->
                 if i = 5 then failwith "item 5" else i))))
    pool_jobs

let () =
  Alcotest.run "support"
    [ ( "support",
        [ Tutil.tc "location merging" loc_merge;
          Tutil.tc "dummy locations are explicit" loc_dummy_is_explicit;
          Tutil.tc "location provenance chains" loc_provenance;
          Tutil.tc "backtrace rendering" loc_backtrace_rendering;
          Tutil.tc "backtrace json" diag_backtrace_json;
          Tutil.tc "one JSON escaper" json_escapes;
          Tutil.tc "location printing" loc_printing;
          Tutil.tc "phase names" diag_phases;
          Tutil.tc "diagnostics raise and render" diag_raise_and_protect;
          Tutil.tc "protect is selective" protect_is_selective;
          Tutil.tc "gensym prefixes" gensym_prefixes ] );
      ( "pool",
        [ Tutil.tc "results in input order" pool_input_order;
          Tutil.tc "stop keeps every earlier item"
            pool_stop_keeps_earlier_items;
          Tutil.tc "a raised exception is re-raised" pool_reraises ] ) ]
