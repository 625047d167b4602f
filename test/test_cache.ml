(** The content-addressed expansion cache: hits on repeated fragments,
    soundness under redefinition and rollback, hygiene equivalence, and
    the [--no-cache] ablation. *)

open Tutil
module Engine = Ms2.Engine
module Diag = Ms2_support.Diag

let defs =
  "syntax stmt Painting {| $$stmt::body |} {\n\
   return `{BeginPaint(hDC, &ps);\n\
   $body;\n\
   EndPaint(hDC, &ps);};\n\
   }\n"

let uses = "int draw(int hDC)\n{\n  Painting { line(1, 2); }\n  return 0;\n}\n"

let expand_ok engine src =
  match Ms2.Api.expand ~source:"cache.mc" engine src with
  | Ok out -> out
  | Error e -> Alcotest.failf "unexpected failure: %s" e

(* ------------------------------------------------------------------ *)
(* Hits                                                                *)
(* ------------------------------------------------------------------ *)

let repeated_fragment_hits () =
  let engine = Ms2.Api.create_engine () in
  ignore (expand_ok engine defs);
  let first = expand_ok engine uses in
  for _ = 1 to 5 do
    Alcotest.(check string) "replay is byte-identical" first
      (expand_ok engine uses)
  done;
  let s = Ms2.Api.stats engine in
  (* exact ledger: the definition fragment is looked up once and misses;
     use run 1 misses and registers [draw] in the session, so run 2's
     key differs and misses too; the state is then a fixed point and
     runs 3..6 replay *)
  Alcotest.(check int) "hits" 4 s.Ms2.Api.cache_hits;
  Alcotest.(check int) "misses" 3 s.Ms2.Api.cache_misses

let hit_preserves_stats_and_fuel () =
  (* a replayed fragment must account the same fuel/nodes/invocations
     as the real run it stands for *)
  let run_twice ~cache =
    let engine = Ms2.Api.create_engine ~cache () in
    ignore (expand_ok engine defs);
    ignore (expand_ok engine uses);
    ignore (expand_ok engine uses);
    let s = Ms2.Api.stats engine in
    ( s.Ms2.Api.invocations_expanded,
      s.Ms2.Api.fuel_consumed,
      s.Ms2.Api.nodes_produced )
  in
  let cached = run_twice ~cache:true in
  let uncached = run_twice ~cache:false in
  Alcotest.(check (triple int int int))
    "replayed accounting equals real accounting" uncached cached

(* ------------------------------------------------------------------ *)
(* Invalidation                                                        *)
(* ------------------------------------------------------------------ *)

let redefinition_invalidates () =
  let engine = Ms2.Api.create_engine () in
  ignore (expand_ok engine defs);
  let before = expand_ok engine uses in
  check_contains ~msg:"old body" (norm before) "BeginPaint";
  (* redefine Painting with a different template: the same uses-fragment
     must now expand differently — a stale hit would replay BeginPaint *)
  ignore
    (expand_ok engine
       "syntax stmt Painting {| $$stmt::body |} { return `{start(); $body; \
        stop();}; }");
  let after = expand_ok engine uses in
  check_contains ~msg:"new body" (norm after) "start()";
  Alcotest.(check bool) "old body gone" false
    (contains ~sub:"BeginPaint" (norm after))

let rollback_invalidates () =
  let engine = Ms2.Api.create_engine () in
  ignore (expand_ok engine defs);
  let before = expand_ok engine uses in
  let cp = Ms2.Api.checkpoint engine in
  ignore
    (expand_ok engine
       "syntax stmt Painting {| $$stmt::body |} { return `{start(); $body; \
        stop();}; }");
  check_contains ~msg:"redefinition in force"
    (norm (expand_ok engine uses))
    "start()";
  Ms2.Api.rollback engine cp;
  (* after the rollback the original definition is back in force; the
     cache must not replay the redefined expansion *)
  let restored = expand_ok engine uses in
  Alcotest.(check string) "rollback restores the original expansion"
    (norm before) (norm restored)

let failed_fragment_not_poisoning () =
  (* a fragment that fails is never stored; the same text succeeding
     later (after the missing macro appears) must really expand *)
  let engine = Ms2.Api.create_engine () in
  (match Ms2.Api.expand engine uses with
  | Ok out -> Alcotest.failf "expected failure, got:\n%s" out
  | Error _ -> ());
  ignore (expand_ok engine defs);
  check_contains ~msg:"expands after definition"
    (norm (expand_ok engine uses))
    "BeginPaint"

(* ------------------------------------------------------------------ *)
(* Hygiene                                                             *)
(* ------------------------------------------------------------------ *)

let gensym_src =
  "syntax stmt swap {| ( $$id::a , $$id::b ) |} {\n\
   @id tmp;\n\
   tmp = gensym(\"tmp\");\n\
   return `{{int $tmp; $tmp = $a; $a = $b; $b = $tmp;}};\n\
   }\n"

let swap_use = "int f() { int x; int y; swap(x, y); return x; }"

let gensym_runs_never_replayed () =
  (* each expansion of a gensym-using fragment must mint fresh names: a
     replay would duplicate them.  The cache refuses to store such runs,
     so consecutive expansions keep producing distinct temporaries —
     exactly as on a cache-disabled engine. *)
  let names_of engine =
    let out = expand_ok engine swap_use in
    let is_ident c =
      (c >= 'a' && c <= 'z')
      || (c >= 'A' && c <= 'Z')
      || (c >= '0' && c <= '9')
      || c = '_'
    in
    let acc = ref [] and b = Buffer.create 16 in
    let flush () =
      if Buffer.length b > 0 then begin
        let id = Buffer.contents b in
        if contains ~sub:Ms2_support.Gensym.reserved_marker id then
          acc := id :: !acc;
        Buffer.clear b
      end
    in
    String.iter (fun c -> if is_ident c then Buffer.add_char b c else flush ())
      out;
    flush ();
    List.sort_uniq compare !acc
  in
  let engine = Ms2.Api.create_engine () in
  ignore (expand_ok engine gensym_src);
  let n1 = names_of engine in
  let n2 = names_of engine in
  Alcotest.(check bool) "fresh names differ across expansions" true
    (n1 <> [] && n2 <> [] && n1 <> n2);
  let s = Ms2.Api.stats engine in
  Alcotest.(check int) "gensym runs are never replayed" 0
    s.Ms2.Api.cache_hits;
  (* equivalence with the ablation: same fragment sequence on a
     cache-disabled engine mints names the same way *)
  let engine' = Ms2.Api.create_engine ~cache:false () in
  ignore (expand_ok engine' gensym_src);
  let m1 = names_of engine' in
  let m2 = names_of engine' in
  Alcotest.(check (list string)) "first mint equal" n1 m1;
  Alcotest.(check (list string)) "second mint equal" n2 m2

(* ------------------------------------------------------------------ *)
(* Ablation                                                            *)
(* ------------------------------------------------------------------ *)

let ablation_byte_identical () =
  (* cache on vs off over a mixed corpus of fragments, same engine
     lifetime: outputs must be byte-identical *)
  let corpus =
    [ defs; uses; uses;
      "metadcl int counter;";
      "syntax exp MUL {| ( $$exp::a , $$exp::b ) |} { return `($a * $b); }";
      "int w = MUL(x + 1, y + 2);";
      "int w2 = MUL(x + 1, y + 2);"; uses ]
  in
  let run ~cache =
    let engine = Ms2.Api.create_engine ~cache () in
    List.map (fun src -> expand_ok engine src) corpus
  in
  Alcotest.(check (list string))
    "cache on = cache off" (run ~cache:false) (run ~cache:true)

let eviction_under_tiny_budget () =
  (* a tiny byte budget forces evictions without ever breaking
     correctness *)
  (* ~32 KiB holds about three entries of this corpus (an entry with its
     post-state checkpoint is ~9 KiB), so eight distinct fragments must
     evict *)
  let engine = Ms2.Api.create_engine ~cache_bytes:32768 () in
  ignore (expand_ok engine defs);
  let first = expand_ok engine uses in
  for i = 1 to 6 do
    ignore
      (expand_ok engine
         (Printf.sprintf "int filler%d() { Painting { a%d(); } return 0; }" i
            i));
    Alcotest.(check string) "still correct under eviction pressure" first
      (expand_ok engine uses)
  done;
  let s = Ms2.Api.stats engine in
  Alcotest.(check bool)
    (Printf.sprintf "evictions happened (%d)" s.Ms2.Api.cache_evictions)
    true
    (s.Ms2.Api.cache_evictions > 0)

let () =
  Alcotest.run "cache"
    [
      ( "expansion cache",
        [
          Alcotest.test_case "repeated fragments hit" `Quick
            repeated_fragment_hits;
          Alcotest.test_case "replay accounting" `Quick
            hit_preserves_stats_and_fuel;
          Alcotest.test_case "redefinition invalidates" `Quick
            redefinition_invalidates;
          Alcotest.test_case "rollback invalidates" `Quick
            rollback_invalidates;
          Alcotest.test_case "failures are not stored" `Quick
            failed_fragment_not_poisoning;
          Alcotest.test_case "gensym hygiene" `Quick
            gensym_runs_never_replayed;
          Alcotest.test_case "ablation byte-identical" `Quick
            ablation_byte_identical;
          Alcotest.test_case "eviction pressure" `Quick
            eviction_under_tiny_budget;
        ] );
    ]
