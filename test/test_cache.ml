(** The content-addressed expansion cache: hits on repeated fragments,
    soundness under redefinition and rollback, hygiene equivalence, and
    the [--no-cache] ablation. *)

open Tutil
module Engine = Ms2.Engine
module Diag = Ms2_support.Diag
module Obs = Ms2_support.Obs

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

(* The definition digest names table content, not an engine: two fresh
   engines that register the same definitions agree on it, a different
   body disagrees, and a rollback restores the captured digest. *)
let defs_digest_is_content () =
  let digest_after src =
    let engine = Ms2.Api.create_engine ~cache:false () in
    ignore (expand_ok engine src);
    engine
  in
  let e1 = digest_after defs and e2 = digest_after defs in
  Alcotest.(check string) "same definitions, same digest"
    e1.Engine.defs_version e2.Engine.defs_version;
  let variant =
    "syntax stmt Painting {| $$stmt::body |} { return `{start(); $body; \
     stop();}; }"
  in
  let e3 = digest_after variant in
  Alcotest.(check bool) "a different body, a different digest" false
    (e1.Engine.defs_version = e3.Engine.defs_version);
  let cp = Ms2.Api.checkpoint e1 in
  let before = e1.Engine.defs_version in
  ignore (expand_ok e1 variant);
  Alcotest.(check bool) "a registration moves the digest" false
    (e1.Engine.defs_version = before);
  Ms2.Api.rollback e1 cp;
  Alcotest.(check string) "rollback restores the digest" before
    e1.Engine.defs_version

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
     replay would duplicate them.  The gensym count is in the key, so
     consecutive expansions (each from a higher count) never hit and
     keep producing distinct temporaries — exactly as on a
     cache-disabled engine. *)
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

(* ------------------------------------------------------------------ *)
(* Whole-store budget                                                  *)
(* ------------------------------------------------------------------ *)

module Cache = Ms2.Cache

let mib = 1024 * 1024

(* a key whose first byte — the shard index — is [shard] *)
let shard_key shard i = String.make 1 (Char.chr shard) ^ string_of_int i

let same_shard_entries_coexist () =
  (* eight large entries whose keys share a first byte fit the default
     64 MiB budget together: the budget is the store's, not a slice *)
  let c = Cache.create () in
  for i = 1 to 8 do
    Alcotest.(check bool) "each one goes in" true
      (Cache.add ~size_bytes:(23 * mib / 10) c (shard_key 7 i) i)
  done;
  Alcotest.(check int) "no evictions" 0 (Cache.evictions c);
  Alcotest.(check int) "all eight stored" 8 (Cache.length c);
  for i = 1 to 8 do
    Alcotest.(check (option int)) "each one hits" (Some i)
      (Cache.find c (shard_key 7 i))
  done

let large_entry_is_stored () =
  (* larger than a sixteenth of the budget, well within the whole *)
  let c = Cache.create () in
  Alcotest.(check bool) "goes in" true
    (Cache.add ~size_bytes:(5 * mib) c (shard_key 3 0) "big");
  Alcotest.(check int) "stored" 1 (Cache.length c);
  Alcotest.(check bool) "refused" false
    (Cache.add ~size_bytes:(Cache.default_budget_bytes + 1) c (shard_key 4 0)
       "too big");
  Alcotest.(check int) "over the whole budget: dropped" 1 (Cache.length c)

let over_budget_stream_stays_within () =
  let c = Cache.create () in
  for i = 1 to 100 do
    ignore
      (Cache.add ~size_bytes:(23 * mib / 10) c
         (Digest.string (string_of_int i))
         i);
    if Cache.used_bytes c > Cache.default_budget_bytes then
      Alcotest.failf "over budget after %d adds: %d bytes" i
        (Cache.used_bytes c)
  done;
  Alcotest.(check bool) "evicted to make room" true (Cache.evictions c > 0);
  Alcotest.(check (option int)) "the newest entry survives" (Some 100)
    (Cache.find c (Digest.string "100"))

let charges_and_readds_keep_the_byte_count () =
  let c = Cache.create ~budget_bytes:100 () in
  Alcotest.(check bool) "the first add goes in" true
    (Cache.add ~size_bytes:60 c "a" ());
  Alcotest.(check bool) "re-adding a key is refused" false
    (Cache.add ~size_bytes:60 c "a" ());
  Alcotest.(check int) "and charges nothing" 60 (Cache.used_bytes c);
  Cache.charge c "a" () 10;
  Alcotest.(check int) "a charge adds its bytes" 70 (Cache.used_bytes c);
  ignore (Cache.add ~size_bytes:60 c "b" ());
  Alcotest.(check int) "the add evicted the other entry" 1 (Cache.evictions c);
  Alcotest.(check int) "used bytes follow" 60 (Cache.used_bytes c)

(* ------------------------------------------------------------------ *)
(* Render replay                                                       *)
(* ------------------------------------------------------------------ *)

let render_hits () =
  Obs.Metrics.value (Obs.Metrics.counter "cache.render_hits")

(* Cached and uncached engines run the same units with [#line]
   directives off and on, in an order where an entry rendered with one
   flag is later hit with the other.  Text and line map agree at every
   step, and only hits whose slot was already filled skip the renderer. *)
let render_replay_byte_identical () =
  let steps = [ false; true; false; true; false ] in
  let run ~cache =
    let engine = Ms2.Api.create_engine ~cache () in
    ignore (expand_ok engine defs);
    List.map
      (fun line_directives ->
        let u =
          Ms2.Api.expand_unit ~line_directives engine ~source:"cache.mc" uses
        in
        Option.iter (fun d -> Alcotest.failf "fatal: %s" (Diag.to_string d))
          u.Ms2.Api.u_fatal;
        (u.Ms2.Api.u_output, u.Ms2.Api.u_map))
      steps
  in
  let uncached = run ~cache:false in
  let r0 = render_hits () in
  let cached = run ~cache:true in
  List.iteri
    (fun i ((text, map), (text', map')) ->
      Alcotest.(check string) (Printf.sprintf "step %d: text" i) text text';
      Alcotest.(check bool) (Printf.sprintf "step %d: line map" i) true
        (map = map'))
    (List.combine uncached cached);
  (* step 0 misses; step 1 misses too (the state moved) and renders with
     directives; step 2 hits that entry without a plain render, renders
     and attaches one; steps 3 and 4 replay both renders *)
  Alcotest.(check int) "render hits" 2 (render_hits () - r0);
  let plain = fst (List.nth cached 0) and directed = fst (List.nth cached 1) in
  Alcotest.(check bool) "the two flags differ" true (plain <> directed)

let render_replay_keeps_program () =
  (* a render hit still hands out the program, for --semantic-check *)
  let engine = Ms2.Api.create_engine () in
  ignore (expand_ok engine defs);
  let units =
    List.init 3 (fun _ -> Ms2.Api.expand_unit engine ~source:"cache.mc" uses)
  in
  let programs =
    List.map
      (fun u ->
        match u.Ms2.Api.u_program with
        | Some p -> Lazy.force p
        | None -> Alcotest.fail "no program")
      units
  in
  Alcotest.(check bool) "replayed programs equal the rendered one" true
    (List.for_all (( = ) (List.hd programs)) programs)

(* Two domains hit the same restored entry at once and both need its
   program (the --semantic-check path): the marshalled program is
   decoded once, under the lock, and both get the same tree. *)
let concurrent_decode () =
  let path = Filename.temp_file "ms2_cache_decode" ".snap" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let s1 = Ms2.Api.create_shared_cache () in
  let e1 = Ms2.Api.create_engine ~cache_store:s1 () in
  ignore (expand_ok e1 defs);
  let reference =
    match Ms2.Api.expand_to_ast ~engine:e1 ~source:"cache.mc" uses with
    | Ok p -> p
    | Error d -> Alcotest.failf "reference: %s" (Diag.to_string d)
  in
  (match Ms2.Api.save_shared_cache s1 path with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "save: %s" e);
  for round = 1 to 5 do
    let s2 = Ms2.Api.create_shared_cache () in
    let l = Ms2.Api.load_shared_cache s2 path in
    Alcotest.(check (option string)) "clean load" None l.Engine.ld_error;
    let decodes = Obs.Metrics.counter "snapshot.load.decoded" in
    let d0 = Obs.Metrics.value decodes in
    let ready = Atomic.make 0 in
    let worker () =
      let e = Ms2.Api.create_engine ~cache_store:s2 () in
      ignore (expand_ok e defs);
      Atomic.incr ready;
      while Atomic.get ready < 2 do Domain.cpu_relax () done;
      match Ms2.Api.expand_to_ast ~engine:e ~source:"cache.mc" uses with
      | Ok p -> (p, (Ms2.Api.stats e).Ms2.Api.cache_hits)
      | Error d -> failwith (Diag.to_string d)
    in
    let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
    let p1, h1 = Domain.join d1 and p2, h2 = Domain.join d2 in
    Alcotest.(check bool) (Printf.sprintf "round %d: both hit" round) true
      (h1 = 2 && h2 = 2);
    Alcotest.(check bool) "equal programs" true (p1 = p2 && p1 = reference);
    Alcotest.(check int) "decoded once" 1 (Obs.Metrics.value decodes - d0)
  done

(* ------------------------------------------------------------------ *)
(* Differential: one engine shared by generated multi-file inputs      *)
(* ------------------------------------------------------------------ *)

(* The inputs of one seed: file 0 declares a [metadcl] counter and two
   semantic macros; every file defines a macro that bumps the counter, a
   typedef, a struct layout, an enum and a variable, then uses what it
   or an earlier file defined.  Every use reads session state another
   file wrote: macro tables, the meta global, typedefs, layouts, enum
   and variable types.  Nothing mints generated names or anonymous
   tags, so every unit is stored. *)
let shared_engine_units seed : (string * string) list =
  let rng = Random.State.make [| seed |] in
  let pick n = Random.State.int rng n in
  let scalars = [| "int"; "long"; "unsigned int"; "short"; "double" |] in
  let fields = [| "int"; "char *"; "long *" |] in
  List.init 4 (fun k ->
      let b = Buffer.create 1024 in
      let p fmt = Printf.bprintf b fmt in
      if k = 0 then
        p
          "metadcl int ticks;\n\
           syntax exp fmt_of {| ( $$exp::e ) |} {\n\
           if (is_pointer(e)) return `(\"%%p\");\n\
           return `(\"%%d\");\n\
           }\n\
           syntax stmt copyof {| ( $$id::v , $$id::c ) ; |} {\n\
           return `{{$(exp_typespec(v)) $c = $v; use($c);}};\n\
           }\n";
      p
        "syntax exp M%d {| ( $$exp::e ) |} {\n\
         ticks = ticks + %d;\n\
         return `($e + $(make_num(ticks)));\n\
         }\n"
        k (1 + pick 9);
      p "typedef %s T%d;\n" scalars.(pick (Array.length scalars)) k;
      p "struct S%d { int a; %s p; };\n" k fields.(pick (Array.length fields));
      p "enum E%d { E%d_a, E%d_b };\n" k k k;
      p "T%d v%d;\n" k k;
      for i = 1 to 3 + pick 4 do
        let j = pick (k + 1) in
        match pick 4 with
        | 0 -> p "int f%d_%d() { return M%d((%d)); }\n" k i j (pick 100)
        | 1 ->
            p
              "int f%d_%d(struct S%d *s) {\n\
               printf(fmt_of(s->p), s->p);\n\
               return M%d((s->a));\n\
               }\n"
              k i j (pick (k + 1))
        | 2 -> p "void f%d_%d() { copyof(v%d, c); }\n" k i j
        | _ -> p "enum E%d e%d_%d = E%d_b;\n" j k i j
      done;
      (Printf.sprintf "unit%d.mc" k, Buffer.contents b))

(* (output, fingerprint) after every unit *)
let run_units engine units =
  List.map
    (fun (source, src) ->
      let u = Ms2.Api.expand_unit engine ~source src in
      Option.iter
        (fun d -> Alcotest.failf "%s: %s" source (Diag.to_string d))
        u.Ms2.Api.u_fatal;
      (u.Ms2.Api.u_output, Engine.fingerprint engine))
    units

(* What a second session expands between two requests of the first: it
   binds, in its own state, the names the first session's next unit
   defines, with other meanings. *)
let decoy k =
  let n = k + 1 in
  Printf.sprintf
    "metadcl int decoy%d;\n\
     syntax exp M%d {| ( $$exp::e ) |} { return `($e - 1); }\n\
     typedef char T%d;\n\
     struct S%d { char *a; int p; };\n\
     int v%d;\n"
    k n n n n

(* Four ways through the same units must agree after every unit: cache
   off; cache on; a snapshot of that cache loaded into a fresh store and
   replayed; and a serve-style session that is rolled back to its
   checkpoint before each request while another session moves the
   engine in between. *)
let shared_engine_differential () =
  List.iter
    (fun seed ->
      let units = shared_engine_units seed in
      let check label expected got =
        List.iteri
          (fun i ((out, fp), (out', fp')) ->
            let what = Printf.sprintf "seed %d, %s, unit %d" seed label i in
            Alcotest.(check string) (what ^ ": output") out out';
            Alcotest.(check string) (what ^ ": fingerprint") fp fp')
          (List.combine expected got)
      in
      let off = run_units (Ms2.Api.create_engine ~cache:false ()) units in
      let store = Ms2.Api.create_shared_cache () in
      check "cache on" off
        (run_units (Ms2.Api.create_engine ~cache_store:store ()) units);
      let path = Filename.temp_file "ms2_shared" ".snap" in
      Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
          (match Ms2.Api.save_shared_cache store path with
          | Ok sv ->
              Alcotest.(check int) "every unit saved" (List.length units)
                sv.Engine.sv_entries
          | Error e -> Alcotest.failf "save: %s" e);
          let loaded = Ms2.Api.create_shared_cache () in
          let l = Ms2.Api.load_shared_cache loaded path in
          Alcotest.(check (option string)) "clean load" None l.Engine.ld_error;
          let engine = Ms2.Api.create_engine ~cache_store:loaded () in
          check "snapshot replay" off (run_units engine units);
          let st = Ms2.Api.stats engine in
          Alcotest.(check (pair int int)) "every unit replays"
            (List.length units, 0)
            (st.Ms2.Api.cache_hits, st.Ms2.Api.cache_misses));
      let engine = Ms2.Api.create_engine () in
      let base = Ms2.Api.checkpoint engine in
      let s = Ms2.Api.Session.create base ~id:"s" in
      let other = Ms2.Api.Session.create base ~id:"other" in
      check "session per request" off
        (List.mapi
           (fun k (source, src) ->
             (match Ms2.Api.Session.expand other engine ~source (decoy k) with
             | Ok _ -> ()
             | Error (d, _) -> Alcotest.failf "decoy: %s" (Diag.to_string d));
             match Ms2.Api.Session.expand s engine ~source src with
             | Ok (out, _) -> (out, Ms2.Api.Session.fingerprint s)
             | Error (d, _) ->
                 Alcotest.failf "%s: %s" source (Diag.to_string d))
           units);
      Alcotest.(check bool) "sessions stayed isolated" true
        (Ms2.Api.Session.isolated s && Ms2.Api.Session.isolated other))
    [ 1; 2; 3; 4; 5; 6 ]

(* One shared engine over [n] generated units in the shape of
   perfbench's [unit_fresh_names]: each defines MUL, then declares a
   fresh name per line, one line in 25 a MUL use.  Every unit grows the
   session, and each stored entry's [ca_post] is the session after it,
   so the store stays linear in units only while those posts share
   structure with the live session (and each other) instead of holding
   private copies of it. *)
let store_words_after n =
  let forms =
    Printf.
      [| (fun n _ -> sprintf "int %s;" n); sprintf "int %s = %d;";
         sprintf "static long %s = %d;"; sprintf "double %s[%d];";
         (fun n _ -> sprintf "char *%s;" n); sprintf "unsigned int %s = %d;" |]
  in
  let store = Ms2.Api.create_shared_cache () in
  let engine = Ms2.Api.create_engine ~cache_store:store () in
  for k = 0 to n - 1 do
    let b = Buffer.create 8192 in
    Buffer.add_string b
      "syntax exp MUL {| ( $$exp::a , $$exp::b ) |} { return `($a * $b); }\n";
    for i = 0 to 199 do
      let name = Printf.sprintf "u%d_%d" k i in
      Buffer.add_string b
        (if i mod 25 = 12 then Printf.sprintf "int %s = MUL(%d + 1, 3);" name i
         else forms.(i mod Array.length forms) name (i + 1));
      Buffer.add_char b '\n'
    done;
    let u =
      Ms2.Api.expand_unit engine
        ~source:(Printf.sprintf "unit%d.mc" k)
        (Buffer.contents b)
    in
    Option.iter (fun d -> Alcotest.failf "unit %d: %s" k (Diag.to_string d))
      u.Ms2.Api.u_fatal
  done;
  let _, misses, _, entries, _ = Ms2.Api.shared_cache_stats store in
  Alcotest.(check (pair int int)) "every unit missed and was stored" (n, n)
    (misses, entries);
  Obj.reachable_words (Obj.repr store)

(* Doubling the units must at most double the store, plus slack for
   per-entry constants: the bound of CI's batch memory step. *)
let store_linear_in_units () =
  let w16 = store_words_after 16 and w32 = store_words_after 32 in
  let ratio = float_of_int w32 /. float_of_int w16 in
  Alcotest.(check bool)
    (Printf.sprintf "store words 32/16 units = %d/%d = %.2f <= 2.3" w32 w16
       ratio)
    true (ratio <= 2.3)

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
          Alcotest.test_case "the definition digest is content" `Quick
            defs_digest_is_content;
          Alcotest.test_case "failures are not stored" `Quick
            failed_fragment_not_poisoning;
          Alcotest.test_case "gensym hygiene" `Quick
            gensym_runs_never_replayed;
          Alcotest.test_case "ablation byte-identical" `Quick
            ablation_byte_identical;
          Alcotest.test_case "eviction pressure" `Quick
            eviction_under_tiny_budget;
        ] );
      ( "store budget",
        [
          Alcotest.test_case "same-shard entries coexist" `Quick
            same_shard_entries_coexist;
          Alcotest.test_case "a large entry is stored" `Quick
            large_entry_is_stored;
          Alcotest.test_case "an over-budget stream stays within" `Quick
            over_budget_stream_stays_within;
          Alcotest.test_case "byte count follows charges" `Quick
            charges_and_readds_keep_the_byte_count;
        ] );
      ( "render replay",
        [
          Alcotest.test_case "byte-identical across flags" `Quick
            render_replay_byte_identical;
          Alcotest.test_case "a render hit keeps the program" `Quick
            render_replay_keeps_program;
          Alcotest.test_case "two domains decode one program" `Quick
            concurrent_decode;
        ] );
      ( "shared engine",
        [
          Alcotest.test_case "cache, snapshot and sessions agree" `Quick
            shared_engine_differential;
          Alcotest.test_case "the store is linear in units" `Quick
            store_linear_in_units;
        ] );
    ]
