(* In-process half of the MS2 benchmark.

   Drives the generated inputs through each layer's public entry point
   (State.of_string, Parser.parse_program, Engine.expand_program,
   Pretty.program_to_string, Cache.key, Engine.expand_source,
   Engine.checkpoint / Engine.rollback / Engine.fingerprint), timing
   every call, and reads the sub-stages that have no entry point of
   their own (pattern match, meta eval, template fill, cache store) from
   the spans the engine already records.  Prints one JSON object on
   stdout.

   Modes:
     tracer calib
     tracer batch --traced 0|1 --fragment-jobs N --out DIR FILE...
     tracer serve --traced 0|1 --prelude FILE --requests FILE *)

module Api = Ms2.Api
module Engine = Ms2.Engine
module Cache = Ms2.Cache
module State = Ms2_parser.State
module Parser = Ms2_parser.Parser
module Pretty = Ms2_syntax.Pretty
module Obs = Ms2_support.Obs
module Intern = Ms2_support.Intern
module Diag = Ms2_support.Diag
module Json = Ms2_support.Json

let now () = Unix.gettimeofday ()

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* --- output ------------------------------------------------------- *)

let fields : (string * string) list ref = ref []
let put k v = fields := (k, v) :: !fields
let putf k f = put k (Printf.sprintf "%.9g" f)
let puti k i = put k (string_of_int i)

let print_fields () =
  let body =
    List.rev_map (fun (k, v) -> Printf.sprintf "%S: %s" k v) !fields
  in
  print_string ("{" ^ String.concat ", " body ^ "}\n")

let ratio a b = if a + b = 0 then 0. else float a /. float (a + b)

(* --- span self times ---------------------------------------------- *)

(* Which layer a span's self time belongs to.  The benchmark's own
   spans (category "bench") are named after the layer they time; the
   engine's spans are mapped by category. *)
let layer_of (ev : Obs.event) =
  match (ev.Obs.ev_cat, ev.Obs.ev_name) with
  | "bench", n -> n
  | "lex", _ -> "lexer"
  | "parse", _ -> "parser"
  | "pattern", _ -> "match"
  | "meta", _ -> "eval"
  | "fill", _ -> "fill"
  | "cache", "store" -> "store"
  | "cache", _ -> "cache"
  | "txn", "checkpoint" -> "checkpoint"
  | "txn", "rollback" -> "rollback"
  | _ -> "walk"

(* Self time (duration minus the part covered by child spans) summed
   per layer, in seconds.  Events are chronological per domain; spans
   nest by interval containment. *)
let self_times (events : Obs.event list) : (string, float) Hashtbl.t =
  let spans =
    List.filter (fun e -> e.Obs.ev_ph = 'X') events
    |> List.stable_sort (fun a b ->
           match compare a.Obs.ev_ts_us b.Obs.ev_ts_us with
           | 0 -> compare b.Obs.ev_dur_us a.Obs.ev_dur_us
           | c -> c)
  in
  let tbl = Hashtbl.create 16 in
  let add layer us =
    let v = Option.value (Hashtbl.find_opt tbl layer) ~default:0. in
    Hashtbl.replace tbl layer (v +. (us /. 1e6))
  in
  let stack = ref [] in
  List.iter
    (fun ev ->
      let rec pop () =
        match !stack with
        | (top : Obs.event) :: rest
          when top.Obs.ev_ts_us +. top.Obs.ev_dur_us <= ev.Obs.ev_ts_us ->
            stack := rest;
            pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | parent :: _ -> add (layer_of parent) (-.ev.Obs.ev_dur_us)
      | [] -> ());
      add (layer_of ev) ev.Obs.ev_dur_us;
      stack := ev :: !stack)
    spans;
  tbl

let layer tbl name = Option.value (Hashtbl.find_opt tbl name) ~default:0.

let span ~traced name f =
  if traced then Obs.with_span ~cat:"bench" name f else f ()

(* --- calibration --------------------------------------------------- *)

(* A fixed pure-CPU loop: no allocation, no shared state. *)
let spin () =
  let acc = ref 0 in
  for i = 1 to 60_000_000 do
    acc := (!acc * 1103515245) + i land 0xffff
  done;
  !acc

(* The median of 3 trials of two spins on 1 domain against one spin on
   each of 2 domains.  The 1-domain time per spin is a drift control:
   it moves with the machine's speed, not with the code under test. *)
let calib () =
  let trial () =
    let t0 = now () in
    ignore (Sys.opaque_identity (spin ()));
    ignore (Sys.opaque_identity (spin ()));
    let t1 = now () in
    let d = Domain.spawn spin in
    ignore (Sys.opaque_identity (spin ()));
    ignore (Sys.opaque_identity (Domain.join d));
    let t2 = now () in
    (t1 -. t0, t2 -. t1)
  in
  let trials = List.init 3 (fun _ -> trial ()) in
  let median l = List.nth (List.sort compare l) 1 in
  putf "calib.parallel_speedup"
    (median (List.map (fun (s, p) -> s /. p) trials));
  putf "calib.spin_s" (median (List.map (fun (s, _) -> s /. 2.) trials))

(* --- what both modes report ---------------------------------------- *)

type acc = {
  mutable wall : float;  (** traced pipeline wall time *)
  mutable tokens : int;
  mutable key_s : float;
  mutable hit_s : float;
  mutable hits : int;
  mutable misses : int;
  mutable bytes : int;
  mutable failures : int;
  mutable minor_words : float;  (** allocated during the pipeline *)
  mutable major_collections : int;
}

let new_acc () =
  { wall = 0.; tokens = 0; key_s = 0.; hit_s = 0.; hits = 0;
    misses = 0; bytes = 0; failures = 0; minor_words = 0.;
    major_collections = 0 }

let add_gc (a : acc) (gc0 : Gc.stat) =
  let gc1 = Gc.quick_stat () in
  a.minor_words <- a.minor_words +. (gc1.Gc.minor_words -. gc0.Gc.minor_words);
  a.major_collections <-
    a.major_collections + gc1.Gc.major_collections - gc0.Gc.major_collections

(* Print the metrics of one pass: its accumulators, the self times of
   its spans, the statistics of its engines, the shared store, and the
   interner's size before the pass. *)
let emit ~traced (a : acc) tbl ~store_s ~(stats : Api.stats list) ~store
    ~interned0 =
  putf "wall_s" a.wall;
  puti "failures" a.failures;
  List.iter
    (fun (k, l) -> putf k (layer tbl l))
    [ ("lexer.s", "lexer"); ("parser.s", "parser"); ("parser.match_s", "match");
      ("meta.eval_s", "eval"); ("meta.fill_s", "fill"); ("pretty.s", "pretty");
      ("txn.checkpoint_s", "checkpoint"); ("txn.rollback_s", "rollback");
      ("txn.fingerprint_s", "fingerprint") ];
  (* the self time of expand_source outside the engine's own spans is
     its bookkeeping around the walk *)
  putf "engine.walk_s" (layer tbl "walk" +. layer tbl "expand");
  let covered =
    List.fold_left (fun acc l -> acc +. layer tbl l) 0.
      [ "lexer"; "parser"; "match"; "eval"; "fill"; "walk"; "expand"; "pretty";
        "checkpoint"; "rollback"; "fingerprint"; "cache"; "store" ]
  in
  if traced then putf "trace.coverage" (covered /. a.wall);
  puti "lexer.tokens" a.tokens;
  puti "intern.new_spellings" (Intern.interned () - interned0);
  puti "intern.table_size" (Intern.interned ());
  (* the memo counters are process-global: the last engine's figures
     cover the whole pass *)
  let g = List.nth stats (List.length stats - 1) in
  putf "parser.pattern_memo.hit_ratio"
    (ratio g.Api.pattern_memo_hits g.Api.pattern_memo_misses);
  putf "pattern.firstset.memo_hit_ratio"
    (ratio g.Api.firstset_memo_hits g.Api.firstset_memo_misses);
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  puti "meta.fuel" (sum (fun s -> s.Api.fuel_consumed));
  puti "meta.nodes" (sum (fun s -> s.Api.nodes_produced));
  puti "engine.invocations" (sum (fun s -> s.Api.invocations_expanded));
  puti "pretty.bytes" a.bytes;
  putf "cache.key_s" a.key_s;
  putf "cache.hit_s" a.hit_s;
  putf "cache.store_s" store_s;
  putf "cache.hit_ratio" (ratio a.hits a.misses);
  let _, _, evictions, _, used = Api.shared_cache_stats store in
  puti "cache.evictions" evictions;
  puti "cache.bytes" used;
  putf "gc.minor_words" a.minor_words;
  puti "gc.major_collections" a.major_collections

(* The cache key of [text] on [e]'s current state, timed into [a]. *)
let time_key (a : acc) e ~source text =
  let t = now () in
  ignore
    (Sys.opaque_identity
       (Cache.key ~defs_version:e.Engine.defs_version ~env:e.Engine.env
          ~tenv:e.Engine.tenv ~senv:e.Engine.senv ~limits:e.Engine.limits
          ~flags:"" ~source text));
  a.key_s <- a.key_s +. (now () -. t)

(* --- batch --------------------------------------------------------- *)

let staged_events = ref []
let probe_events = ref []

(* Run [f], recording its spans into [into] when traced. *)
let recorded ~traced into f =
  if not traced then f ()
  else begin
    Obs.start_recording ();
    Fun.protect f ~finally:(fun () -> into := Obs.stop_recording () :: !into)
  end

(* Expand one file as its own unit on a fresh engine, layer by layer.
   Returns the engine, the checkpoint it started from, and its
   statistics at the end of the pipeline. *)
let staged ~traced ~store (a : acc) ~out ~source text =
  let e = Api.create_engine ~cache_store:store () in
  recorded ~traced staged_events @@ fun () ->
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let cp = span ~traced "checkpoint" (fun () -> Engine.checkpoint e) in
  let st =
    span ~traced "lexer" (fun () ->
        State.of_string ~macros:e.Engine.macros ~tenv:e.Engine.tenv
          ~compiled:e.Engine.compiled ~watchdog:e.Engine.watchdog ~source text)
  in
  st.State.compile_patterns <- e.Engine.compile_patterns;
  let prog = span ~traced "parser" (fun () -> Parser.parse_program st) in
  let prog = span ~traced "walk" (fun () -> Engine.expand_program e prog) in
  let rendered =
    span ~traced "pretty" (fun () ->
        Pretty.program_to_string ~mode:Pretty.strict prog)
  in
  let stats = Api.stats e in
  span ~traced "rollback" (fun () -> Engine.rollback e cp);
  a.wall <- a.wall +. (now () -. t0);
  add_gc a gc0;
  a.tokens <- a.tokens + Array.length st.State.toks;
  a.bytes <- a.bytes + String.length rendered;
  write_file out rendered;
  (e, cp, stats)

(* Probe the cache layer with the file's text from the state the
   pipeline started in: time the key digest, then a first expansion
   (the workload's own traffic: a keyed miss that stores) and, after a
   rollback, the replay of the same text. *)
let probe ~traced (a : acc) e cp ~source text =
  recorded ~traced probe_events @@ fun () ->
  time_key a e ~source text;
  let expand () =
    let s0 = Api.stats e in
    let t = now () in
    let r = Api.expand_diag ~engine:e ~source text in
    let dt = now () -. t in
    let s1 = Api.stats e in
    (Result.is_ok r, dt, s1.Api.cache_hits - s0.Api.cache_hits,
     s1.Api.cache_misses - s0.Api.cache_misses)
  in
  let ok1, _, h1, m1 = expand () in
  a.hits <- a.hits + h1;
  a.misses <- a.misses + m1;
  Engine.rollback e cp;
  let ok2, dt2, h2, _ = expand () in
  if h2 = 1 then a.hit_s <- a.hit_s +. dt2;
  if not (ok1 && ok2) then a.failures <- a.failures + 1

let batch_file ~traced ~store (a : acc) ~out path : Api.stats =
  let text = read_file path in
  let source = Filename.basename path in
  let e, cp, stats = staged ~traced ~store a ~out ~source text in
  probe ~traced a e cp ~source text;
  stats

let batch ~traced ~fragment_jobs ~out_dir files =
  let store = Api.create_shared_cache () in
  let a = new_acc () in
  let interned0 = Intern.interned () in
  let stats =
    List.mapi
      (fun i path ->
        batch_file ~traced ~store a
          ~out:(Filename.concat out_dir (Printf.sprintf "%d.c" i))
          path)
      files
  in
  let probe = self_times (List.concat !probe_events) in
  emit ~traced a
    (self_times (List.concat !staged_events))
    ~store_s:(layer probe "store") ~stats ~store ~interned0;
  (* the speculation ledger: an untraced run only, because recording
     degrades fragment speculation to sequential *)
  if (not traced) && fragment_jobs > 1 then begin
    let e = Api.create_engine ~cache:false () in
    List.iter
      (fun path ->
        ignore
          (Engine.expand_source e ~fragment_jobs ~source:(Filename.basename path)
             (read_file path)))
      files;
    let s = Api.stats e in
    puti "fragments.speculated" s.Api.fragments_speculated;
    putf "fragments.commit_ratio"
      (ratio s.Api.fragments_committed s.Api.fragments_revalidated);
    puti "fragments.abort.defs_bump" s.Api.fragments_abort_defs_bump;
    puti "fragments.abort.gensym_mint" s.Api.fragments_abort_gensym_mint;
    puti "fragments.abort.meta_decl" s.Api.fragments_abort_meta_decl;
    puti "fragments.abort.stale_read" s.Api.fragments_abort_stale_read;
    puti "fragments.abort.foreign_closure" s.Api.fragments_abort_foreign_closure
  end

(* --- serve --------------------------------------------------------- *)

(* The daemon the benchmark runs: ms2c serve --workers 2, with its
   default --max-sessions of 64 split evenly across the shards. *)
let shards = 2
let sessions_per_shard = 64 / shards

type session = {
  mutable cp : Engine.checkpoint;  (** committed state *)
  mutable fp : string;  (** its fingerprint *)
  mutable last_used : int;
}

type shard = {
  engine : Api.engine;
  base : Engine.checkpoint;  (** the post-prelude state *)
  sessions : (string, session) Hashtbl.t;
}

let evict_lru sh =
  let lru, _ =
    Hashtbl.fold
      (fun id s (lru, t) ->
        if s.last_used < t then (id, s.last_used) else (lru, t))
      sh.sessions ("", max_int)
  in
  Hashtbl.remove sh.sessions lru

(* Replay a daemon's request sequence in process, as the daemon serves
   it: a session lives on shard [hash(id) mod shards], each shard is an
   engine over one shared store, and a shard past its session budget
   evicts its least recently used session.  Each request makes the calls
   of the daemon's get_session and Api.Session.expand, each timed on its
   own: a new session rolls back to the base state, checkpoints and
   fingerprints it; then the engine rolls back to the session's state,
   expands, renders, and commits with a checkpoint and a fingerprint. *)
let serve ~traced ~prelude ~requests =
  let store = Api.create_shared_cache () in
  let shard_tbl =
    Array.init shards (fun _ ->
        let engine = Api.create_engine ~cache_store:store () in
        ignore
          (Engine.expand_source engine ~source:prelude (read_file prelude));
        { engine; base = Engine.checkpoint engine;
          sessions = Hashtbl.create 64 })
  in
  let lines =
    String.split_on_char '\n' (read_file requests)
    |> List.filter (fun l -> l <> "")
  in
  let get j k =
    match Option.bind (Json.member j k) Json.str with
    | Some s -> s
    | None -> failwith ("request without " ^ k)
  in
  let a = new_acc () in
  let interned0 = Intern.interned () in
  let gc0 = Gc.quick_stat () in
  if traced then Obs.start_recording ();
  List.iteri
    (fun tick line ->
      let j =
        match Json.parse line with Ok j -> j | Error m -> failwith m
      in
      let id = get j "session" and source = get j "source"
      and text = get j "text" and expected = get j "expected" in
      let sh = shard_tbl.(Hashtbl.hash id mod shards) in
      let e = sh.engine in
      let t0 = now () in
      let s =
        match Hashtbl.find_opt sh.sessions id with
        | Some s -> s
        | None ->
            if Hashtbl.length sh.sessions >= sessions_per_shard then
              evict_lru sh;
            span ~traced "rollback" (fun () -> Engine.rollback e sh.base);
            let cp = span ~traced "checkpoint" (fun () -> Engine.checkpoint e) in
            let fp =
              span ~traced "fingerprint" (fun () -> Engine.fingerprint e)
            in
            let s = { cp; fp; last_used = tick } in
            Hashtbl.add sh.sessions id s;
            s
      in
      s.last_used <- tick;
      span ~traced "rollback" (fun () -> Engine.rollback e s.cp);
      a.wall <- a.wall +. (now () -. t0);
      (* the key digest of the session's state, outside the wall time *)
      time_key a e ~source text;
      let t0 = now () in
      let s0 = Api.stats e in
      let r =
        Diag.protect (fun () ->
            span ~traced "expand" (fun () ->
                Engine.expand_source e ~source text))
      in
      let de = now () -. t0 in
      let s1 = Api.stats e in
      (match r with
      | Ok prog ->
          let rendered =
            span ~traced "pretty" (fun () ->
                Pretty.program_to_string ~mode:Pretty.strict prog)
          in
          s.cp <- span ~traced "checkpoint" (fun () -> Engine.checkpoint e);
          s.fp <- span ~traced "fingerprint" (fun () -> Engine.fingerprint e);
          a.bytes <- a.bytes + String.length rendered;
          if rendered <> expected then a.failures <- a.failures + 1
      | Error _ ->
          if Engine.fingerprint e <> s.fp then Engine.rollback e s.cp;
          a.failures <- a.failures + 1);
      a.wall <- a.wall +. (now () -. t0);
      let h = s1.Api.cache_hits - s0.Api.cache_hits
      and m = s1.Api.cache_misses - s0.Api.cache_misses in
      a.hits <- a.hits + h;
      a.misses <- a.misses + m;
      if h > 0 && m = 0 then a.hit_s <- a.hit_s +. de)
    lines;
  let events = if traced then Obs.stop_recording () else [] in
  add_gc a gc0;
  (* tokens counted after the replay, so counting cannot warm the
     interner for the lexer it measures *)
  a.tokens <-
    List.fold_left
      (fun n line ->
        match Json.parse line with
        | Ok j -> n + Array.length (Ms2_syntax.Lexer.tokenize (get j "text"))
        | Error _ -> n)
      0 lines;
  let tbl = self_times events in
  emit ~traced a tbl ~store_s:(layer tbl "store")
    ~stats:(Array.to_list (Array.map (fun sh -> Api.stats sh.engine) shard_tbl))
    ~store ~interned0

(* --- main ---------------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((k, v) :: acc) rest
    | rest -> (acc, rest)
  in
  match args with
  | "calib" :: _ ->
      calib ();
      print_fields ()
  | "batch" :: rest ->
      let o, files = opts [] rest in
      let get k = List.assoc k o in
      batch ~traced:(get "--traced" = "1")
        ~fragment_jobs:(int_of_string (get "--fragment-jobs"))
        ~out_dir:(get "--out") files;
      print_fields ()
  | "serve" :: rest ->
      let o, _ = opts [] rest in
      let get k = List.assoc k o in
      serve ~traced:(get "--traced" = "1") ~prelude:(get "--prelude")
        ~requests:(get "--requests");
      print_fields ()
  | _ ->
      prerr_endline
        "usage: tracer calib | batch --traced 0|1 --fragment-jobs N --out DIR \
         FILE... | serve --traced 0|1 --prelude FILE --requests FILE";
      exit 2
