(** Named failure-injection points.  See the interface for the model. *)

type trigger =
  | Error
  | Timeout
  | After of int Atomic.t
  | Hang of int Atomic.t

(* One registry per process: failpoints are a test/debug facility, and a
   global keeps the disarmed fast path to a single atomic read.

   Domain safety: [hit] runs on every domain at token granularity, so
   the read path must not touch the mutable table.  Arming (rare; CLI
   setup or a serve admin request) mutates [table] under [lock] and
   publishes an immutable association-list snapshot through [view];
   [hit] reads the snapshot — empty means disarmed, one atomic load.
   [After] counters are atomics so concurrent hits from several domains
   never lose a decrement. *)
let table : (string, trigger) Hashtbl.t = Hashtbl.create 8
let lock = Mutex.create ()
let view : (string * trigger) list Atomic.t = Atomic.make []

(* whether [view] holds a site outside the persistence layer *)
let expansion_armed = Atomic.make false

let sites =
  [ "engine/fragment";  (* expand_source entry *)
    "engine/invoke";  (* macro invocation expansion *)
    "engine/register";  (* macro definition registration *)
    "interp/step";  (* every interpreted statement *)
    "interp/call";  (* meta-function / closure application *)
    "builtins/call";  (* primitive dispatch *)
    "fill/alloc";  (* template fill entry *)
    "parser/token";  (* every token consumed *)
    "parser/invocation";  (* invocation parse entry *)
    (* serve-daemon request lifecycle (ms2c serve); never reached by the
       in-process engine pipeline, so the engine-level sweep in
       test_txn.ml skips them — test_serve.ml (make serve-sweep) is
       their chaos harness *)
    "serve/accept";  (* request admission onto its session's queue *)
    "serve/decode";  (* request validation after JSON decode *)
    "serve/expand";  (* request processing, before the engine runs *)
    "serve/respond";  (* response serialization/write *)
    (* crash-safe persistence layer; like serve/*, never reached by the
       in-process engine pipeline — test_recovery.ml (make
       recovery-sweep) is the chaos harness *)
    "io/rename";  (* between temp-file write and rename (Atomic_io) *)
    "snapshot/save";  (* cache snapshot serialization *)
    "snapshot/load";  (* cache snapshot deserialization *)
    "snapshot/append" (* cache snapshot entry append *) ]

let serve_site name = String.length name >= 6 && String.sub name 0 6 = "serve/"

let has_prefix p name =
  String.length name >= String.length p
  && String.sub name 0 (String.length p) = p

let persist_site name = has_prefix "io/" name || has_prefix "snapshot/" name

let is_site name = List.mem name sites

type spec = (string * trigger option) list

let parse_trigger name = function
  | "off" -> Ok None
  | "error" -> Ok (Some Error)
  | "timeout" -> Ok (Some Timeout)
  | "hang" -> Ok (Some (Hang (Atomic.make 0)))
  | t -> (
      match String.index_opt t '=' with
      | Some i when String.sub t 0 i = "after" -> (
          let n = String.sub t (i + 1) (String.length t - i - 1) in
          match int_of_string_opt n with
          | Some n when n >= 0 -> Ok (Some (After (Atomic.make n)))
          | _ -> Result.Error (Printf.sprintf "%s: after=N needs N >= 0" name))
      | Some i when String.sub t 0 i = "hang" -> (
          let n = String.sub t (i + 1) (String.length t - i - 1) in
          match int_of_string_opt n with
          | Some n when n >= 0 -> Ok (Some (Hang (Atomic.make n)))
          | _ -> Result.Error (Printf.sprintf "%s: hang=N needs N >= 0" name))
      | _ ->
          Result.Error
            (Printf.sprintf
               "%s: unknown trigger %S (expected off | error | timeout | \
                after=N | hang=N)"
               name t))

let parse_clause clause : (string * trigger option, string) result =
  match String.index_opt clause '=' with
  | None ->
      Result.Error
        (Printf.sprintf "%S: expected site=trigger" clause)
  | Some i ->
      let name = String.sub clause 0 i in
      let rest = String.sub clause (i + 1) (String.length clause - i - 1) in
      if not (is_site name) then
        Result.Error
          (Printf.sprintf "unknown failpoint %S (known: %s)" name
             (String.concat ", " sites))
      else Result.map (fun t -> (name, t)) (parse_trigger name rest)

let parse_spec spec : (spec, string) result =
  let clauses =
    String.split_on_char ','
      (String.map (function ';' -> ',' | c -> c) spec)
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  List.fold_left
    (fun acc clause ->
      Result.bind acc (fun parsed ->
          Result.map (fun c -> c :: parsed) (parse_clause clause)))
    (Ok []) clauses
  |> Result.map List.rev

(* assumes [lock] held *)
let refresh_view () =
  let armed = Hashtbl.fold (fun k t acc -> (k, t) :: acc) table [] in
  Atomic.set expansion_armed
    (List.exists (fun (k, _) -> not (persist_site k)) armed);
  Atomic.set view armed

let under_lock f =
  Mutex.lock lock;
  let r = f () in
  refresh_view ();
  Mutex.unlock lock;
  r

let arm name trigger =
  if not (is_site name) then
    invalid_arg (Printf.sprintf "Failpoint.arm: unknown failpoint %S" name);
  under_lock (fun () -> Hashtbl.replace table name trigger)

let disarm name = under_lock (fun () -> Hashtbl.remove table name)
let reset () = under_lock (fun () -> Hashtbl.reset table)

let arm_all spec =
  List.iter
    (function
      | name, Some t -> arm name t
      | name, None -> disarm name)
    spec

let arm_spec s = Result.map arm_all (parse_spec s)

let fire_error ~loc name =
  Diag.error ~loc ~code:Diag.code_failpoint Diag.Expansion
    "injected failure at failpoint %s" name

(* A [timeout] trigger stalls so the *watchdog* reports the failure —
   the whole point is to exercise the deadline path.  The stall sleeps
   in small slices, checking the watchdog each time; a hard 2s fallback
   bounds the stall when no deadline is armed, so an injected timeout
   can never hang the process. *)
let fire_timeout ?watchdog ~loc name =
  let give_up = Unix.gettimeofday () +. 2.0 in
  let rec wait () =
    Unix.sleepf 0.002;
    (match watchdog with Some w -> Watchdog.check w ~loc | None -> ());
    if Unix.gettimeofday () >= give_up then
      Diag.error ~loc ~code:Diag.code_timeout Diag.Resource
        "injected stall at failpoint %s hit the 2s fallback deadline" name
    else wait ()
  in
  wait ()

(* A [hang] trigger stalls without limit: it exists so crash tests can
   [kill -9] a process frozen at a known point.  The stall ignores the
   watchdog on purpose — the process is supposed to look dead.  A long
   fallback (far beyond any test timeout) turns a harness that forgot to
   kill into an abnormal exit instead of a wedged CI job. *)
let fire_hang name =
  let give_up = Unix.gettimeofday () +. 300.0 in
  let rec wait () =
    Unix.sleepf 0.05;
    if Unix.gettimeofday () >= give_up then (
      Printf.eprintf
        "ms2: failpoint %s hang hit the 300s fallback; aborting\n%!" name;
      exit 70)
    else wait ()
  in
  wait ()

let armed () = Atomic.get expansion_armed

let hit ?watchdog ~loc name =
  match Atomic.get view with
  | [] -> ()
  | armed -> (
      match List.assoc_opt name armed with
      | None -> ()
      | Some Error -> fire_error ~loc name
      | Some Timeout -> fire_timeout ?watchdog ~loc name
      | Some (After n) ->
          if Atomic.fetch_and_add n (-1) <= 0 then fire_error ~loc name
      | Some (Hang n) ->
          if Atomic.fetch_and_add n (-1) <= 0 then fire_hang name)

(* Arm from the environment at first load, so any ms2 process can be
   fault-injected without code changes. *)
let () =
  match Sys.getenv_opt "MS2_FAILPOINTS" with
  | None -> ()
  | Some s -> (
      match arm_spec s with
      | Ok () -> ()
      | Result.Error msg ->
          Printf.eprintf "ms2: ignoring bad MS2_FAILPOINTS: %s\n%!" msg)
