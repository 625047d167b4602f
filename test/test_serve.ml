(** End-to-end tests for the [ms2c serve] daemon, driven over its real
    stdin/stdout (and, for the supervisor case, its Unix socket).

    Most exchanges are lockstep — send one request, read one response —
    because admin methods are answered at intake while expand/check are
    queued on a worker, so a pipelined client may observe reordering
    (the protocol orders responses only within a session).  The cases
    that pipeline on purpose — to fill the queue, or to probe [health]
    behind a running expansion — match responses by [id].

    The chaos sweep here is the daemon-side counterpart of
    test_txn.ml's engine sweep: it arms each [serve/*] failpoint
    through the wire protocol and proves the daemon answers a
    structured error, stays up, and leaves the victim session's state
    bit-identical (fingerprint) — the no-cross-session-leak property. *)

module Json = Ms2_support.Json
module Failpoint = Ms2_support.Failpoint

let ms2c =
  if Sys.file_exists "../bin/ms2c.exe" then "../bin/ms2c.exe"
  else "_build/default/bin/ms2c.exe"

let defs_text =
  "syntax exp TWICE {| ( $$exp::e ) |} { return `($e + $e); }\n"

let use_text = "int f(void) { return TWICE((2)); }\n"
let plain_text = "int g(void) { return 1 + 1; }\n"
let bad_text = "int broken( { ;\n"

(* A unit whose one invocation loops [n] meta steps: a few million are
   enough that later requests arrive while it runs.  Needs [--fuel 0
   --invocation-fuel 0]. *)
let spin_text n =
  Printf.sprintf
    "syntax stmt spin {| ; |} {\n\
    \  int i;\n\
    \  i = 0;\n\
    \  while (i < %d) i = i + 1;\n\
    \  return `{;};\n\
     }\n\
     int k(void) { spin; return 0; }\n"
    n

let write_fixture name text =
  let path = Filename.temp_file ("ms2c_serve_" ^ name) ".mc" in
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  path

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = (i + n <= m) && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Daemon plumbing                                                     *)
(* ------------------------------------------------------------------ *)

type daemon = {
  pid : int;
  din : in_channel;  (** the daemon's stdout *)
  dout : out_channel;  (** the daemon's stdin *)
}

let start_daemon ?(args = []) () =
  (* cloexec, or the child would inherit the write end of its own stdin
     and never see EOF when we close ours *)
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let stdout_r, stdout_w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (ms2c :: "serve" :: args) in
  let pid = Unix.create_process ms2c argv stdin_r stdout_w Unix.stderr in
  Unix.close stdin_r;
  Unix.close stdout_w;
  {
    pid;
    din = Unix.in_channel_of_descr stdout_r;
    dout = Unix.out_channel_of_descr stdin_w;
  }

let rec reap pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> reap pid

(* Close the daemon's stdin (EOF = natural drain) and wait for exit. *)
let stop d =
  (try close_out d.dout with Sys_error _ -> ());
  let st = reap d.pid in
  (try close_in d.din with Sys_error _ -> ());
  st

(* A wedged daemon would hang [input_line] forever; the alarm turns
   that into a loud SIGALRM kill instead of a silent CI stall. *)
let with_daemon ?args f =
  ignore (Unix.alarm 120);
  let d = start_daemon ?args () in
  Fun.protect
    ~finally:(fun () ->
      (try close_out d.dout with Sys_error _ -> ());
      (try close_in d.din with Sys_error _ -> ());
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (reap d.pid) with Unix.Unix_error _ -> ());
      ignore (Unix.alarm 0))
    (fun () -> f d)

(* ------------------------------------------------------------------ *)
(* Wire helpers                                                        *)
(* ------------------------------------------------------------------ *)

let send_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let next_id = ref 0

let parse_line ic =
  match Json.parse (input_line ic) with
  | Ok v -> v
  | Error e -> Alcotest.failf "unparseable response: %s" e

(* Send a request without waiting for its response; its id. *)
let post oc fields =
  incr next_id;
  send_line oc
    (Json.to_string (Json.Obj (("id", Json.Int !next_id) :: fields)));
  !next_id

let rpc_ch (ic, oc) fields =
  ignore (post oc fields);
  parse_line ic

let rpc d fields = rpc_ch (d.din, d.dout) fields

let expand_req ~session text =
  [ ("method", Json.Str "expand");
    ("session", Json.Str session);
    ("text", Json.Str text) ]

let is_ok v =
  match Json.member v "ok" with Some (Json.Bool b) -> b | _ -> false

let err_kind v =
  match Option.bind (Json.member v "error") (fun e -> Json.member e "kind") with
  | Some k -> Option.value ~default:"<non-string>" (Json.str k)
  | None -> "<no error.kind>"

let output_of v =
  Option.value ~default:""
    (Option.bind (Json.member v "output") Json.str)

let int_at v path =
  let rec go v = function
    | [] -> Json.int v
    | f :: rest -> Option.bind (Json.member v f) (fun v -> go v rest)
  in
  Option.value ~default:(-1) (go v path)

let expand d ~session text = rpc d (expand_req ~session text)

let stats d ~session =
  rpc d [ ("method", Json.Str "stats"); ("session", Json.Str session) ]

(* Read responses off [ic] into [got] (by id) until [id]'s arrives. *)
let rec await got ic id =
  let v = parse_line ic in
  Hashtbl.replace got (int_at v [ "id" ]) v;
  if int_at v [ "id" ] <> id then await got ic id

let fingerprint_of v =
  Option.value ~default:"<none>"
    (Option.bind (Json.member v "fingerprint") Json.str)

(* ------------------------------------------------------------------ *)
(* Protocol edge cases                                                 *)
(* ------------------------------------------------------------------ *)

let ping_works () =
  with_daemon (fun d ->
      let r = rpc d [ ("method", Json.Str "ping") ] in
      Alcotest.(check bool) "ok" true (is_ok r);
      Alcotest.(check bool) "carries a pid" true (int_at r [ "pid" ] > 0))

let unknown_method () =
  with_daemon (fun d ->
      let r = rpc d [ ("method", Json.Str "transmogrify") ] in
      Alcotest.(check bool) "not ok" false (is_ok r);
      Alcotest.(check string) "kind" "unknown_method" (err_kind r);
      (* the daemon is still alive *)
      Alcotest.(check bool) "still serving" true
        (is_ok (rpc d [ ("method", Json.Str "ping") ])))

let malformed_line () =
  with_daemon (fun d ->
      send_line d.dout "this is not json {";
      let r = parse_line d.din in
      Alcotest.(check bool) "not ok" false (is_ok r);
      Alcotest.(check string) "kind" "malformed" (err_kind r);
      Alcotest.(check bool) "still serving" true
        (is_ok (rpc d [ ("method", Json.Str "ping") ])))

let oversized_line () =
  with_daemon ~args:[ "--max-request-bytes"; "256" ] (fun d ->
      send_line d.dout (String.make 1024 'x');
      let r = parse_line d.din in
      Alcotest.(check bool) "not ok" false (is_ok r);
      Alcotest.(check string) "kind" "oversized" (err_kind r);
      (* the rest of the oversized line was discarded, not re-framed:
         the next (normal-sized) request is served cleanly *)
      let r2 = expand d ~session:"a" plain_text in
      Alcotest.(check bool) "next request ok" true (is_ok r2))

let expired_deadline () =
  with_daemon (fun d ->
      let r =
        rpc d
          [ ("method", Json.Str "expand");
            ("session", Json.Str "a");
            ("text", Json.Str plain_text);
            ("deadline_ms", Json.Int 0) ]
      in
      Alcotest.(check bool) "not ok" false (is_ok r);
      Alcotest.(check string) "kind" "deadline_expired" (err_kind r);
      Alcotest.(check bool) "still serving" true
        (is_ok (expand d ~session:"a" plain_text)))

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

let definitions_persist () =
  with_daemon (fun d ->
      Alcotest.(check bool) "define ok" true
        (is_ok (expand d ~session:"a" defs_text));
      let r = expand d ~session:"a" use_text in
      Alcotest.(check bool) "use ok" true (is_ok r);
      Alcotest.(check bool) "macro expanded" false
        (contains ~sub:"TWICE" (output_of r)))

let sessions_isolated () =
  with_daemon (fun d ->
      Alcotest.(check bool) "define in a" true
        (is_ok (expand d ~session:"a" defs_text));
      let rb = expand d ~session:"b" use_text in
      Alcotest.(check bool) "b ok" true (is_ok rb);
      (* session b never saw a's definition: the invocation survives
         as a plain call *)
      Alcotest.(check bool) "b sees TWICE unexpanded" true
        (contains ~sub:"TWICE" (output_of rb));
      let ra = expand d ~session:"a" use_text in
      Alcotest.(check bool) "a still expands it" false
        (contains ~sub:"TWICE" (output_of ra)))

let failed_request_rolls_back () =
  with_daemon (fun d ->
      Alcotest.(check bool) "define ok" true
        (is_ok (expand d ~session:"r" defs_text));
      let bad = expand d ~session:"r" bad_text in
      Alcotest.(check bool) "bad request fails" false (is_ok bad);
      Alcotest.(check string) "kind" "expand_error" (err_kind bad);
      (match Option.bind (Json.member bad "error") (fun e ->
           Option.bind (Json.member e "diagnostics") Json.list)
       with
      | Some (_ :: _) -> ()
      | _ -> Alcotest.fail "expected located diagnostics");
      (* the failure rolled back without taking the session's earlier
         definitions with it *)
      let r = expand d ~session:"r" use_text in
      Alcotest.(check bool) "macro survived the failure" false
        (contains ~sub:"TWICE" (output_of r));
      let s = stats d ~session:"r" in
      Alcotest.(check bool) "isolation tripwire clear" true
        (match Json.member s "isolated" with
        | Some (Json.Bool b) -> b
        | _ -> false))

let cache_hits_when_warm () =
  let prelude = write_fixture "defs" defs_text in
  Fun.protect
    ~finally:(fun () -> try Sys.remove prelude with Sys_error _ -> ())
    (fun () ->
      with_daemon ~args:[ "--prelude-file"; prelude ] (fun d ->
          (* pass 1 registers the fragment's symbols (cold), pass 2
             re-expands under the now-stable state and stores, pass 3
             is the warm path *)
          let r1 = expand d ~session:"c" use_text in
          let r2 = expand d ~session:"c" use_text in
          let r3 = expand d ~session:"c" use_text in
          Alcotest.(check bool) "all ok" true
            (is_ok r1 && is_ok r2 && is_ok r3);
          Alcotest.(check bool) "warm pass hits the cache" true
            (int_at r3 [ "request"; "cache_hits" ] > 0);
          Alcotest.(check string) "hit output identical"
            (output_of r2) (output_of r3)))

(* ------------------------------------------------------------------ *)
(* Closed session state                                                *)
(* ------------------------------------------------------------------ *)

(* The first diagnostic's message of a failed request. *)
let diag_message v =
  match
    Option.bind (Json.member v "error") (fun e ->
        Option.bind (Json.member e "diagnostics") Json.list)
  with
  | Some (d :: _) ->
      Option.value ~default:"" (Option.bind (Json.member d "message") Json.str)
  | _ -> ""

(* A session's outputs do not depend on which other sessions ran before
   or in between: its fresh names are its own. *)
let sessions_isolate_fresh_names () =
  List.iter
    (fun args ->
      let outputs =
        List.map
          (fun (what, order) ->
            ( what,
              with_daemon ~args:("--hygienic" :: args) (fun d ->
                  List.filter_map
                    (fun (session, text) ->
                      let r = expand d ~session text in
                      if not (is_ok r) then
                        Alcotest.failf "%s: %s" session (diag_message r);
                      if session = "alice" then Some (output_of r) else None)
                    order) ))
          Tutil.alice_orders
      in
      let alone = List.assoc "alone" outputs in
      List.iter
        (fun (what, outs) ->
          Alcotest.(check (list string))
            (String.concat " " args ^ ", " ^ what)
            alone outs)
        outputs)
    [ [ "--no-cache"; "--workers"; "1" ]; [ "--no-cache"; "--workers"; "2" ];
      [ "--workers"; "1" ]; [ "--workers"; "2" ] ]

(* A lambda stored in a global cannot write what it captured, so a
   rolled-back request cannot leave such a write behind. *)
let rolled_back_lambda_write () =
  with_daemon ~args:[ "--no-cache" ] (fun d ->
      match
        List.map (fun text -> expand d ~session:"k" text) Tutil.found_requests
      with
      | [ r1; r2; r3 ] ->
          Alcotest.(check bool) "the first request stores the lambda" true
            (is_ok r1);
          Alcotest.(check bool) "the second fails" false (is_ok r2);
          Alcotest.(check bool) "the third fails" false (is_ok r3);
          Alcotest.(check bool) "naming the captured variable" true
            (contains ~sub:"cannot assign base" (diag_message r3))
      | _ -> assert false)

(* [--fuel] bounds one request: twelve sessions of seven steps each all
   expand under a budget of fifty. *)
let fuel_per_request () =
  with_daemon ~args:[ "--no-cache"; "--fuel"; "50" ] (fun d ->
      let outs =
        List.init 12 (fun i ->
            let r =
              expand d ~session:(Printf.sprintf "s%d" i)
                (Tutil.swap2_defs ^ Tutil.swap2_use)
            in
            if not (is_ok r) then
              Alcotest.failf "request %d: %s" (i + 1) (diag_message r);
            output_of r)
      in
      List.iter
        (Alcotest.(check string) "same output" (List.hd outs))
        outs)

(* [--max-sessions] bounds the whole daemon at any [--workers]: the
   ids have equal [Hashtbl.hash id mod 2], so a budget split by id hash
   over two workers would hold one of them. *)
let session_budget_is_daemon_wide () =
  let hash2 id = Hashtbl.hash id mod 2 in
  let ids = List.init 16 (Printf.sprintf "s%d") in
  let a = List.hd ids in
  let b = List.find (fun id -> id <> a && hash2 id = hash2 a) ids in
  with_daemon ~args:[ "--workers"; "2"; "--max-sessions"; "2" ] (fun d ->
      List.iter
        (fun session ->
          Alcotest.(check bool) "define ok" true
            (is_ok (expand d ~session defs_text)))
        [ a; b ];
      List.iter
        (fun session ->
          Alcotest.(check bool) (session ^ " keeps its definition") false
            (contains ~sub:"TWICE" (output_of (expand d ~session use_text))))
        [ a; b ])

(* Idle sessions are swept without a further request, at any
   [--workers]. *)
let idle_sessions_swept () =
  with_daemon ~args:[ "--workers"; "2"; "--session-idle-ms"; "100" ]
    (fun d ->
      Alcotest.(check bool) "expand ok" true
        (is_ok (expand d ~session:"idle" plain_text));
      (* the event loop wakes for the session's expiry, well before its
         one-second select timeout *)
      Unix.sleepf 0.5;
      Alcotest.(check int) "sessions" 0
        (int_at (rpc d [ ("method", Json.Str "health") ]) [ "sessions" ]))

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let eof_drains () =
  with_daemon (fun d ->
      Alcotest.(check bool) "serving" true
        (is_ok (rpc d [ ("method", Json.Str "ping") ]));
      (* mid-request disconnect: half a request, then EOF *)
      output_string d.dout "{\"method\": \"exp";
      flush d.dout;
      match stop d with
      | Unix.WEXITED 0 -> ()
      | st ->
          Alcotest.failf "daemon did not drain cleanly: %s"
            (match st with
            | Unix.WEXITED n -> Printf.sprintf "exit %d" n
            | Unix.WSIGNALED _ -> "killed"
            | Unix.WSTOPPED _ -> "stopped"))

(* An answer that cannot be written (stdout is a full device) is
   dropped: neither the worker that expanded it nor the event loop
   dies, and EOF still drains to exit 0.  Skipped where there is no
   [/dev/full]. *)
let unwritable_stdout_drains () =
  if Sys.file_exists "/dev/full" then begin
    ignore (Unix.alarm 120);
    let reqs = Filename.temp_file "ms2c_serve_full" ".jsonl" in
    Fun.protect
      ~finally:(fun () ->
        (try Sys.remove reqs with Sys_error _ -> ());
        ignore (Unix.alarm 0))
    @@ fun () ->
    Out_channel.with_open_bin reqs (fun oc ->
        List.iter
          (fun fields ->
            incr next_id;
            output_string oc
              (Json.to_string (Json.Obj (("id", Json.Int !next_id) :: fields)));
            output_char oc '\n')
          [ expand_req ~session:"a" plain_text; [ ("method", Json.Str "ping") ];
            expand_req ~session:"a" use_text ]);
    let stdin = Unix.openfile reqs [ Unix.O_RDONLY ] 0 in
    let full = Unix.openfile "/dev/full" [ Unix.O_WRONLY ] 0 in
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process ms2c [| ms2c; "serve" |] stdin full devnull
    in
    List.iter Unix.close [ stdin; full; devnull ];
    match reap pid with
    | Unix.WEXITED 0 -> ()
    | Unix.WEXITED n -> Alcotest.failf "daemon exited %d" n
    | _ -> Alcotest.fail "daemon was killed"
  end

(* EOF on stdin while a worker still runs a job: the daemon answers
   every request first, and only then takes its last save point and
   writes its last Prometheus export — so both count all four. *)
let eof_waits_for_running_jobs () =
  let snap = Filename.temp_file "ms2c_serve_eof" ".snap" in
  let prom = Filename.temp_file "ms2c_serve_eof" ".prom" in
  Sys.remove snap;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ snap; prom ])
  @@ fun () ->
  let texts =
    [ "int f(void) { return 1; }\n"; "int g(void) { return 2; }\n";
      "int h(void) { return 3; }\n"; spin_text 2_000_000 ]
  in
  with_daemon
    ~args:
      [ "--workers"; "2"; "--fuel"; "0"; "--invocation-fuel"; "0";
        "--cache-file"; snap; "--prometheus"; prom ]
    (fun d ->
      List.iteri
        (fun i text ->
          send_line d.dout
            (Json.to_string
               (Json.Obj
                  [ ("id", Json.Int i);
                    ("method", Json.Str "expand");
                    ("session", Json.Str (Printf.sprintf "s%d" i));
                    ("text", Json.Str text) ])))
        texts;
      (* EOF now, while the last request still runs *)
      close_out d.dout;
      let replies = List.map (fun _ -> input_line d.din) texts in
      (match stop d with
      | Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "daemon did not drain to exit 0");
      List.iter
        (fun line ->
          Alcotest.(check bool) "ok" true
            (match Json.parse line with Ok v -> is_ok v | Error _ -> false))
        replies;
      Alcotest.(check bool) "the last export counts every request" true
        (contains ~sub:"\nserve_served 4\n"
           (In_channel.with_open_bin prom In_channel.input_all)));
  with_daemon ~args:[ "--cache-file"; snap ] (fun d ->
      Alcotest.(check int) "a restart loads every entry" 4
        (int_at
           (rpc d [ ("method", Json.Str "metrics") ])
           [ "metrics"; "counters"; "snapshot.load.entries" ]))

let sigterm_drains () =
  with_daemon (fun d ->
      Alcotest.(check bool) "serving" true
        (is_ok (rpc d [ ("method", Json.Str "ping") ]));
      Unix.kill d.pid Sys.sigterm;
      match reap d.pid with
      | Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "SIGTERM did not drain to exit 0")

let overload_sheds () =
  with_daemon
    ~args:[ "--max-pending"; "1"; "--fuel"; "0"; "--invocation-fuel"; "0" ]
    (fun d ->
      (* one flush for the whole burst: the daemon admits the first
         request, a spin that still runs while the rest are framed, and
         sheds the rest *)
      let burst = 4 in
      List.iter
        (fun text ->
          incr next_id;
          output_string d.dout
            (Json.to_string
               (Json.Obj
                  (("id", Json.Int !next_id)
                  :: expand_req ~session:"o" text)));
          output_char d.dout '\n')
        (spin_text 2_000_000 :: List.init (burst - 1) (fun _ -> plain_text));
      flush d.dout;
      let responses = List.init burst (fun _ -> parse_line d.din) in
      let oks = List.filter is_ok responses in
      let shed =
        List.filter (fun r -> err_kind r = "overloaded") responses
      in
      Alcotest.(check int) "exactly one admitted" 1 (List.length oks);
      Alcotest.(check int) "rest shed" (burst - 1) (List.length shed);
      List.iter
        (fun r ->
          Alcotest.(check bool) "shed responses carry retry_after_ms" true
            (int_at r [ "error"; "retry_after_ms" ] >= 0))
        shed;
      (* shedding is back-pressure, not failure: the next lockstep
         request sails through *)
      Alcotest.(check bool) "recovers" true
        (is_ok (expand d ~session:"o" plain_text)))

(* [--max-pending] bounds admitted but unanswered requests, running ones
   included, at [--workers 2] too.  The requests come in separate
   writes, so the daemon frames them in separate reads.  Replies arrive
   in the order requests finish: one that succeeds before the first
   spin's reply was admitted while the spin was in flight. *)
let max_pending_counts_running_jobs () =
  with_daemon
    ~args:
      [ "--workers"; "2"; "--max-pending"; "1"; "--fuel"; "0";
        "--invocation-fuel"; "0" ]
    (fun d ->
      let spin_in session =
        post d.dout (expand_req ~session (spin_text 5_000_000))
      in
      let spin = spin_in "a" in
      let spin_b = spin_in "b" in
      let uses =
        List.init 20 (fun _ ->
            Unix.sleepf 0.005;
            post d.dout (expand_req ~session:"c" plain_text))
      in
      let ids = spin :: spin_b :: uses in
      let health = post d.dout [ ("method", Json.Str "health") ] in
      let replies = List.map (fun _ -> parse_line d.din) (health :: ids) in
      let id_of r = int_at r [ "id" ] in
      let find id = List.find (fun r -> id_of r = id) replies in
      Alcotest.(check bool) "at most one request in flight" true
        (int_at (find health) [ "in_flight" ] <= 1);
      Alcotest.(check bool) "the first spin is admitted" true
        (is_ok (find spin));
      let rec before_spin = function
        | r :: rest when id_of r <> spin -> r :: before_spin rest
        | _ -> []
      in
      List.iter
        (fun r ->
          if id_of r <> health then
            Alcotest.(check string)
              (Printf.sprintf "request %d, sent while the spin ran, is shed"
                 (id_of r))
              "overloaded" (err_kind r))
        (before_spin replies);
      List.iter
        (fun id ->
          let r = find id in
          if not (is_ok r) then
            Alcotest.(check string) "shed" "overloaded" (err_kind r))
        ids)

(* [health] is answered by the event loop while the one worker of
   [--workers 1] expands: both health replies come before the spin's. *)
let health_answers_while_expanding () =
  with_daemon ~args:[ "--fuel"; "0"; "--invocation-fuel"; "0" ] (fun d ->
      let spin = post d.dout (expand_req ~session:"a" (spin_text 5_000_000)) in
      List.iter
        (fun what ->
          let health = post d.dout [ ("method", Json.Str "health") ] in
          let r = parse_line d.din in
          Alcotest.(check int) (what ^ " health reply before the spin's")
            health (int_at r [ "id" ]);
          Alcotest.(check int) "the spin is in flight" 1
            (int_at r [ "in_flight" ]))
        [ "first"; "second" ];
      let r = parse_line d.din in
      Alcotest.(check int) "then the spin's reply" spin (int_at r [ "id" ]);
      Alcotest.(check bool) "spin ok" true (is_ok r))

(* ------------------------------------------------------------------ *)
(* Chaos sweep over the serve/* failpoints                             *)
(* ------------------------------------------------------------------ *)

let expected_kind site =
  (* accept/decode fire during admission; expand on the session path;
     respond on the write-out path *)
  if site = "serve/expand" then "expand_error"
  else if site = "serve/respond" then "respond_error"
  else "rejected"

let chaos_sweep () =
  with_daemon (fun d ->
      let sites = List.filter Failpoint.serve_site Failpoint.sites in
      Alcotest.(check bool) "serve sites registered" true
        (List.length sites >= 4);
      (* stabilize the victim session first (two passes, so the sweep's
         probes no longer mutate session state), then snapshot the
         state fingerprint the whole sweep must preserve *)
      ignore (expand d ~session:"chaos" plain_text);
      ignore (expand d ~session:"chaos" plain_text);
      let fp0 = fingerprint_of (stats d ~session:"chaos") in
      List.iter
        (fun site ->
          List.iter
            (fun mode ->
              let arm =
                rpc d
                  [ ("method", Json.Str "failpoints");
                    ("spec", Json.Str (site ^ "=" ^ mode)) ]
              in
              Alcotest.(check bool) (site ^ " armed") true (is_ok arm);
              let victim = expand d ~session:"chaos" plain_text in
              Alcotest.(check bool)
                (Printf.sprintf "%s=%s fails" site mode)
                false (is_ok victim);
              Alcotest.(check string)
                (Printf.sprintf "%s=%s kind" site mode)
                (expected_kind site) (err_kind victim);
              let disarm =
                rpc d
                  [ ("method", Json.Str "failpoints");
                    ("spec", Json.Str (site ^ "=off")) ]
              in
              Alcotest.(check bool) (site ^ " disarmed") true (is_ok disarm);
              Alcotest.(check bool)
                (Printf.sprintf "%s=%s recovered" site mode)
                true
                (is_ok (expand d ~session:"chaos" plain_text)))
            [ "error"; "timeout" ])
        sites;
      let s = stats d ~session:"chaos" in
      Alcotest.(check string) "state fingerprint unchanged" fp0
        (fingerprint_of s);
      Alcotest.(check bool) "isolation tripwire clear" true
        (match Json.member s "isolated" with
        | Some (Json.Bool b) -> b
        | _ -> false))

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)
(* ------------------------------------------------------------------ *)

let connect_sock path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

(* Retry until the daemon (or its restarted worker) accepts and
   answers a ping; returns the channels and the worker pid. *)
let rec dial ?(tries = 100) path =
  if tries = 0 then Alcotest.fail "daemon socket never came up";
  match connect_sock path with
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      ignore (Unix.select [] [] [] 0.1);
      dial ~tries:(tries - 1) path
  | (ic, oc) -> (
      match rpc_ch (ic, oc) [ ("method", Json.Str "ping") ] with
      | exception (End_of_file | Sys_error _) ->
          (try close_out oc with Sys_error _ -> ());
          ignore (Unix.select [] [] [] 0.1);
          dial ~tries:(tries - 1) path
      | r when is_ok r -> ((ic, oc), int_at r [ "pid" ])
      | _ -> Alcotest.fail "ping refused")

(* Run [f pid sock] against [ms2c serve --socket sock args]; the
   daemon is killed afterwards if it still runs. *)
let with_socket_daemon ?(args = []) f =
  ignore (Unix.alarm 120);
  let sock = Filename.temp_file "ms2serve" ".sock" in
  Sys.remove sock;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let argv = Array.of_list (ms2c :: "serve" :: "--socket" :: sock :: args) in
  let pid = Unix.create_process ms2c argv devnull devnull Unix.stderr in
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (reap pid) with Unix.Unix_error _ -> ());
      (try Sys.remove sock with Sys_error _ -> ());
      ignore (Unix.alarm 0))
    (fun () -> f pid sock)

(* One session's definition and three uses, pipelined over two
   connections with another session's requests between them, at
   [--workers 2]: every use sees the definition.  The definition is
   long enough that the uses arrive while a worker still runs it, and a
   ping barrier on each connection fixes the order the daemon reads
   them in without waiting for an expansion. *)
let pipelined_session_order () =
  let long_defs =
    defs_text
    ^ String.concat ""
        (List.init 2000 (fun i ->
             Printf.sprintf "int f%d(void) { return TWICE((%d)); }\n" i i))
  in
  with_socket_daemon ~args:[ "--workers"; "2" ] (fun _ sock ->
      let c1, _ = dial sock and c2, _ = dial sock in
      let got = Hashtbl.create 16 in
      let barrier (ic, oc) =
        await got ic (post oc [ ("method", Json.Str "ping") ])
      in
      let post ?(session = "p") (_, oc) text =
        post oc (expand_req ~session text)
      in
      let def = post c1 long_defs in
      ignore (post ~session:"q" c1 plain_text);
      barrier c1;
      let uses =
        List.map
          (fun c ->
            let u = post c use_text in
            ignore (post ~session:"q" c plain_text);
            barrier c;
            (c, u))
          [ c2; c1; c2 ]
      in
      List.iter
        (fun ((ic, _), id) -> if not (Hashtbl.mem got id) then await got ic id)
        ((c1, def) :: uses);
      Alcotest.(check bool) "definition ok" true (is_ok (Hashtbl.find got def));
      List.iter
        (fun (_, id) ->
          Alcotest.(check bool) "use sees the definition" false
            (contains ~sub:"TWICE" (output_of (Hashtbl.find got id))))
        uses)

(* A socket client that sends its requests and then half-closes still
   gets every answer, at the default [--workers 1]: the daemon keeps the
   connection open until the answers it owes are written.  The first
   request is a spin, so both are still owed when the EOF is read. *)
let half_closed_socket_gets_answers () =
  with_socket_daemon ~args:[ "--fuel"; "0"; "--invocation-fuel"; "0" ]
    (fun _ sock ->
      let (ic, oc), _ = dial sock in
      let spin = post oc (expand_req ~session:"h" (spin_text 2_000_000)) in
      let use = post oc (expand_req ~session:"h" plain_text) in
      Unix.shutdown (Unix.descr_of_out_channel oc) Unix.SHUTDOWN_SEND;
      List.iter
        (fun id ->
          match parse_line ic with
          | exception End_of_file ->
              Alcotest.failf "request %d: connection closed unanswered" id
          | r ->
              Alcotest.(check int) "answers in session order" id
                (int_at r [ "id" ]);
              Alcotest.(check bool) "ok" true (is_ok r))
        [ spin; use ];
      Alcotest.(check bool) "then EOF" true
        (match input_line ic with
        | exception End_of_file -> true
        | _ -> false))

let supervisor_restarts () =
  let pidfile = Filename.temp_file "ms2serve" ".pid" in
  Sys.remove pidfile;
  let prelude = write_fixture "sup_defs" defs_text in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ pidfile; prelude ])
  @@ fun () ->
  with_socket_daemon
    ~args:[ "--supervise"; "--pidfile"; pidfile; "--prelude-file"; prelude ]
    (fun sup sock ->
      let (ic, oc), worker1 = dial sock in
      Alcotest.(check bool) "worker has its own pid" true
        (worker1 > 0 && worker1 <> sup);
      (* simulate the kernel OOM-killing the worker *)
      Unix.kill worker1 Sys.sigkill;
      (try close_out oc with Sys_error _ -> ());
      (try close_in ic with Sys_error _ -> ());
      let (ic2, oc2), worker2 = dial sock in
      Alcotest.(check bool) "restarted under a new pid" true
        (worker2 > 0 && worker2 <> worker1);
      (* the restarted worker replayed the prelude: the macro is
         defined in a brand-new session without re-sending it *)
      let r =
        rpc_ch (ic2, oc2)
          [ ("method", Json.Str "expand");
            ("session", Json.Str "fresh");
            ("text", Json.Str use_text) ]
      in
      Alcotest.(check bool) "expand ok after restart" true (is_ok r);
      Alcotest.(check bool) "prelude replayed" false
        (contains ~sub:"TWICE" (output_of r));
      (try close_out oc2 with Sys_error _ -> ());
      (try close_in ic2 with Sys_error _ -> ());
      (* SIGTERM to the supervisor drains the whole tree to exit 0 and
         removes the socket and pidfile *)
      Unix.kill sup Sys.sigterm;
      (match reap sup with
      | Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "supervisor did not drain to exit 0");
      Alcotest.(check bool) "socket removed" false (Sys.file_exists sock);
      Alcotest.(check bool) "pidfile removed" false (Sys.file_exists pidfile))

(* ------------------------------------------------------------------ *)

let tc name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "serve"
    [ ( "protocol",
        [ tc "ping answers with a pid" ping_works;
          tc "unknown method is a structured error" unknown_method;
          tc "malformed JSON is a structured error" malformed_line;
          tc "oversized line is shed and re-framed" oversized_line;
          tc "expired deadline is refused" expired_deadline ] );
      ( "sessions",
        [ tc "definitions persist across requests" definitions_persist;
          tc "sessions do not leak definitions" sessions_isolated;
          tc "failed request rolls back, session survives"
            failed_request_rolls_back;
          tc "repeated fragments hit the shared cache" cache_hits_when_warm;
          tc "sessions do not see each other's fresh names"
            sessions_isolate_fresh_names;
          tc "a rolled-back write through a lambda does not stick"
            rolled_back_lambda_write;
          tc "a request's fuel is its own" fuel_per_request;
          tc "the session budget is daemon-wide" session_budget_is_daemon_wide;
          tc "idle sessions are swept without a request" idle_sessions_swept;
          tc "pipelined requests keep session order across workers"
            pipelined_session_order ]
      );
      ( "lifecycle",
        [ tc "EOF mid-request drains to exit 0" eof_drains;
          tc "stdin EOF waits for running jobs" eof_waits_for_running_jobs;
          tc "an unwritable stdout drains to exit 0" unwritable_stdout_drains;
          tc "SIGTERM drains to exit 0" sigterm_drains;
          tc "full queue sheds with retry_after_ms" overload_sheds;
          tc "max-pending counts running jobs at --workers 2"
            max_pending_counts_running_jobs;
          tc "health answers while --workers 1 expands"
            health_answers_while_expanding;
          tc "a half-closed socket still gets its answers"
            half_closed_socket_gets_answers ] );
      ("chaos", [ tc "failpoint sweep over serve/* sites" chaos_sweep ]);
      ( "supervisor",
        [ tc "worker SIGKILL is restarted with prelude replay"
            supervisor_restarts ] ) ]
