(** End-to-end tests for the live-observability surface of [ms2c serve]:
    per-request trace ids (response ↔ structured log ↔ flight dump),
    the flight recorder's anomaly gating, the [health] / [metrics]
    admin methods under multiple worker domains, the Prometheus text
    exposition, the SIGQUIT dump, and the in-process bounds of the
    flight ring itself.

    Daemons are driven over their real stdin/stdout like test_serve.ml,
    but with stderr captured to a file so the [ms2-log-1] stream can be
    checked line by line against the trace ids the responses carried. *)

module Json = Ms2_support.Json
module Obs = Ms2_support.Obs

let ms2c =
  if Sys.file_exists "../bin/ms2c.exe" then "../bin/ms2c.exe"
  else "_build/default/bin/ms2c.exe"

let defs_text =
  "syntax exp TWICE {| ( $$exp::e ) |} { return `($e + $e); }\n"

let use_text = "int f(void) { return TWICE((2)); }\n"
let plain_text = "int g(void) { return 1 + 1; }\n"

(* A fragment heavy enough to exceed a 1 ms slow threshold even on a
   fast machine: one definition plus many uses.  120 uses took 0.85 ms
   on a 2-vCPU VM once lexing got cheaper; 1,000 take about 14 ms. *)
let heavy_text =
  let b = Buffer.create 40960 in
  Buffer.add_string b defs_text;
  for _ = 1 to 1000 do
    Buffer.add_string b use_text
  done;
  Buffer.contents b

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = (i + n <= m) && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fresh_dir name =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ms2c_obs_%s_%d" name (Unix.getpid ()))
  in
  (try Sys.mkdir d 0o700 with Sys_error _ -> ());
  Array.iter
    (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
    (Sys.readdir d);
  d

let dir_files d =
  match Sys.readdir d with
  | fs ->
      Array.sort compare fs;
      Array.to_list fs
  | exception Sys_error _ -> []

(* ------------------------------------------------------------------ *)
(* Daemon plumbing (stderr captured to a file)                         *)
(* ------------------------------------------------------------------ *)

type daemon = {
  pid : int;
  din : in_channel;
  dout : out_channel;
  stderr_file : string;
}

let start_daemon ?(args = []) () =
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let stdout_r, stdout_w = Unix.pipe ~cloexec:true () in
  let stderr_file = Filename.temp_file "ms2c_obs_log" ".jsonl" in
  let err_fd =
    Unix.openfile stderr_file [ O_WRONLY; O_CREAT; O_TRUNC ] 0o600
  in
  let argv = Array.of_list (ms2c :: "serve" :: args) in
  let pid = Unix.create_process ms2c argv stdin_r stdout_w err_fd in
  Unix.close stdin_r;
  Unix.close stdout_w;
  Unix.close err_fd;
  {
    pid;
    din = Unix.in_channel_of_descr stdout_r;
    dout = Unix.out_channel_of_descr stdin_w;
    stderr_file;
  }

let rec reap pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> reap pid

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

(* Close stdin (natural drain) and wait, so post-mortem assertions see
   everything the daemon flushed on the way out. *)
let drain d =
  (try close_out d.dout with Sys_error _ -> ());
  ignore (reap d.pid)

(* ------------------------------------------------------------------ *)
(* Wire helpers                                                        *)
(* ------------------------------------------------------------------ *)

let send_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let next_id = ref 0

let rpc d fields =
  incr next_id;
  send_line d.dout
    (Json.to_string (Json.Obj (("id", Json.Int !next_id) :: fields)));
  match Json.parse (input_line d.din) with
  | Ok v -> v
  | Error e -> Alcotest.failf "unparseable response: %s" e

let is_ok v =
  match Json.member v "ok" with Some (Json.Bool b) -> b | _ -> false

let trace_of v =
  match Option.bind (Json.member v "trace_id") Json.str with
  | Some t -> t
  | None -> Alcotest.fail "response carries no trace_id"

let int_at v path =
  let rec go v = function
    | [] -> Json.int v
    | f :: rest -> Option.bind (Json.member v f) (fun v -> go v rest)
  in
  Option.value ~default:(-1) (go v path)

let expand d ~session text =
  rpc d
    [ ("method", Json.Str "expand");
      ("session", Json.Str session);
      ("text", Json.Str text) ]

(* ------------------------------------------------------------------ *)
(* The flight ring itself (in-process)                                 *)
(* ------------------------------------------------------------------ *)

(* The ring must be bounded regardless of traffic, and enabling it must
   NOT flip [Obs.recording ()] — the engine keys per-invocation span
   capture and speculation degradation on that flag, so a daemon with
   an always-on flight ring has to look "not recording" to it. *)
let flight_ring_bounded () =
  Alcotest.(check bool) "recording off before" false (Obs.recording ());
  Obs.Flight.enable ();
  Alcotest.(check bool) "flight on" true (Obs.Flight.enabled ());
  Alcotest.(check bool)
    "flight does not flip recording" false (Obs.recording ());
  for i = 1 to 3 * Obs.Flight.default_capacity do
    Obs.with_span ~cat:"test"
      ~args:(fun () -> [ ("i", Obs.Int i) ])
      "spin"
      (fun () -> ())
  done;
  let n = List.length (Obs.Flight.events ()) in
  Alcotest.(check bool) "ring nonempty" true (n > 0);
  Alcotest.(check bool)
    (Printf.sprintf "ring bounded (%d <= %d)" n Obs.Flight.default_capacity)
    true
    (n <= Obs.Flight.default_capacity)

let trace_stamped_in_ring () =
  Obs.Flight.enable ();
  Obs.with_trace (Some "cafe0123feed4567") (fun () ->
      Obs.with_span ~cat:"test" "traced" (fun () -> ()));
  let stamped =
    List.exists
      (fun (e : Obs.event) ->
        e.Obs.ev_name = "traced"
        && List.exists
             (fun (k, v) -> k = "trace_id" && v = Obs.Str "cafe0123feed4567")
             e.Obs.ev_args)
      (Obs.Flight.events ())
  in
  Alcotest.(check bool) "span carries the ambient trace id" true stamped

(* ------------------------------------------------------------------ *)
(* Trace round trip: response ↔ log ↔ flight dump                      *)
(* ------------------------------------------------------------------ *)

let log_lines d =
  read_file d.stderr_file |> String.split_on_char '\n'
  |> List.filter (fun l -> String.length l > 0 && l.[0] = '{')

let trace_roundtrip () =
  let dir = fresh_dir "trace" in
  with_daemon
    ~args:[ "--slow-ms"; "1"; "--flight-dir"; dir; "--log-level"; "info" ]
    (fun d ->
      let r = expand d ~session:"a" heavy_text in
      Alcotest.(check bool) "expand ok" true (is_ok r);
      let trace = trace_of r in
      drain d;
      (* every ms2-log-1 line is one parseable JSON object… *)
      let lines = log_lines d in
      Alcotest.(check bool) "daemon logged" true (lines <> []);
      List.iter
        (fun l ->
          match Json.parse l with
          | Ok j ->
              Alcotest.(check bool) "log schema" true
                (Json.member j "schema" = Some (Json.Str "ms2-log-1"))
          | Error e -> Alcotest.failf "unparseable log line %S: %s" l e)
        lines;
      (* …and the request's line carries the response's trace id *)
      let carries_trace =
        List.exists
          (fun l ->
            match Json.parse l with
            | Ok j ->
                Json.member j "trace_id" = Some (Json.Str trace)
                && Json.member j "event" = Some (Json.Str "request")
            | Error _ -> false)
          lines
      in
      Alcotest.(check bool) "request log line shares trace_id" true
        carries_trace;
      (* the slow request (>1 ms) dumped the flight recorder, and the
         dump shares the trace id too *)
      match
        List.filter (fun f -> contains ~sub:"slow_request" f) (dir_files dir)
      with
      | [] -> Alcotest.fail "no slow_request flight dump written"
      | dump :: _ -> (
          match Json.parse (read_file (Filename.concat dir dump)) with
          | Error e -> Alcotest.failf "unparseable flight dump: %s" e
          | Ok j ->
              Alcotest.(check bool) "dump schema" true
                (Json.member j "schema" = Some (Json.Str "ms2-flight-1"));
              Alcotest.(check bool) "dump kind" true
                (Json.member j "kind" = Some (Json.Str "slow_request"));
              Alcotest.(check bool) "dump shares trace_id" true
                (Json.member j "trace_id" = Some (Json.Str trace));
              let domains =
                Option.value ~default:[]
                  (Option.bind (Json.member j "domains") Json.list)
              in
              Alcotest.(check bool) "dump has ring events" true
                (List.exists
                   (fun dom ->
                     Option.value ~default:[]
                       (Option.bind (Json.member dom "events") Json.list)
                     <> [])
                   domains)))

let no_dump_below_threshold () =
  let dir = fresh_dir "quiet" in
  with_daemon
    ~args:[ "--slow-ms"; "60000"; "--flight-dir"; dir ]
    (fun d ->
      Alcotest.(check bool) "expand ok" true
        (is_ok (expand d ~session:"a" plain_text));
      Alcotest.(check bool) "expand ok" true
        (is_ok (expand d ~session:"a" plain_text));
      drain d;
      Alcotest.(check (list string))
        "anomaly-free run writes no flight dumps" [] (dir_files dir))

(* ------------------------------------------------------------------ *)
(* health / metrics under worker domains                               *)
(* ------------------------------------------------------------------ *)

let health_metrics_workers () =
  with_daemon ~args:[ "--workers"; "2" ] (fun d ->
      Alcotest.(check bool) "expand a" true
        (is_ok (expand d ~session:"a" (defs_text ^ use_text)));
      Alcotest.(check bool) "expand b" true
        (is_ok (expand d ~session:"b" plain_text));
      let h = rpc d [ ("method", Json.Str "health") ] in
      Alcotest.(check bool) "health ok" true (is_ok h);
      ignore (trace_of h);
      Alcotest.(check int) "workers" 2 (int_at h [ "workers" ]);
      Alcotest.(check int) "sessions" 2 (int_at h [ "sessions" ]);
      Alcotest.(check int) "served" 2 (int_at h [ "served" ]);
      (* the worker decrements in_flight after writing the response, so
         a health probe racing that store may still see the request *)
      Alcotest.(check bool) "in_flight sane" true
        (int_at h [ "in_flight" ] >= 0);
      Alcotest.(check bool) "uptime" true (int_at h [ "uptime_ms" ] >= 0);
      (match Json.member h "anomalies" with
      | Some (Json.List []) -> ()
      | Some (Json.List _) -> Alcotest.fail "unexpected anomalies"
      | _ -> Alcotest.fail "health carries no anomalies list");
      let m = rpc d [ ("method", Json.Str "metrics") ] in
      Alcotest.(check bool) "metrics ok" true (is_ok m);
      ignore (trace_of m);
      let metrics =
        match Json.member m "metrics" with
        | Some v -> v
        | None -> Alcotest.fail "no metrics member"
      in
      Alcotest.(check bool) "metrics schema" true
        (Json.member metrics "schema" = Some (Json.Str "ms2-metrics-1"));
      Alcotest.(check int) "requests counted" 2
        (int_at metrics [ "counters"; "serve.requests.expand" ]);
      (* the abort-cause counters are registered (zero is fine) *)
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "fragments.abort.%s present" c)
            true
            (int_at metrics [ "counters"; "fragments.abort." ^ c ] >= 0))
        [ "defs_bump"; "gensym_mint"; "meta_decl"; "stale_read";
          "foreign_closure" ];
      (* per-method latency histogram: count matches, cumulative
         buckets are monotone and end at the total count *)
      let h_lat =
        match
          Option.bind (Json.member metrics "histograms") (fun h ->
              Json.member h "serve.latency_ms.expand")
        with
        | Some v -> v
        | None -> Alcotest.fail "no serve.latency_ms.expand histogram"
      in
      let count = int_at h_lat [ "count" ] in
      Alcotest.(check int) "latency count" 2 count;
      let buckets =
        Option.value ~default:[]
          (Option.bind (Json.member h_lat "buckets") Json.list)
      in
      Alcotest.(check bool) "has buckets" true (buckets <> []);
      let last =
        List.fold_left
          (fun prev b ->
            let c = int_at b [ "count" ] in
            Alcotest.(check bool) "buckets cumulative-monotone" true
              (c >= prev);
            c)
          0 buckets
      in
      Alcotest.(check int) "+Inf bucket equals count" count last;
      (* the interner's size is a gauge, and it grows with the fresh
         identifiers the requests below carry *)
      let spellings metrics =
        match
          Option.bind (Json.member metrics "gauges") (fun g ->
              Option.bind (Json.member g "intern.spellings") Json.number)
        with
        | Some v -> v
        | None -> Alcotest.fail "no intern.spellings gauge"
      in
      let spellings0 = spellings metrics in
      (* the engine counters cover the whole daemon: six two-invocation
         requests spread over both workers add up, whichever worker ran
         them (sessions a and b already hold one invocation and one
         definition between them) *)
      let invocations =
        List.fold_left
          (fun acc session ->
            let r =
              expand d ~session
                (defs_text ^ "int fresh_" ^ session
                ^ "_h(void) { return TWICE((1)) + TWICE((2)); }\n")
            in
            Alcotest.(check bool) ("expand " ^ session) true (is_ok r);
            acc + int_at r [ "request"; "invocations" ])
          1
          [ "a"; "b"; "c"; "d"; "e"; "f" ]
      in
      Alcotest.(check int) "two invocations a request" 13 invocations;
      let m = rpc d [ ("method", Json.Str "metrics") ] in
      let counter name = int_at m [ "metrics"; "counters"; name ] in
      (match Json.member m "metrics" with
      | Some metrics ->
          Alcotest.(check bool) "intern.spellings grows" true
            (spellings metrics > spellings0)
      | None -> Alcotest.fail "no metrics member");
      Alcotest.(check int) "engine.invocations_expanded sums the workers"
        invocations
        (counter "engine.invocations_expanded");
      Alcotest.(check int) "engine.macros_defined sums the workers" 7
        (counter "engine.macros_defined");
      let s =
        rpc d [ ("method", Json.Str "stats"); ("session", Json.Str "a") ]
      in
      Alcotest.(check int) "stats reports the daemon-wide total" invocations
        (int_at s [ "engine"; "invocations_expanded" ]))

(* ------------------------------------------------------------------ *)
(* Prometheus exposition: a strict line-level parser                   *)
(* ------------------------------------------------------------------ *)

let prom_name_ok (n : string) =
  n <> ""
  && (match n.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
     | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       n

let prom_value_ok (v : string) =
  v <> "" && (match float_of_string_opt v with Some _ -> true | None -> false)

(* One parsed sample line: metric base name, optional le label, value. *)
let parse_sample (line : string) : string * string option * string =
  match String.index_opt line ' ' with
  | None -> Alcotest.failf "prometheus sample without value: %S" line
  | Some sp -> (
      let name_part = String.sub line 0 sp in
      let value =
        String.sub line (sp + 1) (String.length line - sp - 1)
      in
      match String.index_opt name_part '{' with
      | None -> (name_part, None, value)
      | Some lb ->
          let base = String.sub name_part 0 lb in
          let labels =
            String.sub name_part lb (String.length name_part - lb)
          in
          let prefix = "{le=\"" in
          if
            String.length labels > String.length prefix + 2
            && String.sub labels 0 (String.length prefix) = prefix
            && String.sub labels (String.length labels - 2) 2 = "\"}"
          then
            ( base,
              Some
                (String.sub labels (String.length prefix)
                   (String.length labels - String.length prefix - 2)),
              value )
          else Alcotest.failf "unexpected label set: %S" line)

let prometheus_export () =
  let prom = Filename.temp_file "ms2c_obs_prom" ".txt" in
  with_daemon ~args:[ "--workers"; "2"; "--prometheus"; prom ] (fun d ->
      for _ = 1 to 3 do
        Alcotest.(check bool) "expand ok" true
          (is_ok (expand d ~session:"a" plain_text))
      done;
      drain d;
      let text = read_file prom in
      Alcotest.(check bool) "export nonempty" true (String.length text > 0);
      let types : (string, string) Hashtbl.t = Hashtbl.create 64 in
      (* histogram coherence accumulators: base -> (last cum, samples) *)
      let hist_cum : (string, int) Hashtbl.t = Hashtbl.create 16 in
      let hist_count : (string, int) Hashtbl.t = Hashtbl.create 16 in
      let hist_inf : (string, int) Hashtbl.t = Hashtbl.create 16 in
      let strip_suffix name suf =
        let n = String.length name and s = String.length suf in
        if n > s && String.sub name (n - s) s = suf then
          Some (String.sub name 0 (n - s))
        else None
      in
      String.split_on_char '\n' text
      |> List.filter (fun l -> l <> "")
      |> List.iter (fun line ->
             if String.length line > 7 && String.sub line 0 7 = "# TYPE " then begin
               match
                 String.split_on_char ' '
                   (String.sub line 7 (String.length line - 7))
               with
               | [ name; kind ]
                 when List.mem kind [ "counter"; "gauge"; "histogram" ] ->
                   Alcotest.(check bool)
                     (Printf.sprintf "valid TYPE name %S" name)
                     true (prom_name_ok name);
                   Hashtbl.replace types name kind
               | _ -> Alcotest.failf "malformed TYPE line: %S" line
             end
             else begin
               let base, le, value = parse_sample line in
               Alcotest.(check bool)
                 (Printf.sprintf "valid sample name %S" base)
                 true (prom_name_ok base);
               Alcotest.(check bool)
                 (Printf.sprintf "valid sample value %S" value)
                 true (prom_value_ok value);
               (* every sample belongs to a declared family: the name
                  itself, or its histogram series *)
               let family =
                 if Hashtbl.mem types base then Some base
                 else
                   List.find_map
                     (fun suf -> strip_suffix base suf)
                     [ "_bucket"; "_sum"; "_count" ]
               in
               (match family with
               | Some f when Hashtbl.mem types f -> ()
               | _ -> Alcotest.failf "sample without TYPE: %S" line);
               (* histogram-specific coherence *)
               (match (strip_suffix base "_bucket", le) with
               | Some fam, Some le ->
                   let cum = int_of_string value in
                   let prev =
                     Option.value ~default:0 (Hashtbl.find_opt hist_cum fam)
                   in
                   Alcotest.(check bool)
                     (Printf.sprintf "%s buckets monotone" fam)
                     true (cum >= prev);
                   Hashtbl.replace hist_cum fam cum;
                   if le = "+Inf" then Hashtbl.replace hist_inf fam cum
               | Some _, None ->
                   Alcotest.failf "_bucket sample without le: %S" line
               | None, _ -> ());
               match strip_suffix base "_count" with
               | Some fam -> Hashtbl.replace hist_count fam (int_of_string value)
               | None -> ()
             end);
      (* every histogram's _count agrees with its +Inf bucket *)
      Hashtbl.iter
        (fun fam count ->
          match Hashtbl.find_opt hist_inf fam with
          | Some inf ->
              Alcotest.(check int)
                (Printf.sprintf "%s +Inf == _count" fam)
                count inf
          | None -> Alcotest.failf "histogram %s has no +Inf bucket" fam)
        hist_count;
      (* the RED series the dashboard needs actually made it out *)
      Alcotest.(check string) "latency histogram exported" "histogram"
        (Option.value ~default:"<missing>"
           (Hashtbl.find_opt types "serve_latency_ms_expand"));
      Alcotest.(check bool) "request counter exported" true
        (contains ~sub:"\nserve_requests_expand 3\n" ("\n" ^ text)))

(* ------------------------------------------------------------------ *)
(* SIGQUIT: operator-requested dump, daemon keeps serving              *)
(* ------------------------------------------------------------------ *)

let sigquit_dump () =
  let dir = fresh_dir "sigquit" in
  with_daemon ~args:[ "--flight-dir"; dir ] (fun d ->
      Alcotest.(check bool) "expand ok" true
        (is_ok (expand d ~session:"a" plain_text));
      Unix.kill d.pid Sys.sigquit;
      (* the dump happens at the top of the next event-loop turn; the
         select either EINTRs or times out within a second *)
      let rec wait tries =
        let dumped =
          List.exists (fun f -> contains ~sub:"sigquit" f) (dir_files dir)
        in
        if dumped then ()
        else if tries = 0 then Alcotest.fail "no sigquit flight dump"
        else begin
          Unix.sleepf 0.1;
          wait (tries - 1)
        end
      in
      wait 50;
      (* still alive and serving, and the anomaly is in health *)
      Alcotest.(check bool) "still serving" true
        (is_ok (expand d ~session:"a" plain_text));
      let h = rpc d [ ("method", Json.Str "health") ] in
      let kinds =
        Option.value ~default:[]
          (Option.bind (Json.member h "anomalies") Json.list)
        |> List.filter_map (fun a ->
               Option.bind (Json.member a "kind") Json.str)
      in
      Alcotest.(check bool) "health lists the sigquit anomaly" true
        (List.mem "sigquit" kinds))

let () =
  Alcotest.run "live_obs"
    [
      ( "flight-ring",
        [
          Alcotest.test_case "bounded, recording() untouched" `Quick
            flight_ring_bounded;
          Alcotest.test_case "spans carry the ambient trace id" `Quick
            trace_stamped_in_ring;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "response/log/dump trace round trip" `Quick
            trace_roundtrip;
          Alcotest.test_case "no dump below the slow threshold" `Quick
            no_dump_below_threshold;
        ] );
      ( "admin",
        [
          Alcotest.test_case "health and metrics under --workers 2" `Quick
            health_metrics_workers;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "strict text-format parse" `Quick
            prometheus_export;
        ] );
      ( "sigquit",
        [ Alcotest.test_case "dump and keep serving" `Quick sigquit_dump ]
      );
    ]
