(** [ms2c serve] — a persistent, crash-safe expansion daemon.

    One process, many sessions: requests arrive as line-oriented JSON
    (protocol {!Ms2_support.Serve_proto}, schema [ms2-serve-1]) over
    stdin/stdout or a Unix-domain socket, and each client session is a
    checkpoint boundary that expands on whichever engine serves it
    ({!Ms2.Api.Session}).  A failed request rolls back to
    the session's snapshot and answers with a structured diagnostic; it
    can never poison another session (asserted with
    {!Ms2.Engine.fingerprint} on every failure).  Because the engine is
    shared, the expansion cache is too: a fragment expanded for one
    session replays for every other.

    Robustness posture:
    - per-request [deadline_ms] is propagated onto the engine watchdog
      (it can narrow the fragment timeout, never extend it); a deadline
      already spent on arrival is refused with [deadline_expired];
    - admitted but unanswered requests, queued or running, are bounded
      ([--max-pending]); beyond it requests are shed with a retryable
      [overloaded] carrying a [retry_after_ms] hint derived from
      observed service time;
    - SIGTERM/SIGINT drain: queued requests finish, new ones are
      refused with retryable [draining], then the socket and pidfile
      are removed and the process exits 0;
    - [--supervise] keeps a supervisor in front of the worker: a crash
      is logged, the worker restarted with capped-backoff pacing, and
      the macro prelude ([--prelude]/[--prelude-file]) replayed so the
      restarted daemon serves the same definitions;
    - the socket is claimed atomically (bind to a temp name, rename
      into place) and a stale socket left by a crash is detected (by a
      probe connect) and reclaimed;
    - protocol failures — oversized lines, malformed JSON, unknown
      methods, expired deadlines, mid-request disconnects — are each a
      structured error response (or a dropped write), never a daemon
      exit.

    Parallelism ([--workers N], default 1): the daemon keeps N engines,
    each owned by a worker domain, and one table of sessions.  A
    session is a checkpoint value, so any engine serves it: the prelude
    loads once, on the first engine, and its state is the base every
    session starts from.  The event loop only frames, admits and
    answers admin methods; an admitted request goes straight to the
    tail of its session's FIFO of jobs.  One mutex guards the table,
    the FIFOs and the queue of runnable sessions.  A session is
    runnable while it has jobs and no worker holds it; a free worker
    takes the next runnable session, runs its oldest job, and requeues
    it if more wait.  So one session's requests stay serialized in
    arrival order, and two sessions expand in parallel whatever their
    ids.  N = 1 is one worker domain like any N, so [health] answers
    while an expansion runs.  The expansion cache is one store shared
    by the engines, so a fragment expanded on one domain replays on
    every other.  [--max-pending] bounds the admitted but unanswered
    requests, whatever N is.

    Live observability (MANUAL "Live observability"):
    - every request gets a [trace_id] minted at intake, echoed in its
      response, stamped on its [ms2-log-1] stderr log lines, and set
      as the {!Obs} trace context for the whole expansion — spans
      recorded anywhere under the request (worker domains included)
      carry it;
    - each serving domain keeps an always-on bounded flight ring of
      recent events; anomalies (slow request per [--slow-ms], watchdog
      fire, fingerprint breach, shed, SIGQUIT, worker crash) dump
      every ring to [--flight-dir] as one [ms2-flight-1] file and are
      remembered for the [health] admin method;
    - [health] and [metrics] admin methods serve the live state: RED
      per-method counters/latency histograms plus engine/cache
      counters, as [ms2-metrics-1] JSON; [--prometheus
      FILE] additionally exports the registry in Prometheus text
      format about once a second (atomic writes);
    - [ms2c top] polls [health]/[metrics] into a terminal dashboard. *)

open Cmdliner
open Cli_common
module Diag = Ms2_support.Diag
module Failpoint = Ms2_support.Failpoint
module Json = Ms2_support.Json
module Proto = Ms2_support.Serve_proto
module Atomic_io = Ms2_support.Atomic_io
module Backoff = Ms2_support.Backoff
module Obs = Ms2_support.Obs
module Log = Ms2_support.Log
module Session = Ms2.Api.Session

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

type conn = {
  c_id : int;
  c_in : Unix.file_descr;
  c_out : Unix.file_descr;
  c_buf : Buffer.t;  (** bytes read but not yet framed into a line *)
  mutable c_discarding : bool;
      (** skipping to the newline that ends an oversized request *)
  mutable c_eof : bool;  (** peer closed its write side *)
  mutable c_closed : bool;  (** connection is dead (write error / bye) *)
  c_owed : int Atomic.t;
      (** answers submitted to a worker and not yet written: the fd
          stays open until they are, even after EOF *)
  c_stdio : bool;
}

let write_all fd (s : string) =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    match Unix.write fd b !off (n - !off) with
    | k -> off := !off + k
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done

(* With [--workers N] several domains answer concurrently, possibly on
   the same connection (one client, many sessions): the response write
   must be atomic per line.  One global mutex is enough — responses are
   small and writes are rare next to expansion work. *)
let send_mutex = Mutex.create ()

(* A response that cannot be written (the peer is gone, the output file
   is full) is dropped and the connection marked dead, not fatal:
   surviving a mid-request disconnect is part of the contract, and a
   worker domain must never die on a write. *)
let send (c : conn) (line : string) : unit =
  Mutex.lock send_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock send_mutex)
    (fun () ->
      if not c.c_closed then
        try write_all c.c_out (line ^ "\n")
        with Unix.Unix_error _ -> c.c_closed <- true)

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)
(* ------------------------------------------------------------------ *)

type sess = {
  ss : Session.t;
  mutable last_used : float;
  jobs : (conn * (Ms2.Api.engine -> Session.t -> string)) Queue.t;
      (** oldest first, each with the connection its answer goes to; a
          worker runs the head and drops it when done *)
}

(* A recent anomaly, kept in a bounded deque for the [health] admin
   method (and [ms2c top]).  [an_dump] is the flight-recorder file the
   anomaly produced, when --flight-dir was given. *)
type anomaly = {
  an_ts_us : float;
  an_kind : string;
  an_trace : string;
  an_detail : string;
  an_dump : string option;
}

let max_recent_anomalies = 32

type state = {
  engines : Ms2.Api.engine array;  (** one per worker (resolved --workers) *)
  base : Ms2.Api.checkpoint;  (** the post-prelude state sessions start from *)
  sessions : (string, sess) Hashtbl.t;
  sched : Mutex.t;
      (** guards [sessions], their [jobs], [runnable] and [stopping] *)
  work : Condition.t;  (** signalled when [runnable] gains a session *)
  runnable : sess Queue.t;  (** sessions with jobs that no worker holds *)
  mutable stopping : bool;
  store : Ms2.Api.shared_cache option;
      (** the expansion-cache store every engine shares; [None] under
          [--no-cache] *)
  in_flight : int Atomic.t;
      (** admitted (queued or running) but unanswered requests *)
  max_pending : int;
  max_sessions : int;
  session_idle_ms : int;
  max_request_bytes : int;
  mutable conns : conn list;
  listen_fd : Unix.file_descr option;
  socket_path : string option;
  pidfile : string option;  (** Some p iff this process wrote it *)
  mutable draining : bool;
  st_mutex : Mutex.t;  (** guards [avg_ms] and [served] *)
  mutable avg_ms : float;  (** EWMA of request service time *)
  started : float;
  mutable served : int;
  cache_file : string option;
      (** durable cache-snapshot path ([--cache-file]); implies [store] *)
  snapshot_idle_ms : int;
  mutable snap_served : int;
      (** [served] at the last save point — [served > snap_served]
          means the store may hold appends not yet synced *)
  mutable snap_saves : int;  (** save points that succeeded *)
  mutable last_active : float;
      (** when the event loop last admitted a request *)
  slow_ms : int;
      (** requests slower than this are anomalies (tail-based sampling:
          only they trigger a flight dump) *)
  flight_dir : string option;
      (** where flight-recorder dumps land; [None] = record but never
          dump *)
  prometheus : string option;
      (** Prometheus text-exposition export path ([--prometheus]) *)
  mutable last_prom : float;  (** last Prometheus export *)
  an_mutex : Mutex.t;  (** guards [anomalies] (written from workers) *)
  anomalies : anomaly Queue.t;  (** most recent last; bounded *)
  flight_seq : int Atomic.t;  (** dump-file sequence numbers *)
}

(* Signal flags: handlers only flip refs; the select loop acts on them. *)
let want_drain = ref false
let want_flight = ref false  (* SIGQUIT: dump the flight rings, serve on *)

let now_ms_since t0 = int_of_float ((Unix.gettimeofday () -. t0) *. 1000.)

(* ------------------------------------------------------------------ *)
(* RED metrics                                                         *)
(* ------------------------------------------------------------------ *)

(* Per-method request/error counters and latency histograms
   ([serve.requests.M], [serve.errors.M], [serve.latency_ms.M]).  The
   registry's find-or-create takes the registry mutex, so the handles
   are memoized here and the hot path pays one table probe + atomic
   increment. *)
let red_mutex = Mutex.create ()

let red_tbl :
    (string, Obs.Metrics.counter * Obs.Metrics.counter * Obs.Metrics.histogram)
    Hashtbl.t =
  Hashtbl.create 8

let red (meth : string) =
  Mutex.lock red_mutex;
  let r =
    match Hashtbl.find_opt red_tbl meth with
    | Some r -> r
    | None ->
        let r =
          ( Obs.Metrics.counter ("serve.requests." ^ meth),
            Obs.Metrics.counter ("serve.errors." ^ meth),
            Obs.Metrics.histogram ("serve.latency_ms." ^ meth) )
        in
        Hashtbl.replace red_tbl meth r;
        r
  in
  Mutex.unlock red_mutex;
  r

let red_observe ~(meth : string) ~(ok : bool) ~(elapsed_ms : float) : unit =
  let requests, errors, latency = red meth in
  Obs.Metrics.incr requests;
  if not ok then Obs.Metrics.incr errors;
  Obs.Metrics.observe latency elapsed_ms

let c_shed = Obs.Metrics.counter "serve.shed"
let c_flight_dumps = Obs.Metrics.counter "serve.flight_dumps"

(* ------------------------------------------------------------------ *)
(* Flight recorder dumps and anomalies                                 *)
(* ------------------------------------------------------------------ *)

(* Write every domain's flight ring to one [ms2-flight-1] file.  Called
   from whichever domain noticed the anomaly; cross-domain ring reads
   race benignly with writers (see {!Obs.Flight.all_events}).  The
   write is atomic, so a scraper or test never sees a torn dump. *)
let flight_dump (st : state) ~(kind : string) ~(trace : string) :
    string option =
  match st.flight_dir with
  | None -> None
  | Some dir ->
      let seq = Atomic.fetch_and_add st.flight_seq 1 in
      let path =
        Filename.concat dir
          (Printf.sprintf "flight-%d-%03d-%s.json" (Unix.getpid ()) seq kind)
      in
      let b = Buffer.create 4096 in
      Buffer.add_string b
        (Printf.sprintf
           "{\"schema\": \"ms2-flight-1\", \"ts_us\": %.0f, \"kind\": \
            \"%s\", \"trace_id\": \"%s\", \"pid\": %d, \"domains\": ["
           (Obs.now_us ()) (Json.escape kind) (Json.escape trace)
           (Unix.getpid ()));
      List.iteri
        (fun i (label, events) ->
          if i > 0 then Buffer.add_string b ", ";
          Buffer.add_string b
            (Printf.sprintf "{\"label\": \"%s\", \"events\": ["
               (Json.escape label));
          List.iteri
            (fun j ev ->
              if j > 0 then Buffer.add_string b ", ";
              Buffer.add_string b (Obs.event_to_json ev))
            events;
          Buffer.add_string b "]}")
        (Obs.Flight.all_events ());
      Buffer.add_string b "]}\n";
      (match Atomic_io.write path (Buffer.contents b) with
      | Ok () ->
          Obs.Metrics.incr c_flight_dumps;
          Some path
      | Error msg ->
          Log.warn ~trace ~event:"flight.dump_failed" (fun () ->
              [ ("path", Obs.Str path); ("error", Obs.Str msg) ]);
          None)

(* Record an anomaly: dump the flight rings (when --flight-dir), log
   it, and remember it for [health].  Every path that detects an
   anomaly — slow request, watchdog fire, fingerprint breach, shed,
   SIGQUIT, worker crash — funnels through here. *)
let note_anomaly (st : state) ~(kind : string) ~(trace : string)
    ~(detail : string) : unit =
  let dump = flight_dump st ~kind ~trace in
  Log.warn ~trace
    ~event:("anomaly." ^ kind)
    (fun () ->
      ("detail", Obs.Str detail)
      ::
      (match dump with
      | Some p -> [ ("flight_dump", Obs.Str p) ]
      | None -> []));
  Mutex.lock st.an_mutex;
  Queue.add
    { an_ts_us = Obs.now_us (); an_kind = kind; an_trace = trace;
      an_detail = detail; an_dump = dump }
    st.anomalies;
  while Queue.length st.anomalies > max_recent_anomalies do
    ignore (Queue.pop st.anomalies)
  done;
  Mutex.unlock st.an_mutex

(* ------------------------------------------------------------------ *)
(* Live metrics publication and Prometheus export                      *)
(* ------------------------------------------------------------------ *)

let session_count (st : state) : int =
  Mutex.protect st.sched (fun () -> Hashtbl.length st.sessions)

(* Fold the daemon's engine totals (summed over every worker engine,
   cache traffic from the shared store) plus daemon-level gauges into
   the metrics registry.  Engine stats fields are plain mutable ints
   owned by the worker domains; reading them from here is a benign data
   race (single-word reads of monotone counters). *)
let publish_all_metrics (st : state) : unit =
  Ms2.Api.publish_metrics ?store:st.store
    (List.map Ms2.Api.stats (Array.to_list st.engines));
  Mutex.lock st.st_mutex;
  let served = st.served and avg = st.avg_ms in
  Mutex.unlock st.st_mutex;
  let set name v = Obs.Metrics.set (Obs.Metrics.counter name) v in
  set "serve.served" served;
  set "serve.in_flight" (Atomic.get st.in_flight);
  set "serve.workers" (Array.length st.engines);
  set "serve.sessions" (session_count st);
  set "serve.draining" (if st.draining then 1 else 0);
  Obs.Metrics.gauge "serve.avg_ms" avg;
  Obs.Metrics.gauge "serve.uptime_ms" (float (now_ms_since st.started))

(* Atomic export for scrapers; a failure is a warning, not a crash. *)
let export_prometheus (st : state) : unit =
  match st.prometheus with
  | None -> ()
  | Some path -> (
      publish_all_metrics st;
      st.last_prom <- Unix.gettimeofday ();
      match Atomic_io.write path (Obs.Metrics.to_prometheus ()) with
      | Ok () -> ()
      | Error msg ->
          Log.warn ~event:"prometheus.export_failed" (fun () ->
              [ ("path", Obs.Str path); ("error", Obs.Str msg) ]))

(* ------------------------------------------------------------------ *)
(* Durable cache snapshots                                             *)
(* ------------------------------------------------------------------ *)

(* A save point: make what the workers appended to [--cache-file]
   durable — or rewrite the file instead, once it holds more than twice
   the store's live entries (the rest were evicted or superseded).
   Runs on the event-loop thread while worker domains keep appending.
   [Ok true] when the file was rewritten.  A failure is a warning,
   never a crash — the daemon serves on, merely colder after the next
   restart — and waits for the next request before it is retried. *)
let save_snapshot (st : state) : (bool, string) result option =
  match (st.cache_file, st.store) with
  | Some path, Some store -> (
      let _, _, _, live, _ = Ms2.Api.shared_cache_stats store in
      let rewrite = Ms2.Engine.log_records store > 2 * live in
      st.snap_served <- st.served;
      match
        if rewrite then Result.map ignore (Ms2.Api.save_shared_cache store path)
        else Ms2.Engine.sync_store store
      with
      | Ok () ->
          st.snap_saves <- st.snap_saves + 1;
          Some (Ok rewrite)
      | Error msg ->
          Printf.eprintf
            "ms2c serve: warning: cache snapshot not saved: %s\n%!" msg;
          Some (Error msg))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

(* The daemon's one session table, under [st.sched] down to [submit].
   A session with a job queued or running is not evicted: that would
   drop the state its later jobs wait to build on. *)
let evict_lru (st : state) : unit =
  let victim = ref None in
  Hashtbl.iter
    (fun id s ->
      match !victim with
      | _ when not (Queue.is_empty s.jobs) -> ()
      | Some (_, t) when s.last_used >= t -> ()
      | _ -> victim := Some (id, s.last_used))
    st.sessions;
  match !victim with
  | Some (id, _) -> Hashtbl.remove st.sessions id
  | None -> ()

(* Evict the sessions idle past [--session-idle-ms]; the time the next
   idle one expires ([infinity] for none). *)
let evict_idle (st : state) (now : float) : float =
  let idle_s = float st.session_idle_ms /. 1000. in
  let dead, next =
    Hashtbl.fold
      (fun id s (dead, next) ->
        if not (Queue.is_empty s.jobs) then (dead, next)
        else if s.last_used < now -. idle_s then (id :: dead, next)
        else (dead, Float.min next (s.last_used +. idle_s)))
      st.sessions ([], infinity)
  in
  List.iter (Hashtbl.remove st.sessions) dead;
  next

let get_session (st : state) (now : float) (id : string) : sess =
  ignore (evict_idle st now);
  match Hashtbl.find_opt st.sessions id with
  | Some s ->
      s.last_used <- now;
      s
  | None ->
      if Hashtbl.length st.sessions >= st.max_sessions then evict_lru st;
      let s =
        { ss = Session.create st.base ~id; last_used = now;
          jobs = Queue.create () }
      in
      Hashtbl.add st.sessions id s;
      s

(* Queue [f] at the tail of session [id]'s FIFO; a session whose FIFO
   was empty becomes runnable.  [f] returns the answer the worker
   writes to [c].  The in-flight count covers the span from here until
   [f] returns, so drain waits for queued jobs and overload shedding
   sees them too. *)
let submit (st : state) (id : string) (c : conn)
    (f : Ms2.Api.engine -> Session.t -> string) : unit =
  ignore (Atomic.fetch_and_add st.in_flight 1);
  Atomic.incr c.c_owed;
  Mutex.lock st.sched;
  let s = get_session st (Unix.gettimeofday ()) id in
  Queue.add (c, f) s.jobs;
  if Queue.length s.jobs = 1 then begin
    Queue.add s st.runnable;
    Condition.signal st.work
  end;
  Mutex.unlock st.sched

(* A worker domain takes the next runnable session, runs its oldest job
   on the worker's engine, and requeues the session if more jobs wait.
   So one session's jobs run one at a time in arrival order, and two
   sessions run on two workers.  The requeue needs no signal: this
   worker takes from [runnable] next. *)
let worker_loop (st : state) (engine : Ms2.Api.engine) () : unit =
  (* each worker domain keeps its own flight ring, so a dump shows what
     every worker was doing when the anomaly hit *)
  Obs.Flight.enable ();
  Mutex.lock st.sched;
  let rec loop () =
    match Queue.take_opt st.runnable with
    | Some s ->
        let c, f = Queue.peek s.jobs in
        Mutex.unlock st.sched;
        (* [f] contains its own failures ([Diag.protect] inside); this
           is a backstop so a worker domain can never die silently *)
        let answer = try Some (f engine s.ss) with _ -> None in
        (* out of flight before the answer is written, so a client that
           reads it and sends again is never shed on account of its own
           answered request; a drain still waits for the write, since it
           joins this domain *)
        ignore (Atomic.fetch_and_add st.in_flight (-1));
        (try Option.iter (send c) answer with _ -> ());
        Atomic.decr c.c_owed;
        Mutex.lock st.sched;
        ignore (Queue.take_opt s.jobs);
        if not (Queue.is_empty s.jobs) then Queue.add s st.runnable;
        loop ()
    | None when st.stopping -> Mutex.unlock st.sched
    | None ->
        Condition.wait st.work st.sched;
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Request processing                                                  *)
(* ------------------------------------------------------------------ *)

let retry_after_ms (st : state) : int =
  let hint = st.avg_ms *. float (Atomic.get st.in_flight + 1) in
  max 10 (min 5000 (int_of_float hint))

let session_json (ss : Session.t) : Json.t =
  let s = Session.stats ss in
  let lookups = s.Session.s_cache_hits + s.Session.s_cache_misses in
  let hit_rate =
    if lookups = 0 then 0.0
    else 100.0 *. float s.Session.s_cache_hits /. float lookups
  in
  Json.Obj
    [ ("id", Json.Str (Session.id ss));
      ("requests", Json.Int s.Session.s_requests);
      ("failures", Json.Int s.Session.s_failures);
      ("cache_hits", Json.Int s.Session.s_cache_hits);
      ("cache_misses", Json.Int s.Session.s_cache_misses);
      ("hit_rate_percent", Json.Float hit_rate) ]

(* Expand (or check) [req] on [engine] as session [ss]; the answer.
   [arrival] is when the request line was framed; [trace] is its trace
   id, minted at intake, echoed in the answer, stamped on log lines,
   and set as the domain's {!Obs} trace context for the whole
   expansion. *)
let run_job (st : state) (req : Proto.request) ~(arrival : float)
    ~(trace : string) (engine : Ms2.Api.engine) (ss : Session.t) : string =
  let id = req.Proto.rq_id in
  let loc = file_start_loc req.Proto.rq_source in
  let t0 = Unix.gettimeofday () in
  (* the domain's trace context covers the whole request: every span
     and instant the engine records below — cache lookups,
     transactions — is stamped with this request's id *)
  Obs.set_trace (Some trace);
  Fun.protect ~finally:(fun () -> Obs.set_trace None) @@ fun () ->
  Obs.with_span ~cat:"serve"
    ~args:(fun () ->
      [ ("method", Obs.Str req.Proto.rq_method);
        ("session", Obs.Str req.Proto.rq_session);
        ("source", Obs.Str req.Proto.rq_source) ])
    "request"
  @@ fun () ->
  (* deadline accounting is from arrival: queue wait counts against the
     client's budget, as it should — the client is waiting either way *)
  let remaining_ms =
    match req.Proto.rq_deadline_ms with
    | None -> None
    | Some d -> Some (d - int_of_float ((t0 -. arrival) *. 1000.))
  in
  match remaining_ms with
  | Some r when r <= 0 ->
      red_observe ~meth:req.Proto.rq_method ~ok:false ~elapsed_ms:0.;
      Log.info ~trace ~event:"request" (fun () ->
          [ ("method", Obs.Str req.Proto.rq_method);
            ("session", Obs.Str req.Proto.rq_session);
            ("ok", Obs.Bool false);
            ("error", Obs.Str "deadline_expired") ]);
      Proto.error_response ~trace_id:trace ~id ~kind:Proto.Deadline_expired
        ~message:
          (Printf.sprintf
             "deadline of %d ms was already spent before expansion started"
             (Option.value req.Proto.rq_deadline_ms ~default:0))
        ()
  | _ -> (
      let result =
        match
          Diag.protect (fun () ->
              Failpoint.hit ~loc "serve/expand";
              Session.expand ss engine ?deadline_ms:remaining_ms
                ~source:req.Proto.rq_source req.Proto.rq_text)
        with
        | Ok r -> r
        | Result.Error d ->
            (* the expand failpoint fired before the session ran *)
            Result.Error (d, Session.{ d_cache_hits = 0; d_cache_misses = 0;
                                       d_invocations = 0; d_fuel = 0 })
      in
      let elapsed = (Unix.gettimeofday () -. t0) *. 1000. in
      Mutex.lock st.st_mutex;
      st.avg_ms <- (0.8 *. st.avg_ms) +. (0.2 *. elapsed);
      st.served <- st.served + 1;
      Mutex.unlock st.st_mutex;
      let ok = Result.is_ok result in
      red_observe ~meth:req.Proto.rq_method ~ok ~elapsed_ms:elapsed;
      Log.info ~trace ~event:"request" (fun () ->
          [ ("method", Obs.Str req.Proto.rq_method);
            ("session", Obs.Str req.Proto.rq_session);
            ("source", Obs.Str req.Proto.rq_source);
            ("elapsed_ms", Obs.Float elapsed);
            ("ok", Obs.Bool ok) ]);
      (* anomaly detection — after the request span closed, so the
         flight dump's newest event is the slow request itself *)
      if elapsed > float st.slow_ms then
        note_anomaly st ~kind:"slow_request" ~trace
          ~detail:
            (Printf.sprintf "%s of %s took %.0f ms (budget %d ms)"
               req.Proto.rq_method req.Proto.rq_source elapsed st.slow_ms);
      (match result with
      | Result.Error (d, _) when d.Diag.code = Diag.code_timeout ->
          note_anomaly st ~kind:"watchdog" ~trace
            ~detail:
              (Printf.sprintf "watchdog fired expanding %s"
                 req.Proto.rq_source)
      | Result.Error _ when not (Session.isolated ss) ->
          (* the rollback's fingerprint verification failed: session
             state may have leaked across the checkpoint boundary *)
          note_anomaly st ~kind:"fingerprint_breach" ~trace
            ~detail:
              (Printf.sprintf "session %s lost isolation after a failure"
                 req.Proto.rq_session)
      | _ -> ());
      match result with
      | Ok (rendered, d) -> (
          let fields =
            (if req.Proto.rq_method = "expand" then
               [ ("output", Json.Str rendered) ]
             else [])
            @ [ ("elapsed_ms", Json.Float elapsed);
                ("request",
                 Json.Obj
                   [ ("cache_hits", Json.Int d.Session.d_cache_hits);
                     ("cache_misses", Json.Int d.Session.d_cache_misses);
                     ("invocations", Json.Int d.Session.d_invocations);
                     ("fuel", Json.Int d.Session.d_fuel) ]);
                ("session", session_json ss) ]
          in
          match
            Diag.protect (fun () ->
                Failpoint.hit ~loc "serve/respond";
                Proto.ok_response ~trace_id:trace ~id fields)
          with
          | Ok line -> line
          | Result.Error d ->
              Proto.error_response ~trace_id:trace ~id
                ~kind:Proto.Respond_error
                ~diagnostics:[ Diag.to_json d ]
                ~message:"response write-out failed" ())
      | Result.Error (d, _) ->
          Proto.error_response ~trace_id:trace ~id ~kind:Proto.Expand_error
            ~diagnostics:[ Diag.to_json d ]
            ~message:"expansion failed; session rolled back" ())

(* The serve/* failpoints model the lifecycle of a normal
   expansion-carrying request.  Admin methods (ping/stats/failpoints/
   reset/shutdown/bye) are exempt so a chaos run can always disarm and
   probe liveness. *)
let admit (st : state) (c : conn) (req : Proto.request) (arrival : float)
    (trace : string) : unit =
  let loc = file_start_loc req.Proto.rq_source in
  match
    Diag.protect (fun () ->
        Failpoint.hit ~loc "serve/accept";
        Failpoint.hit ~loc "serve/decode")
  with
  | Result.Error d ->
      send c
        (Proto.error_response ~trace_id:trace ~id:req.Proto.rq_id
           ~kind:Proto.Rejected
           ~diagnostics:[ Diag.to_json d ]
           ~message:"request rejected at admission" ())
  | Ok () ->
      st.last_active <- Unix.gettimeofday ();
      submit st req.Proto.rq_session c (run_job st req ~arrival ~trace)

let anomaly_json (a : anomaly) : Json.t =
  Json.Obj
    (( "ts_us", Json.Float a.an_ts_us )
    :: ("kind", Json.Str a.an_kind)
    :: ("trace_id", Json.Str a.an_trace)
    :: ("detail", Json.Str a.an_detail)
    ::
    (match a.an_dump with
    | Some p -> [ ("flight_dump", Json.Str p) ]
    | None -> []))

let handle_admin (st : state) (c : conn) (req : Proto.request)
    (trace : string) : unit =
  let id = req.Proto.rq_id in
  match req.Proto.rq_method with
  | "ping" ->
      send c
        (Proto.ok_response ~trace_id:trace ~id
           [ ("pid", Json.Int (Unix.getpid ())) ])
  | "bye" ->
      send c (Proto.ok_response ~trace_id:trace ~id []);
      c.c_closed <- true
  | "shutdown" ->
      send c
        (Proto.ok_response ~trace_id:trace ~id
           [ ("draining", Json.Bool true) ]);
      st.draining <- true
  | "health" ->
      (* liveness view: answered by the event loop, which runs no
         expansion, so it never queues behind a session and works
         mid-drain and under load.  [served]/[avg_ms] and the session
         count are read under their mutexes; the rest are atomics or
         event-loop-owned. *)
      Mutex.lock st.st_mutex;
      let served = st.served and avg = st.avg_ms in
      Mutex.unlock st.st_mutex;
      let sessions = session_count st in
      Mutex.lock st.an_mutex;
      let recent =
        Queue.fold (fun acc a -> anomaly_json a :: acc) [] st.anomalies
      in
      Mutex.unlock st.an_mutex;
      send c
        (Proto.ok_response ~trace_id:trace ~id
           [ ("pid", Json.Int (Unix.getpid ()));
             ("uptime_ms", Json.Int (now_ms_since st.started));
             ("draining", Json.Bool st.draining);
             ("workers", Json.Int (Array.length st.engines));
             ("in_flight", Json.Int (Atomic.get st.in_flight));
             ("served", Json.Int served);
             ("sessions", Json.Int sessions);
             ("avg_ms", Json.Float avg);
             ("slow_ms", Json.Int st.slow_ms);
             ("flight_dir",
              match st.flight_dir with
              | Some d -> Json.Str d
              | None -> Json.Null);
             (* newest first, as [ms2c top] shows them *)
             ("anomalies", Json.List recent) ])
  | "metrics" ->
      (* the full registry — RED counters/histograms the serve path
         maintains, plus every worker engine's [engine.*]/[cache.*]
         published on demand.  Re-serialized through the
         parser so the ms2-metrics-1 object embeds on one line. *)
      publish_all_metrics st;
      (match Json.parse (Obs.Metrics.to_json ()) with
      | Ok m ->
          send c (Proto.ok_response ~trace_id:trace ~id [ ("metrics", m) ])
      | Result.Error msg ->
          send c
            (Proto.error_response ~trace_id:trace ~id ~kind:Proto.Internal
               ~message:(Printf.sprintf "metrics rendering failed: %s" msg)
               ()))
  | "snapshot" -> (
      (* an on-demand save point of the shared expansion cache *)
      match save_snapshot st with
      | Some (Ok rewritten) ->
          let store = Option.get st.store in
          let _, _, _, live, _ = Ms2.Api.shared_cache_stats store in
          send c
            (Proto.ok_response ~trace_id:trace ~id
               [ ("path", Json.Str (Option.get st.cache_file));
                 ("entries", Json.Int live);
                 ("records", Json.Int (Ms2.Engine.log_records store));
                 ("rewritten", Json.Bool rewritten) ])
      | Some (Error msg) ->
          send c
            (Proto.error_response ~trace_id:trace ~id ~kind:Proto.Internal
               ~message:(Printf.sprintf "snapshot not saved: %s" msg)
               ())
      | None ->
          send c
            (Proto.error_response ~trace_id:trace ~id ~kind:Proto.Malformed
               ~message:
                 "no snapshot path: start the daemon with --cache-file"
               ()))
  | "failpoints" -> (
      match Failpoint.arm_spec req.Proto.rq_spec with
      | Ok () ->
          send c
            (Proto.ok_response ~trace_id:trace ~id
               [ ("armed", Json.Str req.Proto.rq_spec) ])
      | Result.Error msg ->
          send c
            (Proto.error_response ~trace_id:trace ~id ~kind:Proto.Malformed
               ~message:(Printf.sprintf "bad failpoint spec: %s" msg)
               ()))
  | "reset" ->
      (* a job in the session's FIFO, so the reset serializes with the
         session's in-flight expansions *)
      submit st req.Proto.rq_session c (fun _ ss ->
          Session.reset ss;
          Proto.ok_response ~trace_id:trace ~id
            [ ("session", session_json ss) ])
  | "stats" ->
      let served = Mutex.protect st.st_mutex (fun () -> st.served) in
      let draining = st.draining and in_flight = Atomic.get st.in_flight in
      submit st req.Proto.rq_session c (fun _ ss ->
          (* daemon-wide totals, the same numbers [metrics] reports *)
          publish_all_metrics st;
          let es = Ms2.Api.published_stats () in
          Proto.ok_response ~trace_id:trace ~id
            [ ("pid", Json.Int (Unix.getpid ()));
              ("uptime_ms", Json.Int (now_ms_since st.started));
              ("draining", Json.Bool draining);
              ("served", Json.Int served);
              ("pending", Json.Int in_flight);
              ("max_pending", Json.Int st.max_pending);
              ("workers", Json.Int (Array.length st.engines));
              ("sessions", Json.Int (session_count st));
              ("fingerprint", Json.Str (Session.fingerprint ss));
              ("isolated", Json.Bool (Session.isolated ss));
              ("cache_file",
               match st.cache_file with
               | Some p -> Json.Str p
               | None -> Json.Null);
              ("snapshots_saved", Json.Int st.snap_saves);
              ("session", session_json ss);
              ("engine",
               Json.Obj
                 [ ("cache_hits", Json.Int es.Ms2.Api.cache_hits);
                   ("cache_misses", Json.Int es.Ms2.Api.cache_misses);
                   ("cache_evictions", Json.Int es.Ms2.Api.cache_evictions);
                   ("invocations_expanded",
                    Json.Int es.Ms2.Api.invocations_expanded);
                   ("fuel_consumed", Json.Int es.Ms2.Api.fuel_consumed) ]) ])
  | m ->
      send c
        (Proto.error_response ~trace_id:trace ~id
           ~kind:Proto.Unknown_method
           ~message:(Printf.sprintf "unknown method %S" m)
           ())

let intake (st : state) (c : conn) (line : string) : unit =
  let arrival = Unix.gettimeofday () in
  (* the trace id is minted here, at accept: even a request that never
     makes it past JSON parsing gets an id its error response and log
     line share *)
  let trace = Log.new_trace_id () in
  match Json.parse line with
  | Result.Error msg ->
      Log.warn ~trace ~event:"request.malformed" (fun () ->
          [ ("error", Obs.Str msg) ]);
      send c
        (Proto.error_response ~trace_id:trace ~id:Json.Null
           ~kind:Proto.Malformed
           ~message:(Printf.sprintf "request is not valid JSON: %s" msg)
           ())
  | Ok j -> (
      match Proto.decode_request j with
      | Result.Error msg ->
          Log.warn ~trace ~event:"request.malformed" (fun () ->
              [ ("error", Obs.Str msg) ]);
          send c
            (Proto.error_response ~trace_id:trace ~id:(Proto.request_id j)
               ~kind:Proto.Malformed ~message:msg ())
      | Ok req -> (
          match req.Proto.rq_method with
          | "expand" | "check" ->
              if st.draining then begin
                Log.info ~trace ~event:"request.draining" (fun () ->
                    [ ("session", Obs.Str req.Proto.rq_session) ]);
                send c
                  (Proto.error_response ~trace_id:trace
                     ~id:req.Proto.rq_id ~kind:Proto.Draining
                     ~retry_after_ms:(retry_after_ms st)
                     ~message:"daemon is draining; retry elsewhere or later"
                     ())
              end
              else if Atomic.get st.in_flight >= st.max_pending then begin
                Obs.Metrics.incr c_shed;
                note_anomaly st ~kind:"shed" ~trace
                  ~detail:
                    (Printf.sprintf
                       "%d requests in flight; %s of session %s shed"
                       st.max_pending req.Proto.rq_method
                       req.Proto.rq_session);
                send c
                  (Proto.error_response ~trace_id:trace
                     ~id:req.Proto.rq_id ~kind:Proto.Overloaded
                     ~retry_after_ms:(retry_after_ms st)
                     ~message:
                       (Printf.sprintf
                          "%d requests are in flight (--max-pending)"
                          st.max_pending)
                     ())
              end
              else admit st c req arrival trace
          | _ -> handle_admin st c req trace))

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

(* Split complete lines out of the connection buffer.  A line longer
   than the cap is answered with [oversized] exactly once and skipped
   without ever being held whole: while discarding, incoming bytes are
   dropped until the newline that ends the monster request. *)
let feed (st : state) (c : conn) (chunk : string) : unit =
  let chunk =
    if not c.c_discarding then chunk
    else
      match String.index_opt chunk '\n' with
      | None -> ""
      | Some i ->
          c.c_discarding <- false;
          String.sub chunk (i + 1) (String.length chunk - i - 1)
  in
  Buffer.add_string c.c_buf chunk;
  let continue = ref true in
  while !continue do
    let s = Buffer.contents c.c_buf in
    match String.index_opt s '\n' with
    | None ->
        if String.length s > st.max_request_bytes then begin
          Buffer.clear c.c_buf;
          c.c_discarding <- true;
          let trace = Log.new_trace_id () in
          Log.warn ~trace ~event:"request.oversized" (fun () ->
              [ ("limit_bytes", Obs.Int st.max_request_bytes) ]);
          send c
            (Proto.error_response ~trace_id:trace ~id:Json.Null
               ~kind:Proto.Oversized
               ~message:
                 (Printf.sprintf "request line exceeds %d bytes"
                    st.max_request_bytes)
               ())
        end;
        continue := false
    | Some i ->
        let line = String.sub s 0 i in
        Buffer.clear c.c_buf;
        Buffer.add_substring c.c_buf s (i + 1) (String.length s - i - 1);
        if String.length line > st.max_request_bytes then begin
          let trace = Log.new_trace_id () in
          Log.warn ~trace ~event:"request.oversized" (fun () ->
              [ ("limit_bytes", Obs.Int st.max_request_bytes) ]);
          send c
            (Proto.error_response ~trace_id:trace ~id:Json.Null
               ~kind:Proto.Oversized
               ~message:
                 (Printf.sprintf "request line exceeds %d bytes"
                    st.max_request_bytes)
               ())
        end
        else if String.trim line <> "" then intake st c line
  done

let handle_readable (st : state) (c : conn) : unit =
  let buf = Bytes.create 65536 in
  match Unix.read c.c_in buf 0 (Bytes.length buf) with
  | 0 -> c.c_eof <- true
  | n -> feed st c (Bytes.sub_string buf 0 n)
  | exception Unix.Unix_error (EINTR, _, _) -> ()
  | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) ->
      c.c_eof <- true;
      c.c_closed <- true

(* ------------------------------------------------------------------ *)
(* Socket / pidfile lifecycle                                          *)
(* ------------------------------------------------------------------ *)

let fatal fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("ms2c serve: " ^ msg);
      exit exit_fatal)
    fmt

(* Claim the socket path atomically: bind to a temporary name next to
   it, then rename into place.  A path someone is still listening on is
   an error; a stale one (daemon crashed without cleanup) is detected by
   a probe connect and reclaimed. *)
let claim_socket (path : string) : Unix.file_descr =
  (if Sys.file_exists path then
     let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     match Unix.connect probe (Unix.ADDR_UNIX path) with
     | () ->
         Unix.close probe;
         fatal "%s: another daemon is already listening" path
     | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) ->
         Unix.close probe;
         (try Unix.unlink path with Unix.Unix_error _ -> ())
     | exception e ->
         Unix.close probe;
         raise e);
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  (try Unix.unlink tmp with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX tmp);
     Unix.listen fd 64
   with Unix.Unix_error (e, _, _) ->
     fatal "%s: cannot listen: %s" path (Unix.error_message e));
  (try Unix.rename tmp path
   with Sys_error msg | Unix.Unix_error (_, _, msg) ->
     fatal "%s: cannot claim socket: %s" path msg);
  fd

(* The pidfile doubles as its own lock: the daemon takes an fcntl
   write lock on it at startup and holds it for its whole lifetime, so
   two daemons racing over the same stale file serialize through the
   kernel — exactly one F_TLOCK wins and the loser refuses to start.
   (A read-pid-then-unlink reclaim would be check-then-act: both
   racers could observe the same dead pid, both reclaim, and both
   start — in stdio mode there is no socket claim to break the tie.)
   A file whose lock is free but whose recorded pid is alive still
   refuses: liveness recorded by writers that hold no lock (an older
   build, an operator) is honoured; a dead or garbage pid is stale and
   is reclaimed by truncating in place under the lock.  This guards
   the stdio mode too, which has no socket probe.  The descriptor is
   parked in [pidfile_lock_fd], never closed, so the lock lives
   exactly as long as the process (the kernel drops it on any exit,
   SIGKILL included); fcntl locks do not survive fork, so a
   --supervise worker cannot shadow its supervisor's claim. *)
let pidfile_lock_fd : Unix.file_descr option ref = ref None

let claim_pidfile (path : string) : unit =
  let fd =
    match Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 with
    | fd -> fd
    | exception Unix.Unix_error (e, _, _) ->
        fatal "%s: cannot open pidfile: %s" path (Unix.error_message e)
  in
  (* read through the locked descriptor: opening the path again in
     this process would drop the fcntl lock when that channel closes *)
  let recorded_pid () =
    let buf = Bytes.create 64 in
    match
      ignore (Unix.lseek fd 0 Unix.SEEK_SET);
      Unix.read fd buf 0 (Bytes.length buf)
    with
    | n -> int_of_string_opt (String.trim (Bytes.sub_string buf 0 n))
    | exception Unix.Unix_error _ -> None
  in
  (match Unix.lockf fd Unix.F_TLOCK 0 with
  | () -> ()
  | exception Unix.Unix_error ((EAGAIN | EACCES), _, _) -> (
      match recorded_pid () with
      | Some pid -> fatal "%s: daemon already running (pid %d)" path pid
      | None -> fatal "%s: daemon already running" path)
  | exception Unix.Unix_error (e, _, _) ->
      fatal "%s: cannot lock pidfile: %s" path (Unix.error_message e));
  (match recorded_pid () with
  | Some pid when pid <> Unix.getpid () -> (
      match Unix.kill pid 0 with
      | () -> fatal "%s: daemon already running (pid %d)" path pid
      | exception Unix.Unix_error (ESRCH, _, _) ->
          Printf.eprintf
            "ms2c serve: reclaiming stale pidfile %s (pid %d is dead)\n%!"
            path pid
      | exception Unix.Unix_error (EPERM, _, _) ->
          fatal "%s: daemon already running (pid %d, other user)" path pid
      | exception Unix.Unix_error _ -> ())
  | Some _ | None -> ());
  (try
     Unix.ftruncate fd 0;
     ignore (Unix.lseek fd 0 Unix.SEEK_SET);
     let line = string_of_int (Unix.getpid ()) ^ "\n" in
     if Unix.write_substring fd line 0 (String.length line)
        <> String.length line
     then failwith "short write"
   with
  | Unix.Unix_error (e, _, _) ->
      fatal "%s: cannot write pidfile: %s" path (Unix.error_message e)
  | Failure msg -> fatal "%s: cannot write pidfile: %s" path msg);
  pidfile_lock_fd := Some fd

let cleanup (st : state) : unit =
  (match st.listen_fd with Some fd -> (try Unix.close fd with _ -> ()) | None -> ());
  (match st.socket_path with
  | Some p -> ( try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
  | None -> ());
  match st.pidfile with
  | Some p -> ( try Sys.remove p with Sys_error _ -> ())
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Event loop                                                          *)
(* ------------------------------------------------------------------ *)

let conn_counter = ref 0

let accept_conn (st : state) (listen_fd : Unix.file_descr) : unit =
  match Unix.accept listen_fd with
  | fd, _ ->
      incr conn_counter;
      st.conns <-
        { c_id = !conn_counter;
          c_in = fd;
          c_out = fd;
          c_buf = Buffer.create 256;
          c_discarding = false;
          c_eof = false;
          c_closed = false;
          c_owed = Atomic.make 0;
          c_stdio = false }
        :: st.conns
  | exception Unix.Unix_error ((EINTR | EAGAIN | EWOULDBLOCK), _, _) -> ()

let close_conn (c : conn) : unit =
  if not c.c_stdio then begin
    (try Unix.close c.c_in with Unix.Unix_error _ -> ());
    if c.c_out != c.c_in then
      try Unix.close c.c_out with Unix.Unix_error _ -> ()
  end

(* While jobs are in flight, or a dead connection waits for the answers
   it is owed, the loop polls: a worker finishing one may free a session
   to expire, a connection to close, or end a drain. *)
let busy_poll_s = 0.05

let serve_loop (st : state) : unit =
  let stdio_done = ref false in
  let running = ref true in
  while !running do
    if !want_drain then st.draining <- true;
    if !want_flight then begin
      (* SIGQUIT: dump every domain's flight ring and keep serving —
         the operator's "what are you doing right now?" probe *)
      want_flight := false;
      note_anomaly st ~kind:"sigquit" ~trace:(Log.new_trace_id ())
        ~detail:"operator requested a flight dump (SIGQUIT)"
    end;
    (* finished draining: nothing queued or dispatched, every answer
       written *)
    if st.draining && Atomic.get st.in_flight = 0 then running := false
    else begin
      let now = Unix.gettimeofday () in
      if st.prometheus <> None && now -. st.last_prom >= 1.0 then
        export_prometheus st;
      let next_expiry = Mutex.protect st.sched (fun () -> evict_idle st now) in
      (* idle save point: appends may be unsynced and no request has
         been dispatched for a while — make the warmth durable now, so
         even a later power loss restarts warm *)
      let snapshot_due =
        if st.cache_file <> None && st.served > st.snap_served then
          st.last_active +. (float st.snapshot_idle_ms /. 1000.)
        else infinity
      in
      if Atomic.get st.in_flight = 0 && now >= snapshot_due then
        ignore (save_snapshot st);
      let read_fds =
        (match st.listen_fd with
        | Some fd when not st.draining -> [ fd ]
        | _ -> [])
        @ List.filter_map
            (fun c ->
              if c.c_closed || c.c_eof then None else Some c.c_in)
            st.conns
      in
      if read_fds = [] && !stdio_done && Atomic.get st.in_flight = 0 then
        running := false
      else begin
        (* sleep until the nearest deadline, a second at most *)
        let timeout =
          if Atomic.get st.in_flight > 0
             || List.exists (fun c -> c.c_closed || c.c_eof) st.conns
          then busy_poll_s
          else
            let prometheus_due =
              if st.prometheus <> None then st.last_prom +. 1.0 else infinity
            in
            Float.max 0.
              (Float.min 1.0
                 (Float.min next_expiry (Float.min snapshot_due prometheus_due)
                 -. now))
        in
        (match Unix.select read_fds [] [] timeout with
        | exception Unix.Unix_error (EINTR, _, _) -> ()
        | ready, _, _ ->
            (match st.listen_fd with
            | Some fd when List.memq fd ready -> accept_conn st fd
            | _ -> ());
            List.iter
              (fun c ->
                if (not c.c_closed) && List.memq c.c_in ready then
                  handle_readable st c)
              st.conns);
        (* reap connections whose peer is gone, once every answer
           they are owed is written: closing earlier would lose those
           answers, or hand them to the next client given the same fd.
           [feed] already ran every complete line, so at EOF the buffer
           can only hold a truncated final request, which can never
           complete — drop it *)
        let dead, alive =
          List.partition
            (fun c -> (c.c_closed || c.c_eof) && Atomic.get c.c_owed = 0)
            st.conns
        in
        List.iter close_conn dead;
        st.conns <- alive;
        (* stdio mode drains on stdin EOF, once its jobs are answered *)
        if List.for_all (fun c -> not c.c_stdio) alive
           && st.listen_fd = None
        then stdio_done := true
      end
    end
  done

(* Spawn one worker domain per engine, run the loop, stop them (flag +
   broadcast + join) once it drains.  Then every answer is out and the
   store is at rest: the last save point runs (if a request came since
   the previous one) and the Prometheus file is written one last time,
   so scrapers (and tests) see the final counters, before the socket is
   released. *)
let serve_with_workers (st : state) : unit =
  let domains =
    Array.map (fun e -> Domain.spawn (worker_loop st e)) st.engines
  in
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect st.sched (fun () ->
          st.stopping <- true;
          Condition.broadcast st.work);
      Array.iter Domain.join domains)
    (fun () -> serve_loop st);
  if st.served > st.snap_served then ignore (save_snapshot st);
  export_prometheus st;
  cleanup st

(* ------------------------------------------------------------------ *)
(* Startup                                                             *)
(* ------------------------------------------------------------------ *)

let load_prelude_file (engine : Ms2.Api.engine) (path : string) : unit =
  match read_file path with
  | exception Sys_error msg -> fatal "cannot read prelude: %s" msg
  | text -> (
      match
        Diag.protect (fun () ->
            ignore (Ms2.Engine.expand_source engine ~source:path text))
      with
      | Ok () -> ()
      | Result.Error d -> fatal "prelude failed: %s" (Diag.to_string d))

let run_server ~limits ~hygienic ~prelude ~prelude_file ~cache ~workers
    ~socket ~pidfile ~write_pidfile ~max_pending
    ~max_sessions ~session_idle_ms ~max_request_bytes ~cache_file
    ~snapshot_idle_ms ~slow_ms ~flight_dir ~prometheus () : unit =
  (* a disconnected client must never kill the daemon with SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm
    (Sys.Signal_handle (fun _ -> want_drain := true));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> want_drain := true));
  Sys.set_signal Sys.sigquit
    (Sys.Signal_handle (fun _ -> want_flight := true));
  (* the flight ring is always on — its cost is bounded (one ring slot
     store per span) and it is the only record of "what was happening"
     when an anomaly fires.  This ring serves the event-loop domain;
     each worker domain enables its own in [worker_loop]. *)
  Obs.Flight.enable ();
  let workers = resolve_jobs workers in
  let cache_file = if cache then cache_file else None in
  (* one store across the worker engines, so warm fragments replay
     whichever domain they land on; it is also the --cache-file's
     save/load surface and what the metrics read *)
  let store =
    if cache then Some (Ms2.Api.create_shared_cache ()) else None
  in
  (* restore the snapshot BEFORE any engine exists: the prelude
     expansions run through the store on the way up, so a warm file
     turns them (and everything downstream) into replays *)
  (match (cache_file, store) with
  | Some path, Some s ->
      ignore (Atomic_io.sweep_stale (Filename.dirname path));
      let l = Ms2.Api.load_shared_cache s path in
      (match l.Ms2.Engine.ld_error with
      | Some msg ->
          Printf.eprintf
            "ms2c serve: warning: cache snapshot ignored (cold start): \
             %s\n%!" msg
      | None ->
          if l.Ms2.Engine.ld_entries > 0 then
            Printf.eprintf
              "ms2c serve: cache snapshot: loaded %d entries (%d \
               dropped)\n%!" l.Ms2.Engine.ld_entries
              l.Ms2.Engine.ld_dropped)
  | _ -> ());
  let create_engine ~prelude =
    Ms2.Api.create_engine ~limits ~hygienic ~prelude ~cache
      ?cache_store:store ()
  in
  (* the prelude loads once, on the first engine, and its state is the
     base.  The other engines need none: every request first rolls its
     engine onto its session's checkpoint, which starts at the base. *)
  let first = create_engine ~prelude in
  Option.iter (load_prelude_file first) prelude_file;
  let base = Ms2.Api.checkpoint first in
  let engines =
    Array.init workers (fun i ->
        if i = 0 then first else create_engine ~prelude:false)
  in
  let listen_fd = Option.map claim_socket socket in
  (match (pidfile, write_pidfile) with
  | Some p, true -> claim_pidfile p
  | _ -> ());
  let st =
    {
      engines;
      base;
      sessions = Hashtbl.create 16;
      sched = Mutex.create ();
      work = Condition.create ();
      runnable = Queue.create ();
      stopping = false;
      store;
      in_flight = Atomic.make 0;
      max_pending;
      max_sessions;
      session_idle_ms;
      max_request_bytes;
      conns =
        (match listen_fd with
        | Some _ -> []
        | None ->
            [ { c_id = 0;
                c_in = Unix.stdin;
                c_out = Unix.stdout;
                c_buf = Buffer.create 256;
                c_discarding = false;
                c_eof = false;
                c_closed = false;
                c_owed = Atomic.make 0;
                c_stdio = true } ]);
      listen_fd;
      socket_path = socket;
      pidfile = (if write_pidfile then pidfile else None);
      draining = false;
      st_mutex = Mutex.create ();
      avg_ms = 50.0;
      started = Unix.gettimeofday ();
      served = 0;
      cache_file;
      snapshot_idle_ms;
      snap_served = 0;
      snap_saves = 0;
      last_active = Unix.gettimeofday ();
      slow_ms;
      flight_dir;
      prometheus;
      last_prom = 0.;
      an_mutex = Mutex.create ();
      anomalies = Queue.create ();
      flight_seq = Atomic.make 0;
    }
  in
  Log.info ~event:"serve.start" (fun () ->
      [ ("pid", Obs.Int (Unix.getpid ()));
        ("workers", Obs.Int (Array.length st.engines));
        ("slow_ms", Obs.Int slow_ms) ]);
  serve_with_workers st

let signal_name s =
  if s = Sys.sigkill then "SIGKILL (possibly the out-of-memory killer)"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigbus then "SIGBUS"
  else if s = Sys.sigill then "SIGILL"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigint then "SIGINT"
  else Printf.sprintf "signal %d" s

(* The supervisor: fork the worker, wait, restart on crash with
   capped-backoff pacing.  The worker re-claims the socket and replays
   the prelude on the way up, so a restarted daemon presents the same
   macro definitions.  A clean worker exit (drain) ends supervision;
   SIGTERM/SIGINT are forwarded to the worker so drains propagate. *)
(* A crashed worker's flight rings died with it — but the crash itself
   is an anomaly worth a durable artifact, so the supervisor writes a
   marker dump (empty [domains]) carrying the exit status.  The next
   incident review finds the crash in the same place as every other
   anomaly. *)
let crash_marker ~(flight_dir : string option) ~(pid : int)
    ~(detail : string) : unit =
  let trace = Log.new_trace_id () in
  Log.error ~trace ~event:"anomaly.worker_crash" (fun () ->
      [ ("worker_pid", Obs.Int pid); ("detail", Obs.Str detail) ]);
  match flight_dir with
  | None -> ()
  | Some dir ->
      let path =
        Filename.concat dir
          (Printf.sprintf "flight-%d-worker-crash.json" pid)
      in
      let body =
        Printf.sprintf
          "{\"schema\": \"ms2-flight-1\", \"ts_us\": %.0f, \"kind\": \
           \"worker_crash\", \"trace_id\": \"%s\", \"pid\": %d, \
           \"detail\": \"%s\", \"domains\": []}\n"
          (Obs.now_us ()) (Json.escape trace) pid (Json.escape detail)
      in
      ignore (Atomic_io.write path body)

let supervise ~pidfile ~flight_dir (spawn_worker : unit -> unit) : unit =
  let child = ref None in
  let stopping = ref false in
  let forward signal =
    Sys.Signal_handle
      (fun _ ->
        stopping := true;
        match !child with
        | Some pid -> ( try Unix.kill pid signal with Unix.Unix_error _ -> ())
        | None -> ())
  in
  Sys.set_signal Sys.sigterm (forward Sys.sigterm);
  Sys.set_signal Sys.sigint (forward Sys.sigint);
  (match pidfile with Some p -> claim_pidfile p | None -> ());
  let backoff = Backoff.create ~base_ms:200 ~cap_ms:5000 () in
  let cleanup_pidfile () =
    match pidfile with
    | Some p -> ( try Sys.remove p with Sys_error _ -> ())
    | None -> ()
  in
  let rec wait pid =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (EINTR, _, _) -> wait pid
  in
  let rec loop () =
    flush stdout;
    flush stderr;
    (match Unix.fork () with
    | 0 ->
        (* the worker must not inherit the forwarding handlers *)
        Sys.set_signal Sys.sigterm Sys.Signal_default;
        Sys.set_signal Sys.sigint Sys.Signal_default;
        spawn_worker ();
        exit 0
    | pid -> (
        child := Some pid;
        let status = wait pid in
        child := None;
        match status with
        | Unix.WEXITED 0 ->
            cleanup_pidfile ();
            exit 0
        | status ->
            if !stopping then begin
              cleanup_pidfile ();
              exit 0
            end;
            let ms = Backoff.next_ms backoff in
            let how =
              match status with
              | Unix.WEXITED c -> Printf.sprintf "exited with code %d" c
              | Unix.WSIGNALED s ->
                  Printf.sprintf "was killed by %s" (signal_name s)
              | Unix.WSTOPPED s ->
                  Printf.sprintf "stopped by %s" (signal_name s)
            in
            crash_marker ~flight_dir ~pid ~detail:how;
            Printf.eprintf
              "ms2c serve: worker %d %s; restarting in %d ms (attempt %d)\n%!"
              pid how ms (Backoff.attempts backoff);
            Unix.sleepf (float ms /. 1000.);
            loop ()))
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
       ~doc:"Listen on a Unix-domain socket at $(docv) instead of serving \
             stdin/stdout.  The path is claimed atomically; a stale \
             socket left by a crash is detected and reclaimed.")

let pidfile_arg =
  Arg.(value & opt (some string) None & info [ "pidfile" ] ~docv:"PATH"
       ~doc:"Write the daemon's PID to $(docv) (atomically); removed on \
             clean exit.  Under --supervise this is the supervisor's \
             PID — the worker's is in every $(b,ping)/$(b,stats) \
             response.")

let supervise_arg =
  Arg.(value & flag & info [ "supervise" ]
       ~doc:"Supervisor mode: keep a parent in front of the serving \
             worker, restarting it (with capped exponential backoff) if \
             it crashes and replaying the macro prelude so the restarted \
             daemon serves the same definitions.  Requires --socket \
             (clients reconnect across restarts; stdio cannot).")

let max_pending_arg =
  Arg.(value & opt pos_int 64 & info [ "max-pending" ] ~docv:"N"
       ~doc:"Bound on admitted but unanswered requests (queued or \
             running, at any $(b,--workers)); beyond it new expand/check \
             requests are shed with a retryable $(b,overloaded) error \
             carrying a $(b,retry_after_ms) hint.")

let max_sessions_arg =
  Arg.(value & opt pos_int 64 & info [ "max-sessions" ] ~docv:"N"
       ~doc:"Bound on live sessions across the whole daemon, at any \
             $(b,--workers); creating one beyond it evicts the \
             least-recently-used idle session (its macro state is \
             dropped).")

let session_idle_ms_arg =
  Arg.(value & opt pos_int 300_000 & info [ "session-idle-ms" ] ~docv:"MS"
       ~doc:"Evict a session untouched for $(docv) milliseconds.")

let max_request_bytes_arg =
  Arg.(value & opt pos_int Proto.default_max_request_bytes
       & info [ "max-request-bytes" ] ~docv:"N"
       ~doc:"Cap on one request line; longer lines are answered with an \
             $(b,oversized) error and discarded without being buffered.")

let prelude_file_arg =
  Arg.(value & opt (some string) None & info [ "prelude-file" ] ~docv:"FILE"
       ~doc:"Expand $(docv) once at startup (and again after every \
             supervised restart): its macro definitions become the base \
             state every session starts from.")

let hygienic_arg =
  Arg.(value & flag & info [ "hygienic" ]
       ~doc:"Rename template-introduced block locals automatically.")

let prelude_arg =
  Arg.(value & flag & info [ "prelude" ]
       ~doc:"Load the standard macro library before serving.")

let no_cache_arg =
  Arg.(value & flag & info [ "no-cache" ]
       ~doc:"Disable the shared content-addressed expansion cache.")

let workers_arg =
  Arg.(value & opt nonneg_int 1 & info [ "workers" ] ~docv:"N"
       ~doc:"Serve with $(docv) expansion workers (OCaml domains), each \
             owning an engine.  Any free worker serves any session: one \
             session's requests stay serialized (and isolated) in \
             arrival order, while different sessions expand in \
             parallel.  The prelude loads once, and the expansion \
             cache is shared across workers.  The event loop runs no \
             expansion, so admin methods such as $(b,health) answer \
             while every worker is busy.  $(b,0) resolves to the \
             machine's recommended domain count.")

let cache_file_arg =
  Arg.(value & opt (some string) None & info [ "cache-file" ] ~docv:"FILE"
       ~doc:"Persist the shared expansion cache to $(docv): loaded on \
             startup (so a restarted daemon — supervised or not — comes \
             back warm), each stored unit appended as it completes, and \
             fsynced on drain, after $(b,--snapshot-idle-ms) of \
             inactivity, and on the $(b,snapshot) admin method.  A torn \
             final record is dropped; a corrupt file is ignored with a \
             warning (cold start), never trusted.")

let snapshot_idle_ms_arg =
  Arg.(value & opt pos_int 30_000 & info [ "snapshot-idle-ms" ] ~docv:"MS"
       ~doc:"With --cache-file: fsync the appended cache entries once \
             no request has arrived for $(docv) milliseconds.")

let slow_ms_arg =
  Arg.(value & opt pos_int 1000 & info [ "slow-ms" ] ~docv:"MS"
       ~doc:"A request slower than $(docv) milliseconds is an anomaly: \
             it is logged, surfaced in the $(b,health) admin method, and \
             (with $(b,--flight-dir)) triggers a flight-recorder dump — \
             tail-based sampling, full span detail kept only for \
             outliers.")

let flight_dir_arg =
  Arg.(value & opt (some string) None & info [ "flight-dir" ] ~docv:"DIR"
       ~doc:"Write flight-recorder dumps (schema $(b,ms2-flight-1)) to \
             $(docv) on anomalies: slow requests, watchdog fires, \
             fingerprint breaches, overload shedding, worker crashes \
             and SIGQUIT.  Without it the per-domain rings still record \
             (bounded memory), but nothing is written.")

let prometheus_arg =
  Arg.(value & opt (some string) None & info [ "prometheus" ] ~docv:"FILE"
       ~doc:"Export the metrics registry to $(docv) in Prometheus text \
             exposition format, atomically, about once a second and on \
             drain — point a node-exporter textfile collector (or a \
             test) at it.")

let log_level_arg =
  Arg.(value & opt string "info" & info [ "log-level" ] ~docv:"LEVEL"
       ~doc:"Structured-log threshold on stderr (schema $(b,ms2-log-1), \
             one JSON object per line): $(b,debug), $(b,info), \
             $(b,warn) or $(b,error).")

let cmd : unit Cmd.t =
  let run limits hygienic prelude prelude_file no_cache workers socket
      pidfile supervise_flag max_pending max_sessions
      session_idle_ms max_request_bytes cache_file snapshot_idle_ms
      slow_ms flight_dir prometheus log_level failpoints =
    arm_failpoints failpoints;
    (match Ms2_support.Log.level_of_string log_level with
    | Some l -> Ms2_support.Log.set_level l
    | None ->
        fatal "bad --log-level %S (expected debug|info|warn|error)"
          log_level);
    let worker ~write_pidfile () =
      run_server ~limits ~hygienic ~prelude ~prelude_file
        ~cache:(not no_cache) ~workers ~socket ~pidfile
        ~write_pidfile ~max_pending ~max_sessions ~session_idle_ms
        ~max_request_bytes ~cache_file ~snapshot_idle_ms ~slow_ms
        ~flight_dir ~prometheus ()
    in
    if supervise_flag then begin
      if socket = None then
        fatal "--supervise requires --socket (stdio clients cannot \
               reconnect across a worker restart)";
      supervise ~pidfile ~flight_dir (worker ~write_pidfile:false)
    end
    else worker ~write_pidfile:true ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run a persistent expansion daemon (line-JSON protocol \
             ms2-serve-1 over stdio or a Unix socket) with isolated \
             sessions, deadline propagation, overload shedding and \
             crash-safe supervision")
    Term.(
      const run $ limits_term $ hygienic_arg $ prelude_arg
      $ prelude_file_arg $ no_cache_arg $ workers_arg
      $ socket_arg $ pidfile_arg $ supervise_arg $ max_pending_arg
      $ max_sessions_arg $ session_idle_ms_arg $ max_request_bytes_arg
      $ cache_file_arg $ snapshot_idle_ms_arg $ slow_ms_arg
      $ flight_dir_arg $ prometheus_arg $ log_level_arg $ failpoints_arg)
