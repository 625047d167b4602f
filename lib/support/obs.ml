(** Expansion telemetry: see the interface for the design contract.

    Implementation notes.  The recorder keeps events in a pooled
    structure-of-arrays buffer that persists across
    {!start_recording}/{!stop_recording} cycles: names, categories,
    phases, timestamps, durations and payloads live in parallel arrays
    (timestamps and durations in flat [float array]s, so appending a
    span stores unboxed floats), and the buffer grows by doubling and
    is never shrunk.  Recording a span is therefore allocation-free in
    steady state except for its payload; the immutable {!event}
    records the public API exposes are materialized once, at
    {!stop_recording}/{!events} time, off the hot path.  Spans are
    recorded at {e close} time (when the duration is known), so the
    chronological order used for rendering is close order — Chrome
    trace viewers sort by [ts] themselves and nest complete events by
    time containment, so emission order is cosmetic.  The clock is
    [Unix.gettimeofday]: the same clock the watchdog polls, wall-valid
    across [fork], precise to the microsecond — a dedicated monotonic
    source would need a C stub this repo does not carry.

    The {e flight recorder} is a second sink sharing the same
    recording sites: a bounded per-domain ring of the most recent
    immutable events, written lock-free by the owning domain and
    readable (racily, but memory-safely — slots hold immutable
    records, so a concurrent reader sees either the old or the new
    event, never a torn one) from any domain for anomaly dumps.
    Crucially, enabling the flight ring does {e not} make
    {!recording} true: the engine keys per-invocation spans off trace
    capture, and an always-on flight ring must not trigger them.

    {b Domain safety} (see DESIGN.md, "Domain-safety invariants").
    Three different strategies, one per sink, each picked for its
    hot-path cost:

    - the {e recorder} is domain-local ([Domain.DLS]): each domain owns
      its flag and event buffer, so recording in a domain-pool
      worker needs no synchronization at all and per-file event batches
      never interleave.  The disabled guard is one DLS load and one
      field test.
    - {e counters} are [Atomic.t] ints: increments from every domain
      race benignly via [fetch_and_add]; the registry tables behind
      find-or-create, gauges, histograms, snapshots and rendering share
      one mutex (registry mutation is setup/exit-path work, never
      per-token).
    - the {e profiler}'s frame stack is domain-local (frames of
      different domains are unrelated activations); the aggregate table
      takes the same mutex as the registry on [exit], which runs once
      per macro invocation, not per token. *)

type value = Int of int | Float of float | Str of string | Bool of bool
type payload = (string * value) list

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : char;
  ev_ts_us : float;
  ev_dur_us : float;
  ev_args : payload;
}

let now_us () = Unix.gettimeofday () *. 1e6

(* ------------------------------------------------------------------ *)
(* Recorder (domain-local)                                             *)
(* ------------------------------------------------------------------ *)

(* The pooled capture buffer: parallel arrays, one slot per event.
   Timestamps and durations are flat float arrays (unboxed stores);
   names/categories/payloads are pointer stores.  The arrays are
   retained across start/stop cycles, so steady-state recording
   allocates nothing per span beyond its payload. *)
type pool_buf = {
  mutable p_names : string array;
  mutable p_cats : string array;
  mutable p_phs : Bytes.t;
  mutable p_ts : float array;
  mutable p_durs : float array;
  mutable p_args : (unit -> payload) array;
      (** payload {e thunks}: forced at materialization time
          ({!pool_events}), not on the recording hot path.  Span
          payloads at engine sites format locations and walk origin
          chains — deferring them is most of the difference between
          "recording on" and "sinks disabled" *)
  mutable p_len : int;
}

let no_args () = []

let pool_create cap =
  {
    p_names = Array.make cap "";
    p_cats = Array.make cap "";
    p_phs = Bytes.make cap 'X';
    p_ts = Array.make cap 0.;
    p_durs = Array.make cap 0.;
    p_args = Array.make cap no_args;
    p_len = 0;
  }

let pool_grow (p : pool_buf) =
  let cap = Array.length p.p_names in
  let cap' = cap * 2 in
  let grow_arr a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  p.p_names <- grow_arr p.p_names "";
  p.p_cats <- grow_arr p.p_cats "";
  (let b = Bytes.make cap' 'X' in
   Bytes.blit p.p_phs 0 b 0 cap;
   p.p_phs <- b);
  p.p_ts <- grow_arr p.p_ts 0.;
  p.p_durs <- grow_arr p.p_durs 0.;
  p.p_args <- grow_arr p.p_args no_args

let pool_push (p : pool_buf) ~name ~cat ~ph ~ts ~dur args =
  if p.p_len >= Array.length p.p_names then pool_grow p;
  let i = p.p_len in
  p.p_names.(i) <- name;
  p.p_cats.(i) <- cat;
  Bytes.set p.p_phs i ph;
  p.p_ts.(i) <- ts;
  p.p_durs.(i) <- dur;
  p.p_args.(i) <- args;
  p.p_len <- i + 1

(* materialize the pooled slots as immutable events, chronological;
   this is where the deferred payload thunks finally run *)
let pool_events (p : pool_buf) : event list =
  let rec go i acc =
    if i < 0 then acc
    else
      go (i - 1)
        ({ ev_name = p.p_names.(i); ev_cat = p.p_cats.(i);
           ev_ph = Bytes.get p.p_phs i; ev_ts_us = p.p_ts.(i);
           ev_dur_us = p.p_durs.(i); ev_args = p.p_args.(i) () }
        :: acc)
  in
  go (p.p_len - 1) []

let pool_clear (p : pool_buf) =
  (* drop the payload/name pointers so a cleared buffer does not pin
     the last run's strings; the arrays themselves are the pool *)
  Array.fill p.p_names 0 p.p_len "";
  Array.fill p.p_cats 0 p.p_len "";
  Array.fill p.p_args 0 p.p_len no_args;
  p.p_len <- 0

(* The flight ring: a bounded per-domain buffer of the most recent
   events.  Single-writer (the owning domain) lock-free appends; any
   domain may snapshot it for an anomaly dump. *)
type ring = {
  rg_label : string;
  rg_cap : int;
  rg_slots : event array;
  rg_idx : int Atomic.t;  (** total events ever written *)
}

let ring_push (rg : ring) (ev : event) =
  let i = Atomic.get rg.rg_idx in
  rg.rg_slots.(i mod rg.rg_cap) <- ev;
  (* the write above is published by this store; single writer, so a
     plain set (not fetch_and_add) is enough *)
  Atomic.set rg.rg_idx (i + 1)

let ring_events (rg : ring) : event list =
  let n = Atomic.get rg.rg_idx in
  let first = if n > rg.rg_cap then n - rg.rg_cap else 0 in
  let rec go i acc =
    if i < first then acc
    else
      let ev = rg.rg_slots.(i mod rg.rg_cap) in
      go (i - 1) (if ev.ev_name = "" then acc else ev :: acc)
  in
  go (n - 1) []

type rec_state = {
  mutable r_on : bool;  (** any sink active (capture or flight) *)
  mutable r_capture : bool;  (** start/stop_recording trace capture *)
  r_buf : pool_buf;
  mutable r_flight : ring option;
  mutable r_trace : string option;  (** stamped into recorded events *)
}

let rec_key : rec_state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { r_on = false; r_capture = false; r_buf = pool_create 1024;
        r_flight = None; r_trace = None })

let rstate () = Domain.DLS.get rec_key

(* [recording] deliberately reports only trace *capture*: engine-side
   gates (per-invocation spans) must not fire for an always-on flight
   ring. *)
let recording () = (rstate ()).r_capture

let start_recording () =
  let rs = rstate () in
  rs.r_capture <- true;
  rs.r_on <- true

let stop_recording () =
  let rs = rstate () in
  rs.r_capture <- false;
  rs.r_on <- rs.r_flight <> None;
  let evs = pool_events rs.r_buf in
  pool_clear rs.r_buf;
  evs

let events () = pool_events (rstate ()).r_buf

let set_trace t = (rstate ()).r_trace <- t
let current_trace () = (rstate ()).r_trace

let with_trace t f =
  let rs = rstate () in
  let saved = rs.r_trace in
  rs.r_trace <- t;
  Fun.protect ~finally:(fun () -> rs.r_trace <- saved) f

let record (rs : rec_state) ~name ~cat ~ph ~ts ~dur args_thunk =
  match rs.r_flight with
  | None ->
      (* capture-only: store the thunk, don't run it.  The ambient
         trace id is pinned now (it is request-scoped mutable state);
         the payload itself renders at stop_recording/events time,
         off the hot path.  With no trace this is a single pointer
         store — zero allocation beyond the pool slot. *)
      if rs.r_capture then
        let args_fn =
          match rs.r_trace with
          | None -> args_thunk
          | Some tid -> fun () -> ("trace_id", Str tid) :: args_thunk ()
        in
        pool_push rs.r_buf ~name ~cat ~ph ~ts ~dur args_fn
  | Some rg ->
      (* the flight ring publishes immutable events to concurrent
         anomaly-dump readers, so its payloads must materialize now *)
      let args =
        match rs.r_trace with
        | None -> args_thunk ()
        | Some tid -> ("trace_id", Str tid) :: args_thunk ()
      in
      ring_push rg
        { ev_name = name; ev_cat = cat; ev_ph = ph; ev_ts_us = ts;
          ev_dur_us = dur; ev_args = args };
      if rs.r_capture then
        pool_push rs.r_buf ~name ~cat ~ph ~ts ~dur (fun () -> args)

let with_span ~cat ?(args = no_args) name f =
  let rs = rstate () in
  if not rs.r_on then f ()
  else begin
    let t0 = now_us () in
    let finish () =
      (* a span survives the flag flipping mid-run (stop_recording in a
         nested scope): record iff still on *)
      if rs.r_on then
        record rs ~name ~cat ~ph:'X' ~ts:t0 ~dur:(now_us () -. t0) args
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let instant ~cat ?(args = no_args) name =
  let rs = rstate () in
  if rs.r_on then
    record rs ~name ~cat ~ph:'i' ~ts:(now_us ()) ~dur:0. args

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

module Flight = struct
  let default_capacity = 4096

  (* every ring ever enabled, so an anomaly dump (or SIGQUIT) can
     collect the recent events of *all* domains, not just its own *)
  let rings_mutex = Mutex.create ()
  let rings : ring list ref = ref []

  let enabled () = (rstate ()).r_flight <> None

  let enable ?(capacity = default_capacity) () =
    let rs = rstate () in
    match rs.r_flight with
    | Some _ -> ()
    | None ->
        let dummy =
          { ev_name = ""; ev_cat = ""; ev_ph = 'i'; ev_ts_us = 0.;
            ev_dur_us = 0.; ev_args = [] }
        in
        let rg =
          {
            rg_label =
              Printf.sprintf "domain-%d" (Domain.self () :> int);
            rg_cap = max 16 capacity;
            rg_slots = Array.make (max 16 capacity) dummy;
            rg_idx = Atomic.make 0;
          }
        in
        rs.r_flight <- Some rg;
        rs.r_on <- true;
        Mutex.lock rings_mutex;
        rings := rg :: !rings;
        Mutex.unlock rings_mutex

  let events () =
    match (rstate ()).r_flight with
    | None -> []
    | Some rg -> ring_events rg

  let all_events () =
    Mutex.lock rings_mutex;
    let rgs = !rings in
    Mutex.unlock rings_mutex;
    List.rev_map (fun rg -> (rg.rg_label, ring_events rg)) rgs
end

(* ------------------------------------------------------------------ *)
(* JSON helpers (hand-rolled for a stable field order; strings go      *)
(* through Json.escape)                                                *)
(* ------------------------------------------------------------------ *)

(* JSON has no NaN/Infinity literals; clamp the pathological cases. *)
let json_float (x : float) : string =
  if Float.is_nan x then "0"
  else if x = Float.infinity then "1e308"
  else if x = Float.neg_infinity then "-1e308"
  else Printf.sprintf "%g" x

let value_to_json = function
  | Int n -> string_of_int n
  | Float x -> json_float x
  | Str s -> Printf.sprintf "\"%s\"" (Json.escape s)
  | Bool b -> if b then "true" else "false"

let payload_to_json (p : payload) : string =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\": %s" (Json.escape k) (value_to_json v))
         p)
  ^ "}"

let event_to_json (e : event) : string =
  Printf.sprintf
    "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%c\", \"ts\": %.1f, \
     \"dur\": %.1f, \"args\": %s}"
    (Json.escape e.ev_name) (Json.escape e.ev_cat) e.ev_ph e.ev_ts_us
    e.ev_dur_us
    (payload_to_json e.ev_args)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event rendering                                        *)
(* ------------------------------------------------------------------ *)

let chrome_trace (procs : (string * event list) list) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\": [\n";
  let first = ref true in
  let emit line =
    if not !first then Buffer.add_string b ",\n";
    first := false;
    Buffer.add_string b line
  in
  List.iteri
    (fun pid (pname, evs) ->
      emit
        (Printf.sprintf
           "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, \
            \"tid\": 0, \"args\": {\"name\": \"%s\"}}"
           pid (Json.escape pname));
      List.iter
        (fun e ->
          let dur =
            if e.ev_ph = 'X' then
              Printf.sprintf ", \"dur\": %.1f" e.ev_dur_us
            else ", \"s\": \"t\""
          in
          emit
            (Printf.sprintf
               "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%c\", \
                \"ts\": %.1f%s, \"pid\": %d, \"tid\": 0, \"args\": %s}"
               (Json.escape e.ev_name) (Json.escape e.ev_cat) e.ev_ph
               e.ev_ts_us dur pid
               (payload_to_json e.ev_args)))
        evs)
    procs;
  Buffer.add_string b "\n], \"displayTimeUnit\": \"ms\"}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

(* One mutex covers every registry structure (counter/histogram tables,
   gauges, profiler aggregates).  Counter *increments* bypass it via
   atomics; everything else is setup- or exit-path work. *)
let registry_mutex = Mutex.create ()

let locked f =
  Mutex.lock registry_mutex;
  match f () with
  | v ->
      Mutex.unlock registry_mutex;
      v
  | exception e ->
      Mutex.unlock registry_mutex;
      raise e

module Metrics = struct
  type counter = { c_name : string; c_v : int Atomic.t }

  (* An implicit +Inf bucket follows the last bound. *)
  let bucket_bounds = [| 1.; 10.; 100.; 1e3; 1e4; 1e5; 1e6; 1e7 |]

  type histogram = {
    h_name : string;
    mutable h_count : int;
    mutable h_sum : float;
    h_buckets : int array;  (* length = bounds + 1 (the +Inf bucket) *)
  }

  let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
  let gauges : (string, float) Hashtbl.t = Hashtbl.create 16
  let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

  (* assumes [registry_mutex] held *)
  let counter_locked name =
    match Hashtbl.find_opt counters name with
    | Some c -> c
    | None ->
        let c = { c_name = name; c_v = Atomic.make 0 } in
        Hashtbl.replace counters name c;
        c

  let counter name = locked (fun () -> counter_locked name)
  let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.c_v by)
  let set c v = Atomic.set c.c_v v
  let value c = Atomic.get c.c_v
  let gauge name v = locked (fun () -> Hashtbl.replace gauges name v)

  (* assumes [registry_mutex] held *)
  let gauge_max_locked name v =
    match Hashtbl.find_opt gauges name with
    | Some v0 when v0 >= v -> ()
    | _ -> Hashtbl.replace gauges name v

  (* assumes [registry_mutex] held *)
  let histogram_locked name =
    match Hashtbl.find_opt histograms name with
    | Some h -> h
    | None ->
        let h =
          { h_name = name; h_count = 0; h_sum = 0.;
            h_buckets = Array.make (Array.length bucket_bounds + 1) 0 }
        in
        Hashtbl.replace histograms name h;
        h

  let histogram name = locked (fun () -> histogram_locked name)

  let observe h x =
    locked (fun () ->
        h.h_count <- h.h_count + 1;
        h.h_sum <- h.h_sum +. x;
        let n = Array.length bucket_bounds in
        let rec slot i =
          if i >= n || x <= bucket_bounds.(i) then i else slot (i + 1)
        in
        let i = slot 0 in
        h.h_buckets.(i) <- h.h_buckets.(i) + 1)

  type snapshot = {
    sn_counters : (string * int) list;
    sn_gauges : (string * float) list;
    sn_hists : (string * int * float * int array) list;
        (* name, count, sum, per-bucket counts *)
  }

  let snapshot () : snapshot =
    locked (fun () ->
        {
          sn_counters =
            Hashtbl.fold
              (fun k c acc -> (k, Atomic.get c.c_v) :: acc)
              counters [];
          sn_gauges = Hashtbl.fold (fun k v acc -> (k, v) :: acc) gauges [];
          sn_hists =
            Hashtbl.fold
              (fun k h acc ->
                (k, h.h_count, h.h_sum, Array.copy h.h_buckets) :: acc)
              histograms [];
        })

  let absorb (s : snapshot) : unit =
    locked (fun () ->
        List.iter
          (fun (k, v) ->
            let c = counter_locked k in
            ignore (Atomic.fetch_and_add c.c_v v))
          s.sn_counters;
        List.iter (fun (k, v) -> gauge_max_locked k v) s.sn_gauges;
        List.iter
          (fun (k, count, sum, buckets) ->
            let h = histogram_locked k in
            h.h_count <- h.h_count + count;
            h.h_sum <- h.h_sum +. sum;
            Array.iteri
              (fun i n -> h.h_buckets.(i) <- h.h_buckets.(i) + n)
              buckets)
          s.sn_hists)

  let sorted_keys tbl =
    Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

  let to_json () : string =
    locked (fun () ->
        let b = Buffer.create 1024 in
        Buffer.add_string b "{\n  \"schema\": \"ms2-metrics-1\",\n";
        let obj name keys render =
          Buffer.add_string b (Printf.sprintf "  \"%s\": {" name);
          List.iteri
            (fun i k ->
              Buffer.add_string b (if i = 0 then "\n" else ",\n");
              Buffer.add_string b
                (Printf.sprintf "    \"%s\": %s" (Json.escape k) (render k)))
            keys;
          if keys <> [] then Buffer.add_string b "\n  ";
          Buffer.add_string b "}"
        in
        obj "counters" (sorted_keys counters) (fun k ->
            string_of_int (Atomic.get (Hashtbl.find counters k).c_v));
        Buffer.add_string b ",\n";
        obj "gauges" (sorted_keys gauges) (fun k ->
            json_float (Hashtbl.find gauges k));
        Buffer.add_string b ",\n";
        obj "histograms" (sorted_keys histograms) (fun k ->
            let h = Hashtbl.find histograms k in
            let cumulative = ref 0 in
            let buckets =
              List.mapi
                (fun i n ->
                  cumulative := !cumulative + n;
                  let le =
                    if i < Array.length bucket_bounds then
                      json_float bucket_bounds.(i)
                    else "\"+Inf\""
                  in
                  Printf.sprintf "{\"le\": %s, \"count\": %d}" le !cumulative)
                (Array.to_list h.h_buckets)
            in
            Printf.sprintf "{\"count\": %d, \"sum\": %s, \"buckets\": [%s]}"
              h.h_count (json_float h.h_sum)
              (String.concat ", " buckets));
        Buffer.add_string b "\n}\n";
        Buffer.contents b)

  (* Prometheus text exposition (format 0.0.4).  Metric names are the
     registry names with every byte outside [a-zA-Z0-9_:] mapped to
     '_' (so "serve.latency_ms.expand" scrapes as
     [serve_latency_ms_expand]).  Histograms render the canonical
     cumulative [_bucket{le=...}] series plus [_sum] / [_count]. *)
  let prom_name name =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      name

  let prom_float (f : float) : string =
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%.17g" f

  let to_prometheus () : string =
    locked (fun () ->
        let b = Buffer.create 2048 in
        List.iter
          (fun k ->
            let n = prom_name k in
            Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" n);
            Buffer.add_string b
              (Printf.sprintf "%s %d\n" n
                 (Atomic.get (Hashtbl.find counters k).c_v)))
          (sorted_keys counters);
        List.iter
          (fun k ->
            let n = prom_name k in
            Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" n);
            Buffer.add_string b
              (Printf.sprintf "%s %s\n" n
                 (prom_float (Hashtbl.find gauges k))))
          (sorted_keys gauges);
        List.iter
          (fun k ->
            let h = Hashtbl.find histograms k in
            let n = prom_name k in
            Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
            let cumulative = ref 0 in
            Array.iteri
              (fun i c ->
                cumulative := !cumulative + c;
                let le =
                  if i < Array.length bucket_bounds then
                    prom_float bucket_bounds.(i)
                  else "+Inf"
                in
                Buffer.add_string b
                  (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n le
                     !cumulative))
              h.h_buckets;
            Buffer.add_string b
              (Printf.sprintf "%s_sum %s\n" n (prom_float h.h_sum));
            Buffer.add_string b
              (Printf.sprintf "%s_count %d\n" n h.h_count))
          (sorted_keys histograms);
        Buffer.contents b)

  let reset () =
    locked (fun () ->
        Hashtbl.iter (fun _ c -> Atomic.set c.c_v 0) counters;
        Hashtbl.reset gauges;
        Hashtbl.iter
          (fun _ h ->
            h.h_count <- 0;
            h.h_sum <- 0.;
            Array.fill h.h_buckets 0 (Array.length h.h_buckets) 0)
          histograms)
end

(* ------------------------------------------------------------------ *)
(* Per-macro profiler                                                  *)
(* ------------------------------------------------------------------ *)

module Profile = struct
  let on = Atomic.make false

  let enabled () = Atomic.get on
  let enable () = Atomic.set on true
  let disable () = Atomic.set on false

  type agg = {
    mutable a_count : int;
    mutable a_cached : int;
    mutable a_self_us : float;
    mutable a_total_us : float;
    mutable a_fuel : int;
    mutable a_nodes : int;
    mutable a_max_depth : int;
  }

  let aggs : (string, agg) Hashtbl.t = Hashtbl.create 32

  (* assumes [registry_mutex] held *)
  let agg_of name =
    match Hashtbl.find_opt aggs name with
    | Some a -> a
    | None ->
        let a =
          { a_count = 0; a_cached = 0; a_self_us = 0.; a_total_us = 0.;
            a_fuel = 0; a_nodes = 0; a_max_depth = 0 }
        in
        Hashtbl.replace aggs name a;
        a

  type frame = {
    f_name : string;
    f_t0 : float;
    f_depth : int;
    mutable f_child_us : float;
  }

  (* Activation stacks are per-domain: an invocation opened on one
     domain closes on the same domain, and frames of different domains
     are unrelated activations. *)
  let stack_key : frame list ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref [])

  let enter ?(depth = 0) name : frame =
    (* the frame stack only sees invocations that are *live* at once
       (meta-code calling macros); re-expansion of produced code nests
       logically but runs after the producer's frame closed, so callers
       pass the [Loc.origin]-derived depth and we keep the larger *)
    let stack = Domain.DLS.get stack_key in
    let f =
      { f_name = name; f_t0 = now_us ();
        f_depth = Stdlib.max depth (List.length !stack + 1);
        f_child_us = 0. }
    in
    stack := f :: !stack;
    f

  let exit (f : frame) ~fuel ~nodes : unit =
    let stack = Domain.DLS.get stack_key in
    let dur = now_us () -. f.f_t0 in
    (* unwind to this frame: an exception may have skipped the exits of
       deeper frames whose owners had no chance to run their finalizers
       in order — charge them nothing rather than corrupt the stack *)
    let rec unwind = function
      | top :: rest when top != f -> unwind rest
      | top :: rest ->
          stack := rest;
          ignore top
      | [] -> stack := []
    in
    unwind !stack;
    (match !stack with
    | parent :: _ -> parent.f_child_us <- parent.f_child_us +. dur
    | [] -> ());
    locked (fun () ->
        let a = agg_of f.f_name in
        a.a_count <- a.a_count + 1;
        a.a_total_us <- a.a_total_us +. dur;
        a.a_self_us <- a.a_self_us +. Float.max 0. (dur -. f.f_child_us);
        a.a_fuel <- a.a_fuel + fuel;
        a.a_nodes <- a.a_nodes + nodes;
        if f.f_depth > a.a_max_depth then a.a_max_depth <- f.f_depth)

  let credit_cached name n =
    locked (fun () ->
        let a = agg_of name in
        a.a_cached <- a.a_cached + n)

  let counts () =
    locked (fun () ->
        Hashtbl.fold (fun k a acc -> (k, a.a_count) :: acc) aggs [])

  let reset () =
    locked (fun () -> Hashtbl.reset aggs);
    Domain.DLS.get stack_key := []

  type row = {
    pr_macro : string;
    pr_count : int;
    pr_cached : int;
    pr_self_us : float;
    pr_total_us : float;
    pr_fuel : int;
    pr_nodes : int;
    pr_max_depth : int;
  }

  let report () : row list =
    locked (fun () ->
        Hashtbl.fold
          (fun name a acc ->
            { pr_macro = name; pr_count = a.a_count; pr_cached = a.a_cached;
              pr_self_us = a.a_self_us; pr_total_us = a.a_total_us;
              pr_fuel = a.a_fuel; pr_nodes = a.a_nodes;
              pr_max_depth = a.a_max_depth }
            :: acc)
          aggs [])
    |> List.sort (fun a b ->
           match compare b.pr_self_us a.pr_self_us with
           | 0 -> compare a.pr_macro b.pr_macro
           | c -> c)

  let hit_rate r =
    let total = r.pr_count + r.pr_cached in
    if total = 0 then 0. else float_of_int r.pr_cached /. float_of_int total

  let report_to_text (rows : row list) : string =
    let b = Buffer.create 1024 in
    Buffer.add_string b
      (Printf.sprintf "%-24s %8s %8s %10s %10s %12s %10s %6s %6s\n" "macro"
         "calls" "cached" "self(ms)" "total(ms)" "fuel" "nodes" "hit%"
         "depth");
    Buffer.add_string b (String.make 100 '-');
    Buffer.add_char b '\n';
    List.iter
      (fun r ->
        Buffer.add_string b
          (Printf.sprintf
             "%-24s %8d %8d %10.3f %10.3f %12d %10d %5.1f%% %6d\n"
             r.pr_macro r.pr_count r.pr_cached (r.pr_self_us /. 1e3)
             (r.pr_total_us /. 1e3) r.pr_fuel r.pr_nodes
             (hit_rate r *. 100.) r.pr_max_depth))
      rows;
    Buffer.contents b

  let report_to_json (rows : row list) : string =
    let b = Buffer.create 1024 in
    Buffer.add_string b "{\n  \"schema\": \"ms2-profile-1\",\n  \"macros\": [";
    List.iteri
      (fun i r ->
        Buffer.add_string b (if i = 0 then "\n" else ",\n");
        Buffer.add_string b
          (Printf.sprintf
             "    {\"macro\": \"%s\", \"invocations\": %d, \
              \"cached_invocations\": %d, \"self_ms\": %.3f, \
              \"total_ms\": %.3f, \"fuel\": %d, \"nodes\": %d, \
              \"cache_hit_rate\": %.3f, \"max_depth\": %d}"
             (Json.escape r.pr_macro) r.pr_count r.pr_cached
             (r.pr_self_us /. 1e3) (r.pr_total_us /. 1e3) r.pr_fuel
             r.pr_nodes (hit_rate r) r.pr_max_depth))
      rows;
    if rows <> [] then Buffer.add_string b "\n  ";
    Buffer.add_string b "]\n}\n";
    Buffer.contents b
end
