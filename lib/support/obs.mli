(** Expansion telemetry: structured tracing, a metrics registry, and a
    per-macro profiler.

    The pipeline is a program run at parse time; this module is its
    instrumentation.  Three facilities share one design rule — {e zero
    overhead when disabled}: every recording site first tests a single
    mutable flag, and payload construction is deferred behind thunks so
    a disabled sink never allocates.

    - {b Spans and events} ({!with_span}, {!instant}): wall-clock
      start/stop pairs recorded while {!recording} is on, rendered as
      Chrome trace-event JSON ({!chrome_trace}) loadable in Perfetto or
      [chrome://tracing].  Spans nest by scope; an expansion span's
      {e logical} parent (the producing macro) additionally travels in
      its args, derived from the {!Loc.origin} chain — see DESIGN.md
      for why there is no separate context stack.
    - {b Metrics} ({!Metrics}): named counters, gauges and histograms
      in a process-global registry.  Counters are plain mutable ints
      obtained once at module initialization, so hot paths pay one
      increment.  Snapshots are marshal-safe for shipping across the
      [--jobs] worker pipes and merging in the parent.
    - {b Profiler} ({!Profile}): per-macro aggregation — invocation
      count, self/total wall time, fuel, produced nodes, cache-credited
      invocations, maximum expansion depth — behind its own flag, for
      [ms2c profile].

    Forked workers inherit the process-global state; each worker
    records into its own copy and ships events/snapshots back over its
    result pipe.

    {b Domain safety.}  The span recorder is {e domain-local}
    ([Domain.DLS]): each domain records into its own buffer under its
    own flag, so domain-pool workers batch per-file events
    with no synchronization and no interleaving.  Metrics counters are
    atomics (increments from any domain), and the registry tables,
    gauges, histograms and profiler aggregates share one mutex — see
    DESIGN.md, "Domain-safety invariants". *)

(** {1 Structured payloads} *)

type value = Int of int | Float of float | Str of string | Bool of bool

type payload = (string * value) list
(** Ordered key/value pairs; rendered as a JSON object. *)

(** {1 Spans and events} *)

type event = {
  ev_name : string;
  ev_cat : string;  (** trace category, e.g. ["expand"], ["cache"] *)
  ev_ph : char;  (** ['X'] complete span, ['i'] instant event *)
  ev_ts_us : float;  (** start timestamp, microseconds *)
  ev_dur_us : float;  (** duration, microseconds; [0.] for instants *)
  ev_args : payload;
}
(** One recorded trace event.  Contains only scalars, so event lists
    are [Marshal]-safe across the worker pipes. *)

val recording : unit -> bool

val start_recording : unit -> unit
(** Enable span/event recording (idempotent; keeps prior events). *)

val stop_recording : unit -> event list
(** Disable recording and return the recorded events in chronological
    order, clearing the buffer. *)

val events : unit -> event list
(** The events recorded so far, chronological, without clearing. *)

val with_span :
  cat:string -> ?args:(unit -> payload) -> string -> (unit -> 'a) -> 'a
(** [with_span ~cat name f] runs [f], recording a complete span around
    it when {!recording}; disabled, it is one flag test.  The span is
    recorded even when [f] raises — a failing stage still shows up in
    the timeline.  [args] must be pure: in capture-only mode the thunk
    is deferred off the hot path and forced at
    {!stop_recording}/{!events} time (when the flight ring is on it is
    forced at record time, since ring slots publish immutable events to
    concurrent readers); it is never forced while sinks are off. *)

val instant : cat:string -> ?args:(unit -> payload) -> string -> unit
(** Record a zero-duration event when {!recording}; otherwise free. *)

val now_us : unit -> float
(** The recorder's clock (microseconds).  Wall clock shared with the
    {!Watchdog}; monotonic for the process lifetimes involved here. *)

(** {1 Trace context}

    A per-domain request identity.  While set, every recorded event
    (capture buffer {e and} flight ring) carries a [("trace_id", Str
    id)] pair prepended to its args, which is what lets a flight dump,
    a log line and a serve response be joined on one id.  Propagated
    into {!Pool.map} worker domains automatically. *)

val set_trace : string option -> unit
(** Set or clear this domain's trace id. *)

val current_trace : unit -> string option

val with_trace : string option -> (unit -> 'a) -> 'a
(** Run with the trace id set, restoring the previous value on exit
    (even when the thunk raises). *)

(** {1 Flight recorder}

    An always-on bounded ring of recent events, per domain: writes are
    lock-free single-writer stores, memory is fixed at
    [capacity × one event] per domain, and nothing is rendered until
    an anomaly asks for a dump.  Enabling the flight ring does {e not}
    make {!recording} true — the engine keys per-invocation spans on
    {!recording}, and the flight recorder must never change expansion
    behavior.  Consequently the ring sees the coarse structural spans
    (lex, parse, fragments, cache, serve) but not the per-invocation
    spans the capture recorder adds. *)

module Flight : sig
  val default_capacity : int
  (** 4096 events per domain. *)

  val enable : ?capacity:int -> unit -> unit
  (** Attach a ring to the calling domain (idempotent; call once per
      domain that should contribute to dumps). *)

  val enabled : unit -> bool
  (** Whether the calling domain has a ring attached. *)

  val events : unit -> event list
  (** The calling domain's ring contents, oldest first. *)

  val all_events : unit -> (string * event list) list
  (** Every registered domain's ring contents, as [(label, events)]
      pairs suitable for {!chrome_trace}.  Reads race benignly with
      concurrent writers: each slot holds an immutable event, so a
      torn read yields a slightly stale mix, never a corrupt event. *)
end

val event_to_json : event -> string
(** One event as a single-line JSON object ([name, cat, ph, ts, dur,
    args]) — the flight-dump record format. *)

val chrome_trace : (string * event list) list -> string
(** Render per-process event lists as Chrome trace-event JSON:
    [{"traceEvents": [...]}].  The list index becomes the [pid] and
    each process gets a [process_name] metadata event, so a merged
    [--jobs] trace shows one named track per worker.  Field order
    within an event object is stable
    ([name, cat, ph, ts, dur, pid, tid, args]). *)

(** {1 Metrics registry} *)

module Metrics : sig
  type counter

  val counter : string -> counter
  (** Find-or-create a named counter.  Call once (module or function
      setup), keep the handle: {!incr} is then a single store. *)

  val incr : ?by:int -> counter -> unit
  val set : counter -> int -> unit
  (** Absolute set — for publishing point-in-time engine statistics
      into the registry (idempotent, unlike {!incr}). *)

  val value : counter -> int

  val gauge : string -> float -> unit
  (** Set a named gauge to a point-in-time value. *)

  type histogram

  val histogram : string -> histogram
  (** Find-or-create a histogram over the fixed exponential bucket
      bounds {!bucket_bounds}. *)

  val observe : histogram -> float -> unit

  val bucket_bounds : float array
  (** Upper bounds of the histogram buckets (an implicit [+Inf] bucket
      follows the last). *)

  type snapshot
  (** A marshal-safe copy of the registry, for worker → parent
      shipping. *)

  val snapshot : unit -> snapshot

  val absorb : snapshot -> unit
  (** Merge a snapshot into this process's registry: counters and
      histogram buckets add; gauges keep the maximum (they are
      point-in-time readings, not totals). *)

  val to_json : unit -> string
  (** The registry as JSON (schema ["ms2-metrics-1"]): [counters] and
      [gauges] objects sorted by name, and [histograms] with
      count/sum/cumulative buckets ([le] bounds, Prometheus-style
      ["+Inf"] last). *)

  val to_prometheus : unit -> string
  (** The registry in Prometheus text exposition format 0.0.4: one
      [# TYPE] comment per metric, names sanitized (every byte outside
      [[a-zA-Z0-9_:]] becomes ['_']), histograms as cumulative
      [_bucket{le="..."}] series plus [_sum] and [_count]. *)

  val reset : unit -> unit
end

(** {1 Per-macro profiler} *)

module Profile : sig
  val enabled : unit -> bool
  val enable : unit -> unit
  val disable : unit -> unit
  val reset : unit -> unit

  type frame
  (** An open activation, returned by {!enter}; closed by {!exit}. *)

  val enter : ?depth:int -> string -> frame
  (** Open an activation of macro [name].  The caller must guarantee
      the matching {!exit} (e.g. [Fun.protect]) so failing expansions
      are still accounted.  [depth] is the logical expansion depth (the
      {!Loc.origin} chain length); the frame keeps the larger of it and
      the live activation-stack depth, because re-expansion of produced
      code nests logically but not dynamically. *)

  val exit : frame -> fuel:int -> nodes:int -> unit
  (** Close the activation, charging the invocation's {e total} fuel
      and produced-node deltas (children included; wall time is split
      into self and total internally). *)

  val credit_cached : string -> int -> unit
  (** Credit [n] invocations of [name] satisfied by an expansion-cache
      replay (they ran in a recorded run, not this one). *)

  val counts : unit -> (string * int) list
  (** Per-macro completed-activation counts so far (for computing the
      per-fragment deltas stored in cache entries). *)

  type row = {
    pr_macro : string;
    pr_count : int;  (** invocations actually expanded *)
    pr_cached : int;  (** invocations credited from cache replays *)
    pr_self_us : float;  (** wall time excluding nested invocations *)
    pr_total_us : float;
        (** wall time including nested invocations (recursive macros
            count each nested activation, as in classic call-stack
            profilers) *)
    pr_fuel : int;
    pr_nodes : int;
    pr_max_depth : int;  (** deepest invocation-nesting this macro hit *)
  }

  val report : unit -> row list
  (** Aggregated rows, hottest first (descending self time). *)

  val report_to_text : row list -> string
  (** Aligned table; columns documented in MANUAL §14. *)

  val report_to_json : row list -> string
  (** Schema ["ms2-profile-1"]: [{"macros": [...]}] in report order. *)
end
