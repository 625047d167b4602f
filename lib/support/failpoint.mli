(** Failure-injection points for testing the engine's failure paths.

    A failpoint is a named site woven into the pipeline (e.g.
    ["interp/step"], ["fill/alloc"], ["parser/token"]).  Normally a hit
    is a no-op costing one branch.  When armed — via the
    [MS2_FAILPOINTS] environment variable or [ms2c --failpoints] — a hit
    fires its trigger:

    - [error]: raise a located diagnostic (code {!Diag.code_failpoint}),
      as if the site itself had failed;
    - [timeout]: stall (in bounded slices) until the engine's wall-clock
      watchdog fires, exercising the deadline path end to end;
    - [after=N]: let [N] hits pass, then behave like [error];
    - [hang] / [hang=N]: let [N] hits pass (0 for bare [hang]), then
      stall without limit so a crash test can [kill -9] the process at a
      known point (a 300s fallback aborts a process nobody killed);
    - [off]: disarm.

    The spec grammar is a comma- (or semicolon-) separated list of
    [site=trigger] clauses: ["fill/alloc=error,interp/step=after=100"].
    Site names must come from {!sites}; the test sweep iterates that
    list, so adding a site here automatically puts it under test. *)

type trigger =
  | Error
  | Timeout
  | After of int Atomic.t
      (** hits remaining before firing like [Error]; atomic so
          concurrent hits from several domains never lose a count *)
  | Hang of int Atomic.t
      (** hits remaining before stalling without limit (for [kill -9]
          crash tests); same atomic-count discipline as [After] *)

val sites : string list
(** The canonical registry of failpoint names woven into the pipeline.
    Arming any other name is a spec error. *)

val serve_site : string -> bool
(** Is this a [serve/*] site?  Those fire in the request lifecycle of
    [ms2c serve], not in the in-process engine pipeline — the engine
    failpoint sweep filters them out and the serve chaos sweep
    ([make serve-sweep]) owns them. *)

val persist_site : string -> bool
(** Is this an [io/*] or [snapshot/*] site?  Those fire in the
    crash-safe persistence layer (durable writes and the cache
    snapshot's load, append and rewrite), not in the engine pipeline
    and never in an expansion — the engine sweep
    filters them out and the recovery chaos sweep
    ([make recovery-sweep]) owns them. *)

type spec = (string * trigger option) list
(** Parsed spec clauses: [None] means [off]. *)

val parse_spec : string -> (spec, string) result
(** Parse without arming (for CLI validation). *)

val arm_all : spec -> unit

val arm_spec : string -> (unit, string) result
(** Parse and arm in one step. *)

val arm : string -> trigger -> unit
(** @raise Invalid_argument on a name not in {!sites}. *)

val disarm : string -> unit
val reset : unit -> unit
(** Disarm everything (the test sweep calls this between cases). *)

val armed : unit -> bool
(** Is any failpoint outside the persistence layer armed?  Those are
    the ones that can change an expansion, so machinery that would mask
    them (e.g. the expansion cache) checks this and stands aside; a
    persistence failpoint leaves the cache working, which is what it
    tests. *)

val hit : ?watchdog:Watchdog.t -> loc:Loc.t -> string -> unit
(** Trip the named failpoint if armed; a cheap no-op otherwise.  The
    [timeout] trigger stalls against [watchdog] when given (and falls
    back to a bounded 2s stall before raising the timeout diagnostic
    itself, so an unarmed watchdog can never hang the process). *)
