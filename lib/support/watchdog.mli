(** Wall-clock watchdog for the expansion pipeline.

    Fuel counts interpreter steps, but a pathological pattern parse or a
    blocking primitive consumes no fuel while stalling forever.  A
    watchdog is an absolute wall-clock deadline polled at the pipeline's
    hot points (the interpreter fuel hook, the parser's token
    advance).  The poll is counter-gated: the clock
    is read once every few hundred polls, so the clean-path cost is a
    decrement and a branch.

    Deadlines are absolute, so narrowing composes: a per-invocation
    deadline nested inside the fragment deadline can only move the
    deadline earlier, and restoring the saved state on exit reinstates
    the enclosing bound. *)

type t

val create : unit -> t
(** An unarmed watchdog: {!poll} and {!check} never fire. *)

val arm : t -> ms:int -> unit
(** Arm (or re-arm) with a deadline [ms] milliseconds from now.
    [ms = max_int] means unlimited and disarms. *)

val disarm : t -> unit

val armed : t -> bool

type saved
(** Deadline state captured by {!narrow}, for exact restoration. *)

val narrow : t -> ms:int -> saved
(** Tighten the deadline to at most [ms] milliseconds from now (a wider
    or unlimited [ms] leaves it unchanged — deadlines only ever move
    earlier), returning the previous state for {!restore}. *)

val restore : t -> saved -> unit

val check : t -> loc:Loc.t -> unit
(** Read the clock immediately; raises a [Resource] diagnostic (code
    {!Diag.code_timeout}) at [loc] when the deadline has passed. *)

val poll : t -> loc:Loc.t -> unit
(** Counter-gated {!check}: reads the clock only every
    {!poll_interval}th call.  Cheap enough for per-token and
    per-interpreter-step use. *)

val tick : t -> bool
(** The gate of {!poll} alone: [true] on every {!poll_interval}th call,
    when the caller should {!check}.  For a poll site whose location
    costs something to build. *)

val poll_interval : int
(** Polls between clock reads (a bound on detection latency, not a
    guarantee: a poll site must actually be reached). *)

val remaining_ms : t -> int option
(** Milliseconds until the deadline, [None] when unarmed. *)
