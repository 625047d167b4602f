(** Resource limits enforced by the expansion pipeline: interpreter
    fuel (global and per-invocation), produced-AST size, recursive
    expansion depth, and the diagnostic cap for error recovery.

    [max_int] in a budget field means "unlimited". *)

type t = {
  fuel : int;  (** global interpreter step budget ([max_int] = unlimited) *)
  invocation_fuel : int;  (** interpreter steps per macro invocation *)
  max_nodes : int;  (** AST nodes produced per macro invocation *)
  max_depth : int;  (** recursive-expansion nesting bound *)
  max_errors : int;  (** diagnostics collected before aborting *)
  timeout_ms : int;
      (** wall-clock deadline for one fragment ([expand_source] call),
          enforced by the {!Watchdog} polls woven through the pipeline *)
  invocation_timeout_ms : int;
      (** wall-clock deadline for a single macro invocation (narrows the
          fragment deadline) *)
}

val default : t
(** Generous production defaults (documented in MANUAL.md): fuel 1e8,
    per-invocation fuel 1e7, 2e6 nodes per invocation, depth 200,
    20 errors, 60s per fragment, 30s per invocation. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
