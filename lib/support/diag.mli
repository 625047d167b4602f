(** Diagnostics: located, coded messages raised or collected by every
    phase of the system.

    Each diagnostic records the phase that produced it — in particular,
    errors in macro bodies carry definition-time phases
    ([Pattern_check], [Type_check]), supporting the paper's guarantee
    that macro users only see errors about code they wrote.

    Diagnostics carry a severity, a stable machine-readable code, and a
    location; they can be raised (the classic first-error model),
    collected into a bounded {!collector} (the multi-error recovery
    model), rendered with source-line carets, or serialized to JSON. *)

type phase =
  | Lexing
  | Parsing
  | Pattern_check  (** pattern well-formedness (one-token lookahead) *)
  | Type_check  (** parse-time meta type analysis *)
  | Expansion  (** running the meta-program *)
  | Resource  (** a {!Limits.t} budget was exhausted *)

val phase_name : phase -> string
val phase_slug : phase -> string
(** Short lowercase identifier used in the JSON form. *)

val default_code : phase -> string
(** The stable error code used when a raise site does not pass one. *)

val code_fuel : string
(** ["E0601"]: interpreter fuel exhausted. *)

val code_nodes : string
(** ["E0602"]: produced-AST node budget exceeded. *)

val code_depth : string
(** ["E0603"]: expansion nesting too deep. *)

val code_too_many_errors : string
(** ["E0604"]: collector overflowed. *)

val code_timeout : string
(** ["E0605"]: the wall-clock watchdog deadline passed. *)

val code_stack : string
(** ["E0606"]: [Stack_overflow] contained during expansion or
    rendering (pathologically deep AST). *)

val code_failpoint : string
(** ["E0607"]: an armed failpoint injected a failure
    ({!Ms2_support.Failpoint}). *)

type severity = Error | Warning | Note

val severity_name : severity -> string

type t = {
  severity : severity;
  phase : phase;
  code : string;  (** stable machine-readable code, e.g. ["E0501"] *)
  loc : Loc.t;
  message : string;
}

exception Error of t

val make :
  ?severity:severity -> ?loc:Loc.t -> ?code:string -> phase -> string -> t
(** Build a diagnostic without raising it (for collectors). *)

val error :
  ?loc:Loc.t -> ?code:string -> phase ->
  ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [error ~loc phase fmt ...] raises {!Error}. *)

val errorf :
  ?loc:Loc.t -> ?code:string -> phase ->
  ('a, Format.formatter, unit, 'b) format4 -> 'a

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Rendering} *)

val render : ?text:(string -> string option) -> t -> string
(** Like {!to_string}, followed by the source line and a caret marker
    when [text] returns the text of the location's source (by source
    name; the default knows none) and the location is real, and by the
    expansion backtrace ("in expansion of macro `m' at loc" note lines,
    innermost first, capped at {!Loc.max_backtrace_frames}) when the
    location has one. *)

val to_json : t -> string
(** One diagnostic as a single-line JSON object with stable field order:
    severity, code, phase, source, line, col, end_line, end_col,
    message[, expansion_stack].  The [expansion_stack] array (innermost
    frame first, each [{"macro":..., "source":..., ...}], capped at
    {!Loc.max_backtrace_frames} with an [elided_frames] count) appears
    only when the location carries expansion provenance, so plain
    diagnostics serialize exactly as before. *)

(** {1 Collector} *)

type collector
(** A bounded bag of diagnostics for multi-error (recovery) runs. *)

val collector : ?max_errors:int -> unit -> collector
val add : collector -> t -> unit
(** Diagnostics beyond [max_errors] are counted as dropped, not stored. *)

val is_full : collector -> bool
val count : collector -> int
val dropped : collector -> int
val items : collector -> t list
(** Oldest first. *)

val error_count : collector -> int

(** {1 Protect} *)

val protect : (unit -> 'a) -> ('a, t) result
(** Run a computation, converting a raised diagnostic into [Error diag]
    (structured — apply {!to_string} or {!render} for text).  Other
    exceptions propagate. *)
