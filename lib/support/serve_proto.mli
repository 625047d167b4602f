(** The [ms2-serve-1] wire protocol of the expansion daemon.

    Line-oriented JSON: every request and response is exactly one JSON
    object on one line, so the stream stays in sync even when a request
    fails to decode.  The same framing runs over stdin/stdout and over a
    Unix-domain socket connection.

    Request object:
    {v
    {"schema": "ms2-serve-1",      // optional; validated when present
     "id": <any JSON>,             // echoed verbatim in the response
     "method": "expand" | "check" | "reset" | "ping" | "stats"
             | "failpoints" | "shutdown" | "bye",
     "session": "alice",           // optional, default "default"
     "source": "a.mc",             // optional diagnostic name
     "text": "...",                // the fragment (expand/check)
     "deadline_ms": 5000,          // optional; ms from arrival.  0 (or
                                   // any non-positive remainder) means
                                   // already expired
     "spec": "serve/expand=error"} // failpoints method only
    v}

    Responses are [{"schema": ..., "id": ..., "ok": true, ...}] or
    [{"schema": ..., "id": ..., "ok": false, "error": {"kind": ...,
    "message": ..., "retry_after_ms"?: ..., "diagnostics"?: [...]}}].
    The [diagnostics] array carries full {!Diag.to_json} objects.
    [overloaded] and [draining] are the retryable kinds; [overloaded]
    always carries a [retry_after_ms] hint. *)

val schema : string
(** ["ms2-serve-1"]. *)

val default_max_request_bytes : int
(** Request-line size cap (4 MiB): longer lines are answered with an
    [oversized] error and discarded without being buffered whole. *)

type request = {
  rq_id : Json.t;  (** echoed verbatim; [Null] when absent *)
  rq_method : string;
  rq_session : string;  (** default ["default"] *)
  rq_source : string;  (** diagnostic source name, default ["<request>"] *)
  rq_text : string;  (** fragment text; [""] when absent *)
  rq_deadline_ms : int option;
  rq_spec : string;  (** failpoint spec ([failpoints] method); [""] *)
}

val decode_request : Json.t -> (request, string) result
(** Shape-check a parsed request object.  Method-specific requirements
    (e.g. [expand] needs [text]) are the server's to enforce; this
    validates the envelope: an object, a string [method], a matching
    [schema] when present, sane field types. *)

val request_id : Json.t -> Json.t
(** Best-effort [id] of a request object that failed {!decode_request}
    (so even a malformed-request error can be correlated). *)

(** Error kinds, in the stable wire spelling of {!kind_name}. *)
type error_kind =
  | Oversized  (** request line exceeded the size cap *)
  | Malformed  (** not JSON, or not a valid request envelope *)
  | Unknown_method
  | Overloaded  (** shed: [--max-pending] requests are in flight; retryable *)
  | Draining  (** shutting down, refusing new work; retryable *)
  | Deadline_expired  (** [deadline_ms] was already spent on arrival *)
  | Rejected  (** failed admission (the accept/decode failpoints) *)
  | Expand_error  (** the expansion itself failed; see [diagnostics] *)
  | Respond_error  (** the response path failed (respond failpoint) *)
  | Internal

val kind_name : error_kind -> string
val retryable : error_kind -> bool

val ok_response :
  ?trace_id:string -> id:Json.t -> (string * Json.t) list -> string
(** One response line (no trailing newline): [schema], [id],
    [trace_id] when given, [ok: true], then the given fields. *)

val error_response :
  ?trace_id:string ->
  id:Json.t ->
  kind:error_kind ->
  ?retry_after_ms:int ->
  ?diagnostics:string list ->
  message:string ->
  unit ->
  string
(** One error-response line.  [diagnostics] are pre-rendered
    {!Diag.to_json} lines, spliced verbatim.  [trace_id], when given,
    rides after [id] exactly as in {!ok_response} — error responses
    must be joinable against logs too. *)
