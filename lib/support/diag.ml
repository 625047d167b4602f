(** Diagnostics: located, coded messages raised or collected by every
    phase of the system.

    The paper's central safety claim is that a macro *user* only ever sees
    syntax errors in code they wrote themselves; errors in macro bodies are
    reported at macro *definition* time.  To support distinguishing these,
    every diagnostic records the phase that produced it.

    Beyond the classic raise-first-error model, this module supports the
    resilient pipeline: severities, stable error codes, a bounded
    collector for multi-error runs, source-line caret rendering from
    the text the caller holds, and a machine-readable JSON form with
    stable field order. *)

type phase =
  | Lexing
  | Parsing
  | Pattern_check  (** pattern well-formedness (one-token-lookahead rule) *)
  | Type_check  (** parse-time meta type analysis *)
  | Expansion  (** running the meta-program *)
  | Resource  (** a {!Limits.t} budget was exhausted *)

let phase_name = function
  | Lexing -> "lexical error"
  | Parsing -> "syntax error"
  | Pattern_check -> "pattern error"
  | Type_check -> "type error"
  | Expansion -> "expansion error"
  | Resource -> "resource limit"

let phase_slug = function
  | Lexing -> "lexing"
  | Parsing -> "parsing"
  | Pattern_check -> "pattern"
  | Type_check -> "type"
  | Expansion -> "expansion"
  | Resource -> "resource"

(* Stable error codes: EPNN where P identifies the phase.  Sites that
   want a more specific code (the resource guards do) pass ~code. *)
let default_code = function
  | Lexing -> "E0101"
  | Parsing -> "E0201"
  | Pattern_check -> "E0301"
  | Type_check -> "E0401"
  | Expansion -> "E0501"
  | Resource -> "E0601"

(* Specific resource codes, used by the budget guards. *)
let code_fuel = "E0601"
let code_nodes = "E0602"
let code_depth = "E0603"
let code_too_many_errors = "E0604"
let code_timeout = "E0605"
let code_stack = "E0606"
let code_failpoint = "E0607"

type severity = Error | Warning | Note

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Note -> "note"

type t = {
  severity : severity;
  phase : phase;
  code : string;  (** stable machine-readable code, e.g. ["E0501"] *)
  loc : Loc.t;
  message : string;
}

exception Error of t

let make ?(severity = (Error : severity)) ?(loc = Loc.dummy) ?code phase
    message =
  let code = match code with Some c -> c | None -> default_code phase in
  { severity; phase; code; loc; message }

let error ?(loc = Loc.dummy) ?code phase fmt =
  Format.kasprintf
    (fun message -> raise (Error (make ~loc ?code phase message)))
    fmt

let errorf = error

let pp ppf { severity; phase; code; loc; message } =
  let sev =
    match severity with Error -> "" | s -> severity_name s ^ ": "
  in
  if Loc.is_dummy loc then
    Fmt.pf ppf "%s%s[%s]: %s" sev (phase_name phase) code message
  else
    Fmt.pf ppf "%a: %s%s[%s]: %s" Loc.pp loc sev (phase_name phase) code
      message

let to_string t = Fmt.str "%a" pp t

(* ------------------------------------------------------------------ *)
(* Caret rendering                                                     *)
(* ------------------------------------------------------------------ *)

let source_line text n =
  let len = String.length text in
  let rec skip_lines i line =
    if line >= n then Some i
    else
      match String.index_from_opt text i '\n' with
      | Some j when j + 1 <= len -> skip_lines (j + 1) (line + 1)
      | _ -> None
  in
  if n < 1 then None
  else
    Option.map
      (fun start ->
        let stop =
          match String.index_from_opt text start '\n' with
          | Some j -> j
          | None -> len
        in
        String.sub text start (stop - start))
      (skip_lines 0 1)

(** Render with source context when [text] knows the source, and the
    expansion backtrace (if any) as trailing note lines:

    {v
    f.mc:3:2: expansion error[E0501]: boom
      3 | m bad;
        |   ^^^
      in expansion of macro `m' at f.mc:9:0-1
    v} *)
let render ?(text = fun _ -> None) t =
  let header = to_string t in
  let body =
    if Loc.is_dummy t.loc then header
    else
      match
        Option.bind (text t.loc.Loc.source) (fun src ->
            source_line src t.loc.Loc.start_pos.Loc.line)
      with
      | None -> header
      | Some line ->
          let lno = t.loc.Loc.start_pos.Loc.line in
          let col = t.loc.Loc.start_pos.Loc.col in
          let width =
            if t.loc.Loc.end_pos.Loc.line = lno then
              max 1 (t.loc.Loc.end_pos.Loc.col - col)
            else max 1 (String.length line - col)
          in
          let col = min col (String.length line) in
          let width = min width (max 1 (String.length line - col + 1)) in
          let gutter = string_of_int lno in
          let pad = String.make (String.length gutter) ' ' in
          Fmt.str "%s\n  %s | %s\n  %s | %s%s" header gutter line pad
            (String.make col ' ')
            (String.make width '^')
  in
  (* Backtrace lines only when the location came out of an expansion, so
     plain (user-code) diagnostics render exactly as before. *)
  body ^ Fmt.str "@[<v>%a@]" Loc.pp_backtrace t.loc

(* ------------------------------------------------------------------ *)
(* JSON rendering                                                      *)
(* ------------------------------------------------------------------ *)

(** The span of [loc] as JSON object fields (no braces); null fields for
    dummy locations.  Shared between {!to_json} and the expansion-stack
    frames. *)
let loc_json_fields loc =
  if Loc.is_dummy loc then
    {|"source":null,"line":null,"col":null,"end_line":null,"end_col":null|}
  else
    Printf.sprintf
      {|"source":"%s","line":%d,"col":%d,"end_line":%d,"end_col":%d|}
      (Json.escape loc.Loc.source)
      loc.Loc.start_pos.Loc.line loc.Loc.start_pos.Loc.col
      loc.Loc.end_pos.Loc.line loc.Loc.end_pos.Loc.col

(** One diagnostic as a single-line JSON object with stable field
    order: severity, code, phase, source, line, col, end_line, end_col,
    message[, expansion_stack].  Location fields are null for dummy
    locations; [expansion_stack] (innermost frame first, capped at
    {!Loc.max_backtrace_frames} with an [elided_frames] count) appears
    only when the location has expansion provenance. *)
let to_json t =
  let stack_fields =
    match Loc.backtrace t.loc with
    | [] -> ""
    | frames ->
        let n = List.length frames in
        let shown =
          List.filteri (fun i _ -> i < Loc.max_backtrace_frames) frames
        in
        let frame_json f =
          Printf.sprintf {|{"macro":"%s",%s}|}
            (Json.escape f.Loc.macro)
            (loc_json_fields f.Loc.call_site)
        in
        let elided =
          if n > Loc.max_backtrace_frames then
            Printf.sprintf {|,"elided_frames":%d|}
              (n - Loc.max_backtrace_frames)
          else ""
        in
        Printf.sprintf {|,"expansion_stack":[%s]%s|}
          (String.concat "," (List.map frame_json shown))
          elided
  in
  Printf.sprintf
    {|{"severity":"%s","code":"%s","phase":"%s",%s,"message":"%s"%s}|}
    (severity_name t.severity) (Json.escape t.code) (phase_slug t.phase)
    (loc_json_fields t.loc) (Json.escape t.message) stack_fields

(* ------------------------------------------------------------------ *)
(* Collector                                                           *)
(* ------------------------------------------------------------------ *)

(** A bounded diagnostic collector for multi-error (recovery) runs.
    Keeps at most [max_errors] diagnostics; further ones are counted in
    [dropped] but not stored. *)
type collector = {
  mutable items_rev : t list;
  mutable count : int;
  mutable dropped : int;
  max_errors : int;
}

let collector ?(max_errors = max_int) () =
  { items_rev = []; count = 0; dropped = 0; max_errors }

let add c d =
  if c.count >= c.max_errors then c.dropped <- c.dropped + 1
  else begin
    c.items_rev <- d :: c.items_rev;
    c.count <- c.count + 1
  end

let is_full c = c.count >= c.max_errors
let count c = c.count
let dropped c = c.dropped
let items c = List.rev c.items_rev

let error_count c =
  List.fold_left
    (fun n d -> if d.severity = (Error : severity) then n + 1 else n)
    0 c.items_rev

(* ------------------------------------------------------------------ *)
(* Protect                                                             *)
(* ------------------------------------------------------------------ *)

(** [protect f] runs [f ()] and converts a raised diagnostic into
    [Error diag], keeping its structure (phase, code, location); other
    exceptions propagate.  Callers that only need text apply
    {!to_string} (or {!render}) to the error. *)
let protect f = try Ok (f ()) with Error d -> Result.Error d
