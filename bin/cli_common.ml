(** CLI plumbing shared by the ms2c subcommands (expand/check/profile
    and serve): exit codes, diagnostic emission, atomic output, resource
    budget flags, and failpoint arming. *)

open Cmdliner
module Diag = Ms2_support.Diag
module Limits = Ms2_support.Limits
module Loc = Ms2_support.Loc
module Failpoint = Ms2_support.Failpoint

let exit_fatal = 1
let exit_degraded = 3

type diag_format = Text | Json

let render_diag ?text fmt (d : Diag.t) =
  match fmt with Text -> Diag.render ?text d | Json -> Diag.to_json d

let emit_diag fmt (d : Diag.t) = prerr_endline (render_diag fmt d)

let file_start_loc source =
  let p = { Loc.line = 1; col = 0; offset = 0 } in
  Loc.make ~source ~start_pos:p ~end_pos:p

let read_file path =
  if (try Sys.is_directory path with Sys_error _ -> false) then
    raise (Sys_error (path ^ ": is a directory"));
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Atomic output (temp + rename, via {!Ms2_support.Atomic_io}): a failed
   or killed run can never leave a truncated file where the previous
   good output was.  An unwritable destination (missing directory,
   permissions) is a fatal diagnostic, not a crash. *)
let write_atomic ?(diag_format = Text) path content =
  match Ms2_support.Atomic_io.write path content with
  | Ok () -> ()
  | Error msg ->
      emit_diag diag_format
        (Diag.make ~loc:(file_start_loc path) Diag.Parsing
           (Printf.sprintf "cannot write output: %s" msg));
      exit exit_fatal

let arm_failpoints = function
  | [] -> ()
  | spec -> Failpoint.arm_all spec

(* Resolve an [auto] (0) job count — files in flight, or daemon
   workers — to one per recommended domain. *)
let resolve_jobs jobs =
  if jobs = 0 then Ms2_support.Pool.recommended () else jobs

(* Budgets are counts: negative values are a usage error, caught at the
   command line rather than producing an instantly-exhausted budget. *)
let nonneg_int : int Arg.conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | Some n ->
        Error
          (`Msg
            (Printf.sprintf
               "%d is negative; budgets must be >= 0 (0 means unlimited)" n))
    | None -> Error (`Msg (Printf.sprintf "expected an integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* Worker counts must be positive: 0 workers can never make progress. *)
let pos_int : int Arg.conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "%d is not positive" n))
    | None -> Error (`Msg (Printf.sprintf "expected an integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let fuel_arg =
  Arg.(value & opt (some nonneg_int) None & info [ "fuel" ] ~docv:"N"
       ~doc:"Global interpreter fuel budget: total meta-program steps \
             (statements executed, expressions evaluated) the whole run \
             may consume; under $(b,serve), each request.  Defaults to a \
             generous production bound; 0 means unlimited.")

let invocation_fuel_arg =
  Arg.(value & opt (some nonneg_int) None
       & info [ "invocation-fuel" ] ~docv:"N"
       ~doc:"Interpreter fuel budget for a single macro invocation, so \
             one runaway macro cannot starve the rest of the file.  0 \
             means unlimited.")

let max_nodes_arg =
  Arg.(value & opt (some nonneg_int) None & info [ "max-nodes" ] ~docv:"N"
       ~doc:"Maximum AST nodes a single macro invocation's expansion may \
             produce (the expansion-bomb guard).  0 means unlimited.")

let max_errors_arg =
  Arg.(value & opt (some nonneg_int) None & info [ "max-errors" ] ~docv:"N"
       ~doc:"Stop after recording $(docv) diagnostics in --keep-going \
             mode (default 20).")

let timeout_arg =
  Arg.(value & opt (some nonneg_int) None & info [ "timeout-ms" ] ~docv:"MS"
       ~doc:"Wall-clock deadline for expanding one input file, in \
             milliseconds; a stalling macro is interrupted with a \
             located diagnostic.  0 means unlimited.")

let invocation_timeout_arg =
  Arg.(value & opt (some nonneg_int) None
       & info [ "invocation-timeout-ms" ] ~docv:"MS"
       ~doc:"Wall-clock deadline for a single macro invocation, in \
             milliseconds.  0 means unlimited.")

let failpoints_conv : Failpoint.spec Arg.conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Failpoint.parse_spec s) in
  let print ppf (spec : Failpoint.spec) =
    Format.pp_print_string ppf
      (String.concat "," (List.map fst spec))
  in
  Arg.conv (parse, print)

let failpoints_arg =
  Arg.(value & opt failpoints_conv [] & info [ "failpoints" ] ~docv:"SPEC"
       ~doc:"Arm failure-injection points (testing): comma-separated \
             $(i,site=trigger) clauses where trigger is $(b,off), \
             $(b,error), $(b,timeout) or $(b,after=N).  Equivalent to \
             the $(b,MS2_FAILPOINTS) environment variable.")

let diag_format_arg =
  Arg.(value & opt (enum [ ("text", Text); ("json", Json) ]) Text
       & info [ "diag-format" ] ~docv:"FMT"
       ~doc:"Diagnostic rendering: $(b,text) (human-readable, with \
             source-line carets) or $(b,json) (one JSON object per \
             line, stable field order).")

(* 0 on the command line means "unlimited" *)
let budget_override default = function
  | None -> default
  | Some 0 -> max_int
  | Some n -> n

let limits_of ~fuel ~invocation_fuel ~max_nodes ~max_errors ~timeout_ms
    ~invocation_timeout_ms : Limits.t =
  let d = Limits.default in
  {
    d with
    Limits.fuel = budget_override d.Limits.fuel fuel;
    invocation_fuel = budget_override d.Limits.invocation_fuel invocation_fuel;
    max_nodes = budget_override d.Limits.max_nodes max_nodes;
    max_errors = budget_override d.Limits.max_errors max_errors;
    timeout_ms = budget_override d.Limits.timeout_ms timeout_ms;
    invocation_timeout_ms =
      budget_override d.Limits.invocation_timeout_ms invocation_timeout_ms;
  }

(* The six budget flags composed into one {!Ms2_support.Limits.t} term,
   for commands that don't need the individual values. *)
let limits_term : Limits.t Term.t =
  Term.(
    const (fun fuel invocation_fuel max_nodes max_errors timeout_ms
               invocation_timeout_ms ->
        limits_of ~fuel ~invocation_fuel ~max_nodes ~max_errors ~timeout_ms
          ~invocation_timeout_ms)
    $ fuel_arg $ invocation_fuel_arg $ max_nodes_arg $ max_errors_arg
    $ timeout_arg $ invocation_timeout_arg)
