(** Resource limits for the expansion pipeline.

    MS² runs user-written meta-programs at compile time, so a buggy
    macro can loop forever or produce unbounded output.  A [Limits.t]
    bundles every defensive bound the pipeline enforces:

    - [fuel]: total interpreter steps (statements executed, expressions
      evaluated) across the whole run — a global budget shared by every
      macro invocation and meta declaration;
    - [invocation_fuel]: interpreter steps a single macro invocation may
      consume before it is cut off (so one runaway macro cannot starve
      the rest of the file of the global budget);
    - [max_nodes]: AST nodes a single invocation's expansion may
      produce (template fills plus spliced results) — the guard against
      expansion bombs;
    - [max_depth]: recursive-expansion nesting (macros expanding into
      invocations of other macros);
    - [max_errors]: diagnostics recorded before error recovery gives up
      and the run aborts;
    - [timeout_ms]: wall-clock deadline for expanding one fragment
      (one [expand_source] call).  Fuel only counts interpreter steps;
      the deadline also covers parsing, pattern execution and builtins,
      where a stall consumes no fuel;
    - [invocation_timeout_ms]: wall-clock deadline for a single macro
      invocation (narrows the fragment deadline; deadlines only ever
      move earlier).

    [max_int] in any budget field means "unlimited": the accounting
    still runs (a decrement and a comparison), but the bound can never
    fire. *)

type t = {
  fuel : int;  (** global interpreter step budget ([max_int] = unlimited) *)
  invocation_fuel : int;  (** interpreter steps per macro invocation *)
  max_nodes : int;  (** AST nodes produced per macro invocation *)
  max_depth : int;  (** recursive-expansion nesting bound *)
  max_errors : int;  (** diagnostics collected before aborting *)
  timeout_ms : int;  (** wall-clock deadline per fragment *)
  invocation_timeout_ms : int;  (** wall-clock deadline per invocation *)
}

(** Generous production defaults: far above anything a legitimate macro
    library needs, low enough that a nonterminating macro fails in well
    under a second (and a stalling one within a minute). *)
let default =
  {
    fuel = 100_000_000;
    invocation_fuel = 10_000_000;
    max_nodes = 2_000_000;
    max_depth = 200;
    max_errors = 20;
    timeout_ms = 60_000;
    invocation_timeout_ms = 30_000;
  }

let pp_budget ppf n =
  if n = max_int then Fmt.string ppf "unlimited" else Fmt.int ppf n

let pp ppf t =
  Fmt.pf ppf
    "fuel=%a invocation-fuel=%a max-nodes=%a max-depth=%d max-errors=%a \
     timeout-ms=%a invocation-timeout-ms=%a"
    pp_budget t.fuel pp_budget t.invocation_fuel pp_budget t.max_nodes
    t.max_depth pp_budget t.max_errors pp_budget t.timeout_ms pp_budget
    t.invocation_timeout_ms

let to_string t = Fmt.str "%a" pp t
