(** Wall-clock watchdog: an absolute deadline polled cheaply from the
    pipeline's hot loops.  See the interface for the design notes. *)

type t = {
  mutable deadline : float;
      (** absolute [Unix.gettimeofday] seconds; [infinity] = unarmed *)
  mutable budget_ms : int;  (** the armed budget, for the diagnostic *)
  mutable countdown : int;  (** polls remaining until the next clock read *)
}

let poll_interval = 512

let create () =
  { deadline = infinity; budget_ms = max_int; countdown = poll_interval }

let now () = Unix.gettimeofday ()

let arm t ~ms =
  if ms = max_int then begin
    t.deadline <- infinity;
    t.budget_ms <- max_int
  end
  else begin
    t.deadline <- now () +. (float_of_int ms /. 1000.);
    t.budget_ms <- ms
  end;
  t.countdown <- poll_interval

let disarm t =
  t.deadline <- infinity;
  t.budget_ms <- max_int

let armed t = t.deadline < infinity

type saved = { s_deadline : float; s_budget_ms : int }

let narrow t ~ms : saved =
  let saved = { s_deadline = t.deadline; s_budget_ms = t.budget_ms } in
  if ms <> max_int then begin
    let d = now () +. (float_of_int ms /. 1000.) in
    if d < t.deadline then begin
      t.deadline <- d;
      t.budget_ms <- ms
    end
  end;
  saved

let restore t (s : saved) =
  t.deadline <- s.s_deadline;
  t.budget_ms <- s.s_budget_ms

let expired ~loc t =
  Obs.instant ~cat:"watchdog" "deadline-expired"
    ~args:(fun () -> [ ("budget_ms", Obs.Int t.budget_ms) ]);
  Diag.error ~loc ~code:Diag.code_timeout Diag.Resource
    "wall-clock deadline exceeded (%dms); is a macro body stalling?"
    t.budget_ms

(* every counter-gated poll that actually reads the clock lands here *)
let c_clock_reads = Obs.Metrics.counter "watchdog.clock_reads"

let check t ~loc =
  Obs.Metrics.incr c_clock_reads;
  if now () > t.deadline then expired ~loc t

let tick t =
  let c = t.countdown - 1 in
  if c > 0 then begin
    t.countdown <- c;
    false
  end
  else begin
    t.countdown <- poll_interval;
    true
  end

let poll t ~loc = if tick t then check t ~loc

let remaining_ms t =
  if not (armed t) then None
  else Some (int_of_float (Float.max 0. ((t.deadline -. now ()) *. 1000.)))
