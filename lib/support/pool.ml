(** A shared-counter scheduler over OCaml 5 domains.

    Every item is known up front ([map] over indices [0 .. n-1]) and
    results land in an array indexed by item, so it never matters which
    worker ran an item.  The pool therefore has the one dispatch rule
    the forked [--jobs] pool and the [serve] workers use: a free worker
    takes the next item.  The next item is one atomic counter; a worker
    that draws an index past [n] is done.  Items start in input order,
    which keeps a warm expansion cache warm for humanly-ordered corpora.

    Early stop: when [stop] returns true for item [i]'s result (a fatal
    diagnostic without [--keep-going]), items {e after} [i] in input
    order are cancelled — but everything before [i] still runs, because
    the caller must be able to find the {e first} stopping item exactly
    as the sequential pipeline would.  (A worker can finish a fatal at
    index 9 while index 3 — also fatal — still runs on another domain;
    cancelling everything would report 9 where [--jobs 1] reports 3.)
    The cancellation threshold is a CAS-min over stopping indices; items
    drawn above it are discarded unrun, so their result slots stay
    [None].

    The first worker exception (the work function is expected to catch
    its own; this is a backstop) cancels every item not yet started and
    is re-raised in the caller after every domain joins. *)

(** [recommended ()] — the runtime's view of usable cores; what
    [--jobs 0]/[--jobs auto] resolves to. *)
let recommended () : int = Domain.recommended_domain_count ()

let map ~(jobs : int) ?(stop : ('r -> bool) option) (n : int)
    (f : int -> 'r) : 'r option array =
  let jobs = max 1 (min jobs (max 1 n)) in
  let results : 'r option array = Array.make n None in
  let next = Atomic.make 0 in
  (* items with index > [limit] are cancelled; [max_int] = run all *)
  let limit = Atomic.make max_int in
  let rec lower_limit_to i =
    let cur = Atomic.get limit in
    if i < cur && not (Atomic.compare_and_set limit cur i) then
      lower_limit_to i
  in
  let failure : exn option Atomic.t = Atomic.make None in
  (* indices are drawn in increasing order, so once one is cancelled
     every later draw is too: the worker is done *)
  let rec worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n && i <= Atomic.get limit then begin
      (match f i with
      | r -> (
          results.(i) <- Some r;
          match stop with Some p when p r -> lower_limit_to i | _ -> ())
      | exception e ->
          if Atomic.compare_and_set failure None (Some e) then
            lower_limit_to (-1));
      worker ()
    end
  in
  (* The calling domain is worker 0; [jobs - 1] domains are spawned.
     Each spawned domain inherits the caller's trace context so events
     recorded on a speculation worker join the request's trace id. *)
  let trace = Obs.current_trace () in
  let spawned =
    Array.init (jobs - 1) (fun _ ->
        Domain.spawn (fun () ->
            Obs.set_trace trace;
            worker ()))
  in
  worker ();
  Array.iter Domain.join spawned;
  (match Atomic.get failure with Some e -> raise e | None -> ());
  results
