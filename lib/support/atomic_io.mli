(** Atomic whole-file writes: write to a temp file in the destination's
    directory, fsync it, then [rename] into place; and append-only logs
    that a killed writer leaves readable up to a torn final record.

    A reader (or a process killed mid-write) can then never observe a
    truncated file where good content was — the invariant every
    machine-readable artifact of this system relies on: [-o] output,
    [--sourcemap], [--metrics], [--trace-out], the [BENCH_*.json]
    records, pidfiles, cache snapshots.  The rename is atomic only
    within one filesystem, which the same-directory temp file
    guarantees; the pre-rename fsync guarantees the published name never
    points at unwritten data after a crash, and a best-effort directory
    fsync persists the rename itself. *)

val write : string -> string -> (unit, string) result
(** [write path content] replaces [path] atomically and durably.  A new
    file is created with mode 0666 less the umask, and an existing one
    keeps its mode.  A target that exists and is not a regular file (a
    FIFO, [/dev/null]) is written in place instead, neither atomically
    nor durably: renaming over it would replace it with a file.
    [Error msg] on any I/O failure (unwritable directory, disk full …);
    the temp file is removed on failure — except under the [io/rename]
    failpoint, which models a crash between write and rename and
    deliberately leaves the temp file behind (see {!sweep_stale}). *)

val write_exn : string -> string -> unit
(** Like {!write}, raising [Sys_error] on failure. *)

val sweep_stale : ?max_age_s:float -> string -> int
(** [sweep_stale dir] removes ".ms2*.tmp" orphans left in [dir] by
    writers that crashed between write and rename, returning the number
    removed.  Only regular files older than [max_age_s] (default one
    hour) are touched, so an in-flight concurrent write is never
    swept.  Errors (unreadable directory, racing removals) are
    swallowed: sweeping is hygiene, not correctness. *)

(** {1 Append-only logs}

    The expansion-cache snapshot is an append-only log: a header, then
    records appended as entries are stored, and rewritten whole (with
    {!write}) only to drop what the store no longer keeps.  Appends
    come from domains and from other processes at once: each is one
    [write] on an [O_APPEND] descriptor under a mutex and a whole-file
    [lockf], so records never interleave.  A killed writer can leave
    at most one partial record, at the end of the file. *)

type log

val open_log : header:(unit -> string) -> ?count:int -> string -> log
(** [open_log ~header ~count path] appends to [path], which holds
    [count] records (default 0).  Nothing is opened or written until
    the first {!append}; an empty or missing file gets [header] before
    its first record, computed then. *)

val log_path : log -> string

val log_count : log -> int
(** The records in the file: [count] at open or at the last
    {!rewrite}, plus every append since. *)

val append : log -> string -> (unit, string) result
(** Append one record.  After a failure the log appends nothing more
    (a failed write may have left part of a record at the end of the
    file) until a {!rewrite} succeeds.  Subject to the
    [snapshot/append] failpoint. *)

val sync : log -> (unit, string) result
(** [fsync] what was appended since the last sync (nothing to do when
    nothing was); [Error] while the log is failed. *)

val rewrite : log -> (unit -> (string * int, string) result) ->
  (unit, string) result
(** [rewrite log contents] replaces the file with [contents ()] — the
    whole file, header included, and its record count — through
    {!write}, holding off appends meanwhile so none is lost between the
    two.  Later appends go to the new file.  An [Error] from [contents]
    or from the write leaves the file as it was and the log failed. *)
