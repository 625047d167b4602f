(** Atomic whole-file writes: write to a temp file in the destination's
    directory, fsync it, then [rename] into place.

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
