(** Identity of the running binary.

    OCaml's [Marshal] is untyped: decoding bytes written by a build
    whose value layout differs can segfault or silently yield garbage.
    The one on-disk artifact that embeds marshalled payloads, the cache
    snapshot, therefore stamps the writer's build fingerprint in its
    header, and a reader from any other build degrades cleanly — a
    cold start — instead of decoding.  The
    fingerprint makes the safety automatic: it needs no hand-bumped
    format constant to stay honest across rebuilds. *)

val digest : unit -> string
(** 16-byte fingerprint of the running executable: the MD5 of the
    binary image itself, so ANY rebuild — not just one that remembered
    to bump a format version — reads as a different build.  Falls back
    to a digest of the executable path and compiler version when the
    image cannot be read (e.g. unlinked while running).  Computed once
    and cached. *)

val digest_async : unit -> unit -> string
(** [digest_async ()] starts computing {!digest} on a helper domain
    (unless it is already known) and returns the function that joins
    it.  Call that function on every path — it is idempotent — so the
    helper never outlives the caller's use of it.  OCaml refuses
    [Unix.fork] in a process that ever spawned a domain, so a process
    that forks later must not call this first. *)
