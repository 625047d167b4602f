(** Atomic whole-file writes (temp + fsync + rename).  See the
    interface. *)

(* Push the temp file's bytes to stable storage before the rename
   publishes it.  Without this, a crash shortly after [rename] can leave
   the *new* name pointing at not-yet-written data on journaling
   filesystems that reorder data behind metadata — exactly the torn
   state the temp+rename dance exists to rule out. *)
let fsync_path_out (oc : out_channel) : unit =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

(* Best effort: persist the directory entry created by the rename.  Not
   all platforms allow fsync on a directory fd (and none of our
   invariants break if the *name* is lost in a crash — only if the name
   exists with bad bytes), so failures are swallowed. *)
let fsync_dir (dir : string) : unit =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())

(* Replace [path] through a temp file in its directory.  The temp file
   is created as 0666 less the umask, as a plain [open] would create
   [path]; [perm] is the mode of the file it replaces. *)
let replace (path : string) ~(perm : int option) (content : string) :
    (unit, string) result =
  match
    Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o666
      ~temp_dir:(Filename.dirname path) ".ms2" ".tmp"
  with
  | exception Sys_error msg -> Error msg
  | tmp, oc -> (
      match
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            Option.iter (Unix.fchmod (Unix.descr_of_out_channel oc)) perm;
            output_string oc content;
            fsync_path_out oc)
      with
      | exception Sys_error msg ->
          (try Sys.remove tmp with Sys_error _ -> ());
          Error msg
      | exception Unix.Unix_error (e, _, _) ->
          (try Sys.remove tmp with Sys_error _ -> ());
          Error (Unix.error_message e)
      | exception e ->
          (try Sys.remove tmp with Sys_error _ -> ());
          raise e
      | () -> (
          (* The [io/rename] failpoint models a crash in the window
             between writing the temp file and publishing it: the temp
             file is deliberately left behind (that is what a real crash
             leaves) so tests can exercise {!sweep_stale}. *)
          match Failpoint.hit ~loc:Loc.dummy "io/rename" with
          | exception Diag.Error d -> Error d.Diag.message
          | () -> (
              match Sys.rename tmp path with
              | () ->
                  fsync_dir (Filename.dirname path);
                  Ok ()
              | exception Sys_error msg ->
                  (try Sys.remove tmp with Sys_error _ -> ());
                  Error msg)))

(* A FIFO or a device ([/dev/null], a terminal) is not a file to
   replace: renaming over it would put a regular file in its place.
   Such a target is written in place, as a shell redirection would. *)
let write_in_place (path : string) (content : string) :
    (unit, string) result =
  match
    Out_channel.with_open_gen [ Open_wronly; Open_binary ] 0 path (fun oc ->
        output_string oc content)
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg

let write (path : string) (content : string) : (unit, string) result =
  match Unix.stat path with
  | exception Unix.Unix_error _ -> replace path ~perm:None content
  | { Unix.st_kind = Unix.S_REG; st_perm; _ } ->
      replace path ~perm:(Some st_perm) content
  | _ -> write_in_place path content

let write_exn path content =
  match write path content with
  | Ok () -> ()
  | Error msg -> raise (Sys_error msg)

(* Crashed writers (and the [io/rename] failpoint) leave ".ms2*.tmp"
   orphans beside their destination.  They are never picked up again —
   every write mints a fresh temp name — so long-lived processes sweep
   them at startup.  Only files old enough to predate any plausibly
   in-flight write are removed: a concurrent writer's fresh temp file
   must survive the sweep. *)
let default_stale_age = 3600.0

let is_temp_name (name : string) : bool =
  String.length name >= 8
  && String.sub name 0 4 = ".ms2"
  && Filename.check_suffix name ".tmp"

let sweep_stale ?(max_age_s = default_stale_age) (dir : string) : int =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
      let now = Unix.gettimeofday () in
      Array.fold_left
        (fun removed name ->
          if not (is_temp_name name) then removed
          else
            let path = Filename.concat dir name in
            match Unix.stat path with
            | exception Unix.Unix_error _ -> removed
            | st ->
                if
                  st.Unix.st_kind = Unix.S_REG
                  && now -. st.Unix.st_mtime > max_age_s
                then (
                  match Sys.remove path with
                  | () -> removed + 1
                  | exception Sys_error _ -> removed)
                else removed)
        0 names

(* ------------------------------------------------------------------ *)
(* Append-only logs                                                    *)
(* ------------------------------------------------------------------ *)

type log = {
  log_path : string;
  header : unit -> string;
  lock : Mutex.t;
  mutable fd : Unix.file_descr option;
      (* opened at the first append, so a run that stores nothing
         creates nothing *)
  mutable count : int;
  mutable dirty : bool;  (* appended since the last sync *)
  mutable failed : string option;
}

let open_log ~header ?(count = 0) (path : string) : log =
  { log_path = path; header; lock = Mutex.create (); fd = None; count;
    dirty = false; failed = None }

let log_path (l : log) = l.log_path
let log_count (l : log) = Mutex.protect l.lock (fun () -> l.count)

(* Take/release a whole-file fcntl lock (it excludes other processes
   appending to the same file through the kernel; the seek pins the
   locked region to the whole file and is harmless under O_APPEND,
   which ignores the offset).  Best-effort: a filesystem that cannot
   lock (ENOLCK, NFS quirks) degrades to the unlocked append, whose
   rare interleavings the readers' checksums catch. *)
let lock_file (fd : Unix.file_descr) : bool =
  match
    ignore (Unix.lseek fd 0 Unix.SEEK_SET);
    Unix.lockf fd Unix.F_LOCK 0
  with
  | () -> true
  | exception Unix.Unix_error _ -> false

let unlock_file (fd : Unix.file_descr) : unit =
  try
    ignore (Unix.lseek fd 0 Unix.SEEK_SET);
    Unix.lockf fd Unix.F_ULOCK 0
  with Unix.Unix_error _ -> ()

(* One write per record, under the cross-process file lock — a record
   can be far beyond any append size the kernel promises to keep
   un-interleaved.  The mutex serializes domains, which fcntl cannot
   tell apart; the file lock orders processes.  An empty file gets the
   header first, under the same lock, so concurrent first appends
   write it once.  After a failure nothing more is appended: a failed
   write may have left part of a record at the end of the file, and a
   reader drops such a torn tail only while it is the tail. *)
let append (l : log) (data : string) : (unit, string) result =
  Mutex.protect l.lock @@ fun () ->
  match l.failed with
  | Some msg -> Error msg
  | None ->
      let result =
        match
          Failpoint.hit ~loc:Loc.dummy "snapshot/append";
          let fd =
            match l.fd with
            | Some fd -> fd
            | None ->
                let fd =
                  Unix.openfile l.log_path
                    Unix.[ O_WRONLY; O_APPEND; O_CREAT; O_CLOEXEC ]
                    0o666
                in
                l.fd <- Some fd;
                fd
          in
          let locked = lock_file fd in
          Fun.protect
            ~finally:(fun () -> if locked then unlock_file fd)
            (fun () ->
              let bytes =
                if (Unix.fstat fd).Unix.st_size = 0 then l.header () ^ data
                else data
              in
              let n = Unix.write_substring fd bytes 0 (String.length bytes) in
              if n <> String.length bytes then failwith "short write")
        with
        | () -> Ok ()
        | exception Diag.Error d -> Error d.Diag.message
        | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
        | exception Failure msg -> Error msg
      in
      (match result with
      | Ok () ->
          l.count <- l.count + 1;
          l.dirty <- true
      | Error msg -> l.failed <- Some msg);
      result

let sync (l : log) : (unit, string) result =
  Mutex.protect l.lock @@ fun () ->
  match (l.failed, l.fd) with
  | Some msg, _ -> Error msg
  | None, Some fd when l.dirty -> (
      match Unix.fsync fd with
      | () ->
          l.dirty <- false;
          Ok ()
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))
  | None, _ -> Ok ()

let rewrite (l : log) (contents : unit -> (string * int, string) result) :
    (unit, string) result =
  Mutex.protect l.lock @@ fun () ->
  match Result.bind (contents ()) (fun (data, count) ->
            Result.map (fun () -> count) (write l.log_path data))
  with
  | Error msg ->
      l.failed <- Some msg;
      Error msg
  | Ok count ->
      (* appends go to the new file from here on *)
      Option.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        l.fd;
      l.fd <- None;
      l.count <- count;
      l.dirty <- false;
      l.failed <- None;
      Ok ()
