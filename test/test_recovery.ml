(** Crash-safe persistence: the durable cache snapshot (an append-only
    log), resuming a killed batch from it, and warm daemon restarts.

    Three layers are exercised:

    - in-process: [Atomic_io] durability (the [io/rename] failpoint
      leaves the temp file and the old contents intact), stale temp
      sweeping, and the snapshot save/load/corruption contract through
      {!Ms2.Api.save_shared_cache}/{!load_shared_cache};
    - subprocess: [ms2c expand --cache-file] — including the flagship
      kill -9 mid-batch test, whose rerun over the same file must replay
      the finished files and produce byte-identical output;
    - daemon: a corrupted [--cache-file] never prevents [ms2c serve]
      from coming up healthy, its file stays bounded while its store
      evicts, and a stale pidfile is reclaimed while a live one refuses
      a second daemon.

    The corruption cases are golden: a truncated header, a bit flip, a
    format-version skew, and a foreign build fingerprint must each
    degrade to a cold cache with the warning counter bumped — never a
    crash, never a stale replay.  A record cut short at the end of the
    file is the one damage that keeps the rest: it is what a killed
    append leaves.  Fork siblings get their own group:
    keys name content, so a sibling's snapshot replays under the same
    definitions and misses under different ones, never replaying the
    dead sibling's output over other macro tables. *)

module Json = Ms2_support.Json
module Failpoint = Ms2_support.Failpoint
module Atomic_io = Ms2_support.Atomic_io
module Obs = Ms2_support.Obs

let ms2c =
  if Sys.file_exists "../bin/ms2c.exe" then "../bin/ms2c.exe"
  else "_build/default/bin/ms2c.exe"

let defs =
  "syntax stmt Painting {| $$stmt::body |} {\n\
   return `{BeginPaint(hDC, &ps);\n\
   $body;\n\
   EndPaint(hDC, &ps);};\n\
   }\n"

let uses = "int draw(int hDC)\n{\n  Painting { line(1, 2); }\n  return 0;\n}\n"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let in_temp_dir (f : string -> unit) : unit =
  let dir = Filename.temp_file "ms2rec" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let check_contains ~msg ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = (i + n <= m) && (String.sub s i n = sub || go (i + 1)) in
  Alcotest.(check bool) msg true (n = 0 || go 0)

(* ------------------------------------------------------------------ *)
(* Atomic_io durability                                                *)
(* ------------------------------------------------------------------ *)

(* A crash between temp-file write and rename (the [io/rename]
   failpoint) must leave the destination's old contents intact and the
   orphaned temp file on disk for the sweeper. *)
let rename_failpoint_preserves_old () =
  in_temp_dir (fun dir ->
      let target = Filename.concat dir "out.txt" in
      Atomic_io.write_exn target "old contents\n";
      (match Failpoint.arm_spec "io/rename=error" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "cannot arm: %s" e);
      Fun.protect ~finally:Failpoint.reset (fun () ->
          match Atomic_io.write target "new contents\n" with
          | Ok () -> Alcotest.fail "write succeeded with io/rename armed"
          | Error _ ->
              Alcotest.(check string)
                "old contents survive the simulated crash" "old contents\n"
                (read_file target);
              let orphans =
                Array.to_list (Sys.readdir dir)
                |> List.filter (fun n ->
                       Filename.check_suffix n ".tmp"
                       && String.length n > 4 && String.sub n 0 4 = ".ms2")
              in
              Alcotest.(check int)
                "the interrupted temp file is left behind" 1
                (List.length orphans)))

(* A published file gets the mode a plain [open] would give it: a new
   one 0666 less the umask, an existing one its own mode. *)
let write_keeps_modes () =
  in_temp_dir (fun dir ->
      let umask = Unix.umask 0o022 in
      Fun.protect ~finally:(fun () -> ignore (Unix.umask umask)) (fun () ->
          let perm path = (Unix.stat path).Unix.st_perm in
          let fresh = Filename.concat dir "new.c" in
          Atomic_io.write_exn fresh "new\n";
          Alcotest.(check int) "a new file is 0666 less the umask" 0o644
            (perm fresh);
          let existing = Filename.concat dir "existing.c" in
          write_file existing "old\n";
          Unix.chmod existing 0o640;
          Atomic_io.write_exn existing "new\n";
          Alcotest.(check int) "an existing file keeps its mode" 0o640
            (perm existing);
          Alcotest.(check string) "and gets the new contents" "new\n"
            (read_file existing)))

let sweep_stale_removes_old_orphans () =
  in_temp_dir (fun dir ->
      let old_orphan = Filename.concat dir ".ms2dead.tmp" in
      let new_orphan = Filename.concat dir ".ms2live.tmp" in
      let bystander = Filename.concat dir "data.txt" in
      write_file old_orphan "x";
      write_file new_orphan "y";
      write_file bystander "z";
      (* age the stale orphan past the cutoff *)
      let past = Unix.gettimeofday () -. 7200. in
      Unix.utimes old_orphan past past;
      let removed = Atomic_io.sweep_stale dir in
      Alcotest.(check int) "exactly the aged orphan is swept" 1 removed;
      Alcotest.(check bool) "aged orphan gone" false (Sys.file_exists old_orphan);
      Alcotest.(check bool) "fresh orphan kept" true (Sys.file_exists new_orphan);
      Alcotest.(check bool) "bystander kept" true (Sys.file_exists bystander))

(* ------------------------------------------------------------------ *)
(* Snapshot save/load (in-process)                                     *)
(* ------------------------------------------------------------------ *)

let expand_ok engine src =
  match Ms2.Api.expand ~source:"rec.mc" engine src with
  | Ok out -> out
  | Error e -> Alcotest.failf "unexpected failure: %s" e

(* Fill a shared store, snapshot it, restore into a fresh store, and
   prove the restored cache replays: same bytes, real hits. *)
let snapshot_roundtrip () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "snap.bin" in
      let s1 = Ms2.Api.create_shared_cache () in
      let e1 = Ms2.Api.create_engine ~cache_store:s1 () in
      ignore (expand_ok e1 defs);
      let out1 = expand_ok e1 uses in
      let sv =
        match Ms2.Api.save_shared_cache s1 path with
        | Ok sv -> sv
        | Error e -> Alcotest.failf "save failed: %s" e
      in
      Alcotest.(check bool)
        "snapshot holds entries" true
        (sv.Ms2.Engine.sv_entries > 0);
      let s2 = Ms2.Api.create_shared_cache () in
      let l = Ms2.Api.load_shared_cache s2 path in
      Alcotest.(check (option string)) "clean load" None l.Ms2.Engine.ld_error;
      Alcotest.(check int)
        "every entry restored" sv.Ms2.Engine.sv_entries
        l.Ms2.Engine.ld_entries;
      let e2 = Ms2.Api.create_engine ~cache_store:s2 () in
      ignore (expand_ok e2 defs);
      let out2 = expand_ok e2 uses in
      Alcotest.(check string) "replayed bytes are identical" out1 out2;
      let st = Ms2.Api.stats e2 in
      Alcotest.(check bool)
        (Printf.sprintf "restored cache replays (%d hits)"
           st.Ms2.Api.cache_hits)
        true
        (st.Ms2.Api.cache_hits > 0))

(* The corruption golden: every damaged variant must load as a cold
   cache (zero entries, [ld_error] set, warning counter bumped) and the
   output expanded against it must equal the --no-cache rendering. *)
let corrupt_load ~label (damage : string -> string) () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "snap.bin" in
      let s1 = Ms2.Api.create_shared_cache () in
      let e1 = Ms2.Api.create_engine ~cache_store:s1 () in
      ignore (expand_ok e1 defs);
      let out_ref = expand_ok e1 uses in
      (match Ms2.Api.save_shared_cache s1 path with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "save failed: %s" e);
      write_file path (damage (read_file path));
      let warn = Obs.Metrics.counter "snapshot.load.warnings" in
      let before = Obs.Metrics.value warn in
      let s2 = Ms2.Api.create_shared_cache () in
      let l = Ms2.Api.load_shared_cache s2 path in
      Alcotest.(check bool)
        (label ^ ": load reports an error") true
        (l.Ms2.Engine.ld_error <> None);
      Alcotest.(check int) (label ^ ": cold cache") 0 l.Ms2.Engine.ld_entries;
      Alcotest.(check int)
        (label ^ ": one load warning") 1 l.Ms2.Engine.ld_warnings;
      Alcotest.(check int)
        (label ^ ": warning counter bumped") (before + 1)
        (Obs.Metrics.value warn);
      (* the degraded run must still produce exactly the no-cache bytes *)
      let e2 = Ms2.Api.create_engine ~cache_store:s2 () in
      ignore (expand_ok e2 defs);
      let out_cold = expand_ok e2 uses in
      let e3 = Ms2.Api.create_engine ~cache:false () in
      ignore (expand_ok e3 defs);
      let out_nocache = expand_ok e3 uses in
      Alcotest.(check string)
        (label ^ ": degraded output matches the reference") out_ref out_cold;
      Alcotest.(check string)
        (label ^ ": degraded output matches --no-cache") out_nocache out_cold)

(* cut inside the header: a record cut short at the end of the file is
   a torn tail, which keeps the records before it ("resume from
   --cache-file") *)
let truncate_header s = String.sub s 0 20

let flip_middle_bit s =
  let b = Bytes.of_string s in
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  Bytes.to_string b

(* a snapshot written by a future format: same magic, bumped version *)
let skew_version s =
  let b = Bytes.of_string s in
  Bytes.set b 8 (Char.chr 0xEE);
  Bytes.to_string b

(* a snapshot stamped with an older format version, same magic and
   build: 3 is the format before checkpoints held maps, 6 the one whose
   entries carried compiled-pattern name lists *)
let format_version v s =
  let b = Bytes.of_string s in
  Bytes.set_int32_le b 8 v;
  Bytes.to_string b

(* a snapshot stamped by a different build of the binary: magic and
   format version intact, build fingerprint (bytes 12-27) flipped *)
let skew_build s =
  let b = Bytes.of_string s in
  Bytes.set b 12 (Char.chr (Char.code (Bytes.get b 12) lxor 0x01));
  Bytes.to_string b

(* With [snapshot/save] armed the save must fail softly (an [Error],
   no file, no crash); with [snapshot/load] armed a load degrades cold
   exactly like corruption. *)
let snapshot_failpoints_soft () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "snap.bin" in
      let s1 = Ms2.Api.create_shared_cache () in
      let e1 = Ms2.Api.create_engine ~cache_store:s1 () in
      ignore (expand_ok e1 defs);
      ignore (expand_ok e1 uses);
      (match Failpoint.arm_spec "snapshot/save=error" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "cannot arm: %s" e);
      Fun.protect ~finally:Failpoint.reset (fun () ->
          match Ms2.Api.save_shared_cache s1 path with
          | Ok _ -> Alcotest.fail "save succeeded with snapshot/save armed"
          | Error _ ->
              Alcotest.(check bool)
                "no snapshot file appears" false (Sys.file_exists path));
      (match Ms2.Api.save_shared_cache s1 path with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "clean save failed: %s" e);
      (match Failpoint.arm_spec "snapshot/load=error" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "cannot arm: %s" e);
      Fun.protect ~finally:Failpoint.reset (fun () ->
          let s2 = Ms2.Api.create_shared_cache () in
          let l = Ms2.Api.load_shared_cache s2 path in
          Alcotest.(check bool)
            "armed load degrades cold" true
            (l.Ms2.Engine.ld_error <> None && l.Ms2.Engine.ld_entries = 0)))

(* ------------------------------------------------------------------ *)
(* Fork siblings: the --supervise worker pattern                       *)
(* ------------------------------------------------------------------ *)

let rec reap pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> reap pid

(* Run [f] in a fork child; its int result becomes the exit code. *)
let in_fork_child ~(name : string) (f : unit -> int) : unit =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      let code = try f () with _ -> 100 in
      Unix._exit code
  | pid -> (
      match reap pid with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED c -> Alcotest.failf "%s: child exited %d" name c
      | _ -> Alcotest.failf "%s: child died on a signal" name)

(* Two successive fork children of one parent — exactly the supervised
   worker lifecycle.  Worker A populates a cache and snapshots it;
   worker B, a fresh fork sharing everything A inherited from the
   parent, loads A's snapshot.  Keys are content digests, so the load
   must come back warm with A's exact bytes. *)
let fork_sibling_load_is_warm () =
  in_temp_dir (fun dir ->
      let snap = Filename.concat dir "snap.bin" in
      let out_a = Filename.concat dir "a.c" in
      let out_b = Filename.concat dir "b.c" in
      in_fork_child ~name:"worker A" (fun () ->
          let s = Ms2.Api.create_shared_cache () in
          let e = Ms2.Api.create_engine ~cache_store:s () in
          ignore (expand_ok e defs);
          write_file out_a (expand_ok e uses);
          match Ms2.Api.save_shared_cache s snap with
          | Ok _ -> 0
          | Error _ -> 1);
      in_fork_child ~name:"worker B" (fun () ->
          let s = Ms2.Api.create_shared_cache () in
          let l = Ms2.Api.load_shared_cache s snap in
          if l.Ms2.Engine.ld_error <> None then 2
          else if l.Ms2.Engine.ld_entries = 0 then 3
          else begin
            let e = Ms2.Api.create_engine ~cache_store:s () in
            ignore (expand_ok e defs);
            write_file out_b (expand_ok e uses);
            if (Ms2.Api.stats e).Ms2.Api.cache_hits > 0 then 0 else 4
          end);
      Alcotest.(check string)
        "the restarted sibling replays A's exact bytes" (read_file out_a)
        (read_file out_b))

(* A sibling that registered the same definitions itself before loading
   holds the definition digest A keyed its entries on, so every entry
   loads and [uses] replays.  B reports what it saw through a file, so
   a failure names the counts. *)
let fork_sibling_same_defs_replays () =
  in_temp_dir (fun dir ->
      let snap = Filename.concat dir "snap.bin" in
      let report = Filename.concat dir "report.txt" in
      in_fork_child ~name:"worker A" (fun () ->
          let s = Ms2.Api.create_shared_cache () in
          let e = Ms2.Api.create_engine ~cache_store:s () in
          ignore (expand_ok e defs);
          ignore (expand_ok e uses);
          match Ms2.Api.save_shared_cache s snap with
          | Ok _ -> 0
          | Error _ -> 1);
      in_fork_child ~name:"worker B" (fun () ->
          let s = Ms2.Api.create_shared_cache () in
          let e = Ms2.Api.create_engine ~cache_store:s () in
          ignore (expand_ok e defs);
          let l = Ms2.Api.load_shared_cache s snap in
          let hits0 = (Ms2.Api.stats e).Ms2.Api.cache_hits in
          ignore (expand_ok e uses);
          write_file report
            (Printf.sprintf "loaded %d dropped %d; uses hits %d"
               l.Ms2.Engine.ld_entries l.Ms2.Engine.ld_dropped
               ((Ms2.Api.stats e).Ms2.Api.cache_hits - hits0));
          0);
      Alcotest.(check string)
        "B loads every entry and replays uses"
        "loaded 2 dropped 0; uses hits 1" (read_file report))

(* The wrong replay a definition identity must rule out.  A and B fork
   from one parent; A defines the macro, B a variant with a different
   body, and B then loads A's snapshot.  A's entry for [uses] is keyed
   on A's definition digest, which B's tables do not have, so B's
   [uses] must miss and expand with B's own body. *)
let fork_sibling_variant_misses () =
  in_temp_dir (fun dir ->
      let snap = Filename.concat dir "snap.bin" in
      let out_b = Filename.concat dir "b.c" in
      let defs_variant =
        "syntax stmt Painting {| $$stmt::body |} {\n\
         return `{AltBegin(hDC);\n\
         $body;\n\
         AltEnd(hDC);};\n\
         }\n"
      in
      in_fork_child ~name:"worker A" (fun () ->
          let s = Ms2.Api.create_shared_cache () in
          let e = Ms2.Api.create_engine ~cache_store:s () in
          ignore (expand_ok e defs);
          ignore (expand_ok e uses);
          match Ms2.Api.save_shared_cache s snap with
          | Ok _ -> 0
          | Error _ -> 1);
      in_fork_child ~name:"worker B" (fun () ->
          let s = Ms2.Api.create_shared_cache () in
          let e = Ms2.Api.create_engine ~cache_store:s () in
          (* register the variant FIRST, so B's tables differ from A's *)
          ignore (expand_ok e defs_variant);
          let l = Ms2.Api.load_shared_cache s snap in
          if l.Ms2.Engine.ld_error <> None then 2
          else begin
            write_file out_b (expand_ok e uses);
            0
          end);
      let got = read_file out_b in
      check_contains ~msg:"B expands with its own macro body"
        ~sub:"AltBegin" got;
      Alcotest.(check bool)
        "A's cached output is not replayed over B's tables" false
        (let sub = "BeginPaint" in
         let n = String.length sub and m = String.length got in
         let rec go i = i + n <= m && (String.sub got i n = sub || go (i + 1)) in
         go 0))

(* ------------------------------------------------------------------ *)
(* Subprocess plumbing                                                 *)
(* ------------------------------------------------------------------ *)

let quote = Filename.quote

(* Run ms2c via the shell: returns the exit code.  [env] prefixes
   variable assignments (e.g. failpoint arming) onto the command. *)
let run_ms2c ?(env = "") args ~out ~err : int =
  Sys.command
    (Printf.sprintf "%s%s %s > %s 2> %s"
       (if env = "" then "" else env ^ " ")
       ms2c args (quote out) (quote err))

(* [-o] naming a FIFO writes into it: its reader gets the expansion, and
   it is still a FIFO (renaming a file over it would replace it). *)
let output_to_fifo () =
  in_temp_dir (fun dir ->
      let src = Filename.concat dir "in.mc" in
      write_file src "int x = 1;\n";
      let fifo = Filename.concat dir "out.fifo" in
      Unix.mkfifo fifo 0o600;
      (* a reader that does not wait for a writer *)
      let fd = Unix.openfile fifo [ Unix.O_RDONLY; Unix.O_NONBLOCK ] 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let code =
            run_ms2c
              (Printf.sprintf "expand -o %s %s" (quote fifo) (quote src))
              ~out:(Filename.concat dir "out.txt")
              ~err:(Filename.concat dir "err.txt")
          in
          Alcotest.(check int) "exit" 0 code;
          let buf = Bytes.create 4096 in
          let n = Unix.read fd buf 0 (Bytes.length buf) in
          Alcotest.(check string) "the reader gets the expansion"
            "int x = 1;\n" (Bytes.sub_string buf 0 n);
          Alcotest.(check bool) "still a FIFO" true
            ((Unix.stat fifo).Unix.st_kind = Unix.S_FIFO)))

let corpus_files dir n =
  List.init n (fun i ->
      let p = Filename.concat dir (Printf.sprintf "f%d.mc" i) in
      write_file p
        (defs
        ^ Printf.sprintf
            "int draw%d(int hDC)\n\
             {\n\
            \  Painting { line(%d, 2); }\n\
            \  return %d;\n\
             }\n"
            i i i);
      p)

let quoted_list paths = String.concat " " (List.map quote paths)

(* ------------------------------------------------------------------ *)
(* Resume from --cache-file: kill -9 mid-batch, then rerun             *)
(* ------------------------------------------------------------------ *)

(* The complete entries in a snapshot log: pairs of [len | MD5 |
   payload] records after the 28-byte header, a torn final pair not
   counted. *)
let log_entries path =
  match read_file path with
  | exception Sys_error _ -> 0
  | raw ->
      let len = String.length raw in
      let rec go pos records =
        if pos + 20 > len then records
        else
          let n = Int32.to_int (String.get_int32_le raw pos) in
          if pos + 20 + n > len then records
          else go (pos + 20 + n) (records + 1)
      in
      if len < 28 then 0 else go 28 0 / 2

(* A file whose macro counts to [steps]: under [--fuel 0
   --invocation-fuel 0] real work that takes a while.  A failpoint
   cannot wedge the batch instead: it makes the cache stand aside. *)
let slow_file dir steps =
  let p = Filename.concat dir "slow.mc" in
  write_file p
    (Printf.sprintf
       "syntax stmt spin {| ; |} {\n\
       \  int i;\n\
       \  i = 0;\n\
       \  while (i < %d) i = i + 1;\n\
       \  return `{;};\n\
        }\n\
        int slow(void) { spin; return 0; }\n"
       steps);
  p

(* The flagship recovery scenario.  A 3-file batch is started with the
   third file busy for a couple of seconds; once the snapshot shows two
   appended entries the process is killed with SIGKILL — the one signal
   nothing can clean up after.  Rerun over the same file, the batch
   must replay those two, expand only the third, and emit byte for byte
   what an uninterrupted batch produces. *)
let kill9_rerun_byte_identity () =
  in_temp_dir (fun dir ->
      let files = corpus_files dir 2 @ [ slow_file dir 8_000_000 ] in
      let flags = [ "--jobs"; "1"; "--fuel"; "0"; "--invocation-fuel"; "0" ] in
      let out_clean = Filename.concat dir "clean.c" in
      let out_rerun = Filename.concat dir "rerun.c" in
      let snap = Filename.concat dir "batch.snap" in
      let code =
        run_ms2c
          (Printf.sprintf "expand %s %s --no-cache -o %s" (quoted_list files)
             (String.concat " " flags) (quote out_clean))
          ~out:(Filename.concat dir "ignore1")
          ~err:(Filename.concat dir "err1.txt")
      in
      Alcotest.(check int) "uninterrupted batch succeeds" 0 code;
      let argv =
        Array.of_list
          ((ms2c :: "expand" :: files)
          @ flags @ [ "--cache-file"; snap; "-o"; out_rerun ])
      in
      let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let pid = Unix.create_process ms2c argv Unix.stdin devnull devnull in
      Unix.close devnull;
      (* wait (bounded) for the two finished files to reach the file *)
      let deadline = Unix.gettimeofday () +. 30. in
      while log_entries snap < 2 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.05
      done;
      Alcotest.(check int) "two files appended before the crash" 2
        (log_entries snap);
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Alcotest.(check bool)
        "the batch died before writing its output" false
        (Sys.file_exists out_rerun);
      let err2 = Filename.concat dir "err2.txt" in
      let code =
        run_ms2c
          (Printf.sprintf "expand %s %s --cache-file %s --stats -o %s"
             (quoted_list files) (String.concat " " flags) (quote snap)
             (quote out_rerun))
          ~out:(Filename.concat dir "ignore2") ~err:err2
      in
      Alcotest.(check int) "the rerun succeeds" 0 code;
      check_contains ~msg:"the two finished files replay"
        ~sub:"cache hits: 2\n" (read_file err2);
      check_contains ~msg:"the third expands" ~sub:"cache misses: 1\n"
        (read_file err2);
      Alcotest.(check string)
        "rerun output is byte-identical to the uninterrupted batch"
        (read_file out_clean) (read_file out_rerun))

(* A pair cut short at the end of the file — what a kill mid-append
   leaves — is dropped; the entries before it still replay, and the
   load rewrites the file before the re-expanded file is appended. *)
let torn_tail_keeps_prefix () =
  in_temp_dir (fun dir ->
      let files = corpus_files dir 3 in
      let snap = Filename.concat dir "batch.snap" in
      let err = Filename.concat dir "err.txt" in
      let expand name =
        let out = Filename.concat dir name in
        Alcotest.(check int) (name ^ ": exit") 0
          (run_ms2c
             (Printf.sprintf "expand %s --jobs 1 --stats --cache-file %s -o %s"
                (quoted_list files) (quote snap) (quote out))
             ~out:(Filename.concat dir "ignore") ~err);
        read_file out
      in
      let cold = expand "cold.c" in
      Alcotest.(check int) "three entries appended" 3 (log_entries snap);
      let raw = read_file snap in
      write_file snap (String.sub raw 0 (String.length raw - 10));
      Alcotest.(check int) "the tear costs the last entry" 2 (log_entries snap);
      let torn = expand "torn.c" in
      let stats = read_file err in
      check_contains ~msg:"the torn entry is dropped, the file rewritten"
        ~sub:"loaded 2 entries (1 dropped, 0 warnings), rewritten\n" stats;
      check_contains ~msg:"the prefix replays" ~sub:"cache hits: 2\n" stats;
      check_contains ~msg:"the torn file expands" ~sub:"cache misses: 1\n"
        stats;
      Alcotest.(check string) "byte-identical" cold torn;
      Alcotest.(check int) "the log is whole again" 3 (log_entries snap);
      ignore (expand "warm.c");
      check_contains ~msg:"and replays every file" ~sub:"cache hits: 3\n"
        (read_file err))

(* ------------------------------------------------------------------ *)
(* The recovery failpoint sweep                                        *)
(* ------------------------------------------------------------------ *)

(* Every persistence failpoint, armed one at a time, over two runs on
   one --cache-file: a cold run that appends every entry, then — after
   the file's last entry is torn — a warm run that reads the file and
   rewrites it.  Each site must be reached (the run's warning names
   it), each run must exit 0 with byte-identical output: persistence
   failures degrade, they never corrupt or kill the run. *)
let persistence_failpoint_sweep () =
  in_temp_dir (fun dir ->
      let files = corpus_files dir 2 in
      (* output goes to stdout: the [io/rename] leg deliberately breaks
         every Atomic_io write, which would make a [-o] target itself
         fail — the property under test is that the *persistence* layer
         degrades without touching the expansion result *)
      let out_ref = Filename.concat dir "ref.c" in
      let code =
        run_ms2c
          (Printf.sprintf "expand %s --jobs 1" (quoted_list files))
          ~out:out_ref ~err:(Filename.concat dir "e0")
      in
      Alcotest.(check int) "reference run succeeds" 0 code;
      let sites = List.filter Failpoint.persist_site Failpoint.sites in
      Alcotest.(check bool) "the sweep covers the append" true
        (List.mem "snapshot/append" sites);
      List.iteri
        (fun i site ->
          let snap = Filename.concat dir (Printf.sprintf "s%d.snap" i) in
          let run leg =
            let out = Filename.concat dir (Printf.sprintf "s%d%s.c" i leg) in
            let err = Filename.concat dir (Printf.sprintf "e%d%s" i leg) in
            let code =
              run_ms2c
                ~env:
                  (Printf.sprintf "MS2_FAILPOINTS=%s"
                     (quote (site ^ "=error")))
                (Printf.sprintf "expand %s --jobs 1 --cache-file %s"
                   (quoted_list files) (quote snap))
                ~out ~err
            in
            Alcotest.(check int) (site ^ " " ^ leg ^ ": batch exits 0") 0 code;
            Alcotest.(check string)
              (site ^ " " ^ leg ^ ": output is byte-identical")
              (read_file out_ref) (read_file out);
            read_file err
          in
          let cold = run "cold" in
          if Sys.file_exists snap then begin
            let raw = read_file snap in
            write_file snap (String.sub raw 0 (String.length raw - 1))
          end;
          let warm = run "warm" in
          check_contains ~msg:(site ^ " is reached")
            ~sub:("failpoint " ^ site) (cold ^ warm))
        sites)

(* ------------------------------------------------------------------ *)
(* The warm --cache-file path                                          *)
(* ------------------------------------------------------------------ *)

let file_identity path =
  let st = Unix.stat path in
  (st.Unix.st_ino, st.Unix.st_mtime, read_file path)

(* A warm batch in which every file hits leaves the snapshot exactly as
   it was — same bytes, same inode, same mtime — and prints the same
   output as --no-cache.  Editing one input makes the next run miss
   once, and that run appends one entry to the same file. *)
let warm_run_leaves_snapshot_unwritten () =
  in_temp_dir (fun dir ->
      let files = corpus_files dir 3 in
      let snap = Filename.concat dir "warm.snap" in
      let out n = Filename.concat dir n in
      let err = Filename.concat dir "err.txt" in
      let expand ?(extra = "") name =
        let code =
          run_ms2c
            (Printf.sprintf "expand --jobs 2 %s %s" extra (quoted_list files))
            ~out:(out name) ~err
        in
        Alcotest.(check int) (name ^ ": exit") 0 code;
        read_file err
      in
      ignore (expand "ref.c" ~extra:"--no-cache");
      ignore (expand "prime.c" ~extra:("--cache-file " ^ quote snap));
      let before = file_identity snap in
      let stats =
        expand "warm.c" ~extra:("--stats --cache-file " ^ quote snap)
      in
      check_contains ~msg:"every file hits" ~sub:"cache misses: 0\n" stats;
      check_contains ~msg:"nothing is appended"
        ~sub:"cache snapshot: appended 0 entries\n" stats;
      Alcotest.(check bool) "snapshot untouched" true
        (file_identity snap = before);
      Alcotest.(check string) "warm output is byte-identical to --no-cache"
        (read_file (out "ref.c")) (read_file (out "warm.c"));
      write_file (List.hd files) (read_file (List.hd files) ^ "int edited;\n");
      let stats =
        expand "edited.c" ~extra:("--stats --cache-file " ^ quote snap)
      in
      check_contains ~msg:"the edited file misses" ~sub:"cache misses: 1\n"
        stats;
      check_contains ~msg:"and is appended"
        ~sub:"cache snapshot: appended 1 entries\n" stats;
      let ino, _, bytes = file_identity snap in
      let ino0, _, bytes0 = before in
      Alcotest.(check int) "on the same inode" ino0 ino;
      Alcotest.(check bool) "after the bytes that were there" true
        (String.length bytes > String.length bytes0
        && String.sub bytes 0 (String.length bytes0) = bytes0);
      Alcotest.(check int) "the log holds 4 entries" 4 (log_entries snap))

(* A warm --cache-file run of each (flags, file) hits and prints what
   --no-cache prints. *)
let warm_replays runs () =
  in_temp_dir (fun dir ->
      List.iteri
        (fun i (flags, file) ->
          let snap = Filename.concat dir (Printf.sprintf "m%d.snap" i) in
          let out name = Filename.concat dir (Printf.sprintf "%s%d.c" name i) in
          let err = Filename.concat dir "err.txt" in
          let expand name extra =
            let code =
              run_ms2c
                (Printf.sprintf "expand %s %s %s" flags extra (quote file))
                ~out:(out name) ~err
            in
            Alcotest.(check int) (file ^ " " ^ name ^ ": exit") 0 code;
            read_file err
          in
          ignore (expand "ref" "--no-cache");
          ignore (expand "cold" ("--cache-file " ^ quote snap));
          let stats = expand "warm" ("--stats --cache-file " ^ quote snap) in
          let hits =
            List.find_map
              (fun line ->
                Scanf.sscanf_opt line "cache hits: %d" Fun.id)
              (String.split_on_char '\n' stats)
          in
          Alcotest.(check bool) (file ^ ": warm hits") true
            (match hits with Some n -> n > 0 | None -> false);
          Alcotest.(check string) (file ^ ": warm output is --no-cache's")
            (read_file (out "ref")) (read_file (out "warm")))
        runs)

(* Globals holding meta functions are stored, saved and replayed like
   any other state: [window_proc.mc] defines meta functions, and the
   prelude defines [bf_items]. *)
let warm_meta_function_globals =
  warm_replays
    [ ("", "corpus/window_proc.mc"); ("--prelude", "corpus/control.mc") ]

(* So are runs that mint names (the counters are in the key and the
   stored post-state) and globals holding an escaped lambda (a frozen
   copy, digested by value). *)
let warm_closed_state =
  warm_replays
    [ ("--hygienic", "corpus/hygienic_swap.mc");
      ("", "corpus/dynamic_bind.mc");
      ("", "corpus/escaped_lambda.mc") ]

(* --trace-out shows the snapshot load and save on a track of their own,
   after the input files' tracks. *)
let snapshot_spans_traced () =
  in_temp_dir (fun dir ->
      let files = corpus_files dir 2 in
      let snap = Filename.concat dir "warm.snap" in
      let trace = Filename.concat dir "trace.json" in
      let code =
        run_ms2c
          (Printf.sprintf "expand --cache-file %s --trace-out %s %s"
             (quote snap) (quote trace) (quoted_list files))
          ~out:(Filename.concat dir "out.c")
          ~err:(Filename.concat dir "err.txt")
      in
      Alcotest.(check int) "exit" 0 code;
      let events =
        match Json.parse (read_file trace) with
        | Ok j -> (
            match Option.bind (Json.member j "traceEvents") Json.list with
            | Some l -> l
            | None -> Alcotest.fail "no traceEvents")
        | Error e -> Alcotest.failf "trace is not JSON: %s" e
      in
      let field name e = Option.bind (Json.member e name) Json.str in
      let pid e = Option.bind (Json.member e "pid") Json.int in
      let driver =
        List.find_map
          (fun e ->
            match Option.bind (Json.member e "args") (field "name") with
            | Some "driver" -> pid e
            | _ -> None)
          events
      in
      Alcotest.(check (option int)) "the driver track follows the 2 files"
        (Some 2) driver;
      let spans =
        List.filter_map
          (fun e -> if pid e = driver then field "name" e else None)
          events
      in
      Alcotest.(check bool) "load and save spans" true
        (List.mem "load" spans && List.mem "save" spans))

(* The same file twice under --jobs 2 --semantic-check: both domains hit
   one restored entry and force its program at once. *)
let warm_semantic_check_shares_decode () =
  in_temp_dir (fun dir ->
      let file = List.hd (corpus_files dir 1) in
      let snap = Filename.concat dir "warm.snap" in
      let args extra =
        Printf.sprintf "expand --jobs 2 --semantic-check %s %s %s" extra
          (quote file) (quote file)
      in
      let out n = Filename.concat dir n in
      let err = Filename.concat dir "err.txt" in
      let run name extra =
        Alcotest.(check int) (name ^ ": exit") 0
          (run_ms2c (args extra) ~out:(out name) ~err)
      in
      run "ref.c" "--no-cache";
      run "prime.c" ("--cache-file " ^ quote snap);
      for i = 1 to 5 do
        let name = Printf.sprintf "warm%d.c" i in
        run name ("--stats --cache-file " ^ quote snap);
        check_contains ~msg:"both replay" ~sub:"cache hits: 2\n"
          (read_file err);
        Alcotest.(check string) "byte-identical" (read_file (out "ref.c"))
          (read_file (out name))
      done)

(* ------------------------------------------------------------------ *)
(* Daemon: corrupted --cache-file and pidfile reclaim                  *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; din : in_channel; dout : out_channel }

let start_daemon ?(args = []) () =
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let stdout_r, stdout_w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (ms2c :: "serve" :: args) in
  let pid = Unix.create_process ms2c argv stdin_r stdout_w Unix.stderr in
  Unix.close stdin_r;
  Unix.close stdout_w;
  {
    pid;
    din = Unix.in_channel_of_descr stdout_r;
    dout = Unix.out_channel_of_descr stdin_w;
  }

let with_daemon ?args f =
  ignore (Unix.alarm 120);
  let d = start_daemon ?args () in
  Fun.protect
    ~finally:(fun () ->
      (try close_out d.dout with Sys_error _ -> ());
      (try close_in d.din with Sys_error _ -> ());
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (reap d.pid) with Unix.Unix_error _ -> ());
      ignore (Unix.alarm 0))
    (fun () -> f d)

let next_id = ref 0

let rpc d fields =
  incr next_id;
  output_string d.dout
    (Json.to_string (Json.Obj (("id", Json.Int !next_id) :: fields)));
  output_char d.dout '\n';
  flush d.dout;
  match Json.parse (input_line d.din) with
  | Ok v -> v
  | Error e -> Alcotest.failf "unparseable response: %s" e

let is_ok v =
  match Json.member v "ok" with Some (Json.Bool b) -> b | _ -> false

(* A daemon pointed at a damaged snapshot must come up healthy and
   serve — the warmth is lost, nothing else. *)
let daemon_survives_corrupt_cache_file () =
  in_temp_dir (fun dir ->
      let snap = Filename.concat dir "snap.bin" in
      write_file snap "MS2SNAP\001garbage that is definitely not a snapshot";
      with_daemon ~args:[ "--cache-file"; snap ] (fun d ->
          let r = rpc d [ ("method", Json.Str "ping") ] in
          Alcotest.(check bool) "daemon answers ping" true (is_ok r);
          let r =
            rpc d
              [ ("method", Json.Str "expand");
                ("session", Json.Str "s1");
                ("text", Json.Str "int f(void) { return 1; }") ]
          in
          Alcotest.(check bool) "daemon expands" true (is_ok r);
          (* and an on-demand snapshot repairs the file in place *)
          let r = rpc d [ ("method", Json.Str "snapshot") ] in
          Alcotest.(check bool) "snapshot admin method works" true (is_ok r)))

let snapshot_method_needs_cache_file () =
  with_daemon (fun d ->
      let r = rpc d [ ("method", Json.Str "snapshot") ] in
      Alcotest.(check bool) "refused without --cache-file" false (is_ok r))

(* Warm restart through the daemon: drain saves the snapshot, a second
   daemon loads it and replays the same session fragment as a hit. *)
let daemon_restart_is_warm () =
  in_temp_dir (fun dir ->
      let snap = Filename.concat dir "snap.bin" in
      let frag = "int f(void) { return 40 + 2; }" in
      let expand_once () =
        ignore (Unix.alarm 120);
        let d = start_daemon ~args:[ "--cache-file"; snap ] () in
        Fun.protect
          ~finally:(fun () ->
            (try close_out d.dout with Sys_error _ -> ());
            (try close_in d.din with Sys_error _ -> ());
            (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
            (try ignore (reap d.pid) with Unix.Unix_error _ -> ());
            ignore (Unix.alarm 0))
          (fun () ->
            let r =
              rpc d
                [ ("method", Json.Str "expand");
                  ("session", Json.Str "s1");
                  ("text", Json.Str frag) ]
            in
            Alcotest.(check bool) "expand ok" true (is_ok r);
            let hits =
              match
                Option.bind (Json.member r "request") (fun rq ->
                    Option.bind (Json.member rq "cache_hits") Json.int)
              with
              | Some n -> n
              | None -> -1
            in
            (* EOF is the drain: the daemon snapshots the store on its
               way out, so wait for the clean exit before returning *)
            (try close_out d.dout with Sys_error _ -> ());
            ignore (reap d.pid);
            ( Option.value ~default:""
                (Option.bind (Json.member r "output") Json.str),
              hits ))
      in
      let out1, hits1 = expand_once () in
      Alcotest.(check int) "first run is a miss" 0 hits1;
      Alcotest.(check bool) "drain wrote the snapshot" true
        (Sys.file_exists snap);
      let out2, hits2 = expand_once () in
      Alcotest.(check string) "restart replays the same bytes" out1 out2;
      Alcotest.(check int) "restart is warm (cache hit)" 1 hits2)

(* A daemon whose store evicts rewrites its file at a save point once
   the file holds more than twice the live entries.  A unit's size
   estimate is 8 bytes per byte of text, so a 1 MiB comment makes an
   8 MiB entry: the 64 MiB store keeps about seven of the 24. *)
let evicting_daemon_log_stays_bounded () =
  in_temp_dir (fun dir ->
      let snap = Filename.concat dir "snap.bin" in
      with_daemon ~args:[ "--cache-file"; snap ] (fun d ->
          let pad = "/*" ^ String.make (1 lsl 20) ' ' ^ "*/\n" in
          for i = 1 to 24 do
            let r =
              rpc d
                [ ("method", Json.Str "expand");
                  ("session", Json.Str "big");
                  ("text", Json.Str (Printf.sprintf "%sint x%d;\n" pad i)) ]
            in
            Alcotest.(check bool) "expand ok" true (is_ok r)
          done;
          let r = rpc d [ ("method", Json.Str "snapshot") ] in
          Alcotest.(check bool) "snapshot ok" true (is_ok r);
          let field name =
            match Option.bind (Json.member r name) Json.int with
            | Some n -> n
            | None -> Alcotest.failf "snapshot reply lacks %S" name
          in
          let entries = field "entries" and records = field "records" in
          Alcotest.(check bool)
            (Printf.sprintf "the store evicted (%d live)" entries)
            true (entries < 24);
          Alcotest.(check bool)
            (Printf.sprintf "%d records within twice %d live entries" records
               entries)
            true
            (records <= 2 * entries);
          Alcotest.(check int) "the file holds what the reply says" records
            (log_entries snap)))

let stale_pidfile_is_reclaimed () =
  in_temp_dir (fun dir ->
      let pidfile = Filename.concat dir "d.pid" in
      (* a pid that no process on a Linux box can have (> pid_max),
         plus the malformed variant *)
      List.iter
        (fun contents ->
          write_file pidfile contents;
          with_daemon ~args:[ "--pidfile"; pidfile ] (fun d ->
              let r = rpc d [ ("method", Json.Str "ping") ] in
              Alcotest.(check bool)
                ("daemon starts over a stale pidfile: " ^ contents) true
                (is_ok r);
              Alcotest.(check string)
                "the pidfile now holds the live daemon"
                (string_of_int d.pid)
                (String.trim (read_file pidfile))))
        [ "99999999"; "not-a-pid" ])

let live_pidfile_refuses_second_daemon () =
  in_temp_dir (fun dir ->
      let pidfile = Filename.concat dir "d.pid" in
      (* our own test process is certainly alive *)
      write_file pidfile (string_of_int (Unix.getpid ()) ^ "\n");
      ignore (Unix.alarm 60);
      let d = start_daemon ~args:[ "--pidfile"; pidfile ] () in
      let st = reap d.pid in
      (try close_out d.dout with Sys_error _ -> ());
      (try close_in d.din with Sys_error _ -> ());
      ignore (Unix.alarm 0);
      (match st with
      | Unix.WEXITED 1 -> ()
      | Unix.WEXITED c -> Alcotest.failf "expected exit 1, got %d" c
      | _ -> Alcotest.fail "daemon did not exit");
      Alcotest.(check string)
        "the live pidfile is untouched"
        (string_of_int (Unix.getpid ()))
        (String.trim (read_file pidfile)))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "recovery"
    [ ( "atomic-io",
        [ Alcotest.test_case "io/rename preserves old contents" `Quick
            rename_failpoint_preserves_old;
          Alcotest.test_case "sweep_stale removes aged orphans" `Quick
            sweep_stale_removes_old_orphans;
          Alcotest.test_case "a published file keeps its mode" `Quick
            write_keeps_modes;
          Alcotest.test_case "-o writes into a FIFO" `Quick output_to_fifo ] );
      ( "snapshot",
        [ Alcotest.test_case "roundtrip replays" `Quick snapshot_roundtrip;
          Alcotest.test_case "truncation degrades cold" `Quick
            (corrupt_load ~label:"truncated" truncate_header);
          Alcotest.test_case "bit flip degrades cold" `Quick
            (corrupt_load ~label:"bit-flipped" flip_middle_bit);
          Alcotest.test_case "version skew degrades cold" `Quick
            (corrupt_load ~label:"version-skewed" skew_version);
          Alcotest.test_case "format 3 degrades cold" `Quick
            (corrupt_load ~label:"format-3" (format_version 3l));
          Alcotest.test_case "format 6 degrades cold" `Quick
            (corrupt_load ~label:"format-6" (format_version 6l));
          Alcotest.test_case "foreign build degrades cold" `Quick
            (corrupt_load ~label:"foreign-build" skew_build);
          Alcotest.test_case "save/load failpoints are soft" `Quick
            snapshot_failpoints_soft ] );
      ( "fork-siblings",
        [ Alcotest.test_case "sibling load adopts and stays warm" `Quick
            fork_sibling_load_is_warm;
          Alcotest.test_case "same definitions first, then replay" `Quick
            fork_sibling_same_defs_replays;
          Alcotest.test_case "a different body misses, not replays" `Quick
            fork_sibling_variant_misses ] );
      ( "resume",
        [ Alcotest.test_case "kill -9 + rerun is byte-identical" `Quick
            kill9_rerun_byte_identity;
          Alcotest.test_case "a torn final record keeps the prefix" `Quick
            torn_tail_keeps_prefix;
          Alcotest.test_case "persistence failpoint sweep" `Quick
            persistence_failpoint_sweep ] );
      ( "warm path",
        [ Alcotest.test_case "meta-function globals replay warm" `Quick
            warm_meta_function_globals;
          Alcotest.test_case "fresh names and escaped lambdas replay warm"
            `Quick warm_closed_state;
          Alcotest.test_case "an all-hit run does not rewrite" `Quick
            warm_run_leaves_snapshot_unwritten;
          Alcotest.test_case "--semantic-check decodes a shared entry" `Quick
            warm_semantic_check_shares_decode;
          Alcotest.test_case "snapshot spans on the driver track" `Quick
            snapshot_spans_traced ] );
      ( "daemon",
        [ Alcotest.test_case "corrupt --cache-file stays healthy" `Quick
            daemon_survives_corrupt_cache_file;
          Alcotest.test_case "snapshot method needs --cache-file" `Quick
            snapshot_method_needs_cache_file;
          Alcotest.test_case "restart is warm" `Quick daemon_restart_is_warm;
          Alcotest.test_case "an evicting daemon's log is bounded" `Quick
            evicting_daemon_log_stays_bounded;
          Alcotest.test_case "stale pidfile is reclaimed" `Quick
            stale_pidfile_is_reclaimed;
          Alcotest.test_case "live pidfile refuses a second daemon" `Quick
            live_pidfile_refuses_second_daemon ] ) ]
