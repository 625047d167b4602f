(* Memoized by hand rather than [lazy]: a benign double computation
   under racing domains yields the same string, whereas concurrently
   forcing a lazy raises. *)
let computed : string option ref = ref None

let digest () : string =
  match !computed with
  | Some d -> d
  | None ->
      let d =
        match Digest.file Sys.executable_name with
        | d -> d
        | exception _ ->
            Digest.string
              (String.concat ":"
                 [ "ms2"; Sys.executable_name; Sys.ocaml_version ])
      in
      computed := Some d;
      d

(* The image is megabytes: a reader with other checksums to verify
   computes it beside them on a helper domain.  The join is memoized,
   so the returned function may be called any number of times. *)
let digest_async () : unit -> string =
  match !computed with
  | Some d -> fun () -> d
  | None -> (
      match Domain.spawn digest with
      | exception _ -> digest
      | helper ->
          let joined = ref None in
          fun () ->
            match !joined with
            | Some d -> d
            | None ->
                let d = Domain.join helper in
                joined := Some d;
                d)
