(* Prints build_id.ml: [digest], the MD5 of the source files named on
   the command line (each path with its contents, in path order), the
   compiler version and the word size.  Any change to a source, and so
   any change to a marshalled value's layout, gives a new digest. *)
let () =
  let files = List.sort compare (List.tl (Array.to_list Sys.argv)) in
  let b = Buffer.create 8192 in
  Printf.bprintf b "ocaml %s, %d-bit\n" Sys.ocaml_version Sys.word_size;
  List.iter
    (fun f -> Printf.bprintf b "%s %s\n" f (Digest.to_hex (Digest.file f)))
    files;
  print_string
    "(* Generated at build time by gen.ml: do not edit. *)\n\n\
     (** 16-byte stamp of this build: the MD5 of every source under lib/\n\
    \    and bin/, the compiler version and the word size. *)\n";
  Printf.printf "let digest = %S\n" (Digest.string (Buffer.contents b))
