(** Parser state.

    The parser is fully re-entrant, as the paper requires: all state
    lives in a [t] value, and nested parses (templates inside macro
    bodies inside programs, strings parsed during expansion) each operate
    on their own [t], sharing only the macro signature table and the meta
    type environment they were given. *)

open Ms2_syntax
open Ms2_support
module Mtype = Ms2_mtype.Mtype
module Tenv = Ms2_typing.Tenv

(** What the parser needs to know about a defined macro in order to parse
    its invocations: the invocation pattern and the declared return
    type. *)
type macro_sig = { sig_ret : Mtype.t; sig_pattern : Ast.pattern }

type t = {
  mutable compile_patterns : bool;
      (** compile each macro's pattern to a specialized parse routine at
          definition time (the acceleration the paper suggests in §3);
          disable for the ablation benchmark *)
  stream : Lexer.stream;
  toks : Token.t array;  (** [stream.toks] *)
  mutable pos : int;
  mutable loc_pos : int;
  mutable loc_memo : Loc.t;
      (** the location {!loc} built last, for token [loc_pos]: the nodes
          that start at one token share one location *)
  mutable typedef_scopes : (string, unit) Hashtbl.t list;
  macros : macro_sig Smap.t ref;
      (** the signatures in force; the ref is shared with the engine,
          which rolls back by storing an earlier map into it *)
  tenv : Tenv.t;
  mutable in_template : bool;
      (** parsing object code inside a backquote: placeholders are live *)
  mutable in_meta : bool;
      (** parsing meta code: backquote, lambdas, meta declarations live *)
  mutable ph_cache : (int * (Ast.expr * Mtype.t) * int) option;
      (** placeholder-token cache: (start position, parsed placeholder,
          end position).  This implements the paper's placeholder tokens:
          the "tokenizer" parses and types the [$]-expression once, and
          every parser routine can then look at its type. *)
  compiled_patterns : compiled_pattern Smap.t ref;
      (** specialized parse routines, keyed by macro name; shared with
          the engine like [macros] *)
  watchdog : Watchdog.t;
      (** wall-clock deadline, polled as tokens are consumed so a parse
          driven by a pathological pattern is bounded in time *)
}

(** A compiled invocation parser: runs the pattern against the input and
    returns the actual-parameter bindings. *)
and compiled_pattern = t -> (string * Ast.actual) list

let create ?macros ?tenv ?compiled ?watchdog (stream : Lexer.stream) : t =
  {
    compile_patterns = true;
    stream;
    toks = stream.Lexer.toks;
    pos = 0;
    loc_pos = -1;
    loc_memo = Loc.dummy;
    typedef_scopes = [ Hashtbl.create 16 ];
    macros = (match macros with Some m -> m | None -> ref Smap.empty);
    tenv = (match tenv with Some e -> e | None -> Tenv.create ());
    in_template = false;
    in_meta = false;
    ph_cache = None;
    compiled_patterns =
      (match compiled with Some c -> c | None -> ref Smap.empty);
    watchdog =
      (match watchdog with Some w -> w | None -> Watchdog.create ());
  }

let of_string ?origin ?macros ?tenv ?compiled ?watchdog
    ?(source = "<string>") ?(reject_reserved = false) text =
  create ?macros ?tenv ?compiled ?watchdog
    (Lexer.scan ?origin ~source ~reject_reserved text)

(* ------------------------------------------------------------------ *)
(* Token access                                                        *)
(* ------------------------------------------------------------------ *)

let peek st : Token.t = st.toks.(st.pos)

let peek_ahead st n : Token.t =
  let i = st.pos + n in
  if i < Array.length st.toks then st.toks.(i) else Token.EOF

let loc st : Loc.t =
  if st.loc_pos <> st.pos then begin
    st.loc_memo <- Lexer.loc st.stream st.pos;
    st.loc_pos <- st.pos
  end;
  st.loc_memo

(* The watchdog and the failpoint need a location only when they fire. *)
let advance st =
  if Watchdog.tick st.watchdog then Watchdog.check st.watchdog ~loc:(loc st);
  if Failpoint.armed () then
    Failpoint.hit ~watchdog:st.watchdog ~loc:(loc st) "parser/token";
  if st.pos < Array.length st.toks - 1 then st.pos <- st.pos + 1

let error st fmt = Diag.error ~loc:(loc st) Diag.Parsing fmt

let expect st (tok : Token.t) =
  if Token.equal (peek st) tok then advance st
  else
    error st "expected %S but found %S" (Token.to_string tok)
      (Token.to_string (peek st))

let accept st (tok : Token.t) : bool =
  if Token.equal (peek st) tok then (
    advance st;
    true)
  else false

let expect_ident st : Ast.ident =
  match peek st with
  | Token.IDENT name ->
      let l = loc st in
      advance st;
      { Ast.id_name = name; id_loc = l }
  | tok -> error st "expected an identifier but found %S" (Token.to_string tok)

(* ------------------------------------------------------------------ *)
(* Typedef scopes                                                      *)
(* ------------------------------------------------------------------ *)

let push_typedef_scope st =
  st.typedef_scopes <- Hashtbl.create 8 :: st.typedef_scopes

let pop_typedef_scope st =
  match st.typedef_scopes with
  | [] | [ _ ] -> invalid_arg "pop_typedef_scope: global scope"
  | _ :: rest -> st.typedef_scopes <- rest

let with_typedef_scope st f =
  push_typedef_scope st;
  Fun.protect ~finally:(fun () -> pop_typedef_scope st) f

let add_typedef st name =
  match st.typedef_scopes with
  | scope :: _ -> Hashtbl.replace scope name ()
  | [] -> assert false

let is_typedef_name st name =
  List.exists (fun scope -> Hashtbl.mem scope name) st.typedef_scopes

(* ------------------------------------------------------------------ *)
(* Macro table                                                         *)
(* ------------------------------------------------------------------ *)

let find_macro st name : macro_sig option = Smap.find_opt name !(st.macros)
let is_macro st name = Smap.mem name !(st.macros)
let register_macro st name msig = st.macros := Smap.add name msig !(st.macros)

(* ------------------------------------------------------------------ *)
(* Mode switches                                                       *)
(* ------------------------------------------------------------------ *)

let save_modes st = (st.in_template, st.in_meta)

let restore_modes st (tpl, meta) =
  st.in_template <- tpl;
  st.in_meta <- meta

(** Run [f] in template mode (object code inside a backquote). *)
let in_template_mode st f =
  let saved = save_modes st in
  st.in_template <- true;
  st.in_meta <- false;
  Fun.protect ~finally:(fun () -> restore_modes st saved) f

(** Run [f] in meta mode (macro bodies, placeholder expressions). *)
let in_meta_mode st f =
  let saved = save_modes st in
  st.in_template <- false;
  st.in_meta <- true;
  Fun.protect ~finally:(fun () -> restore_modes st saved) f
