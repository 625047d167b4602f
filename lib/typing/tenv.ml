(** Meta-level type environments.

    The parse-time semantic analyzer "knows the declared types of
    meta-variables (both globals and parameters of macros and
    meta-functions) and the types returned by primitive operations on
    ASTs" (paper, §3).  A [Tenv.t] holds exactly that knowledge: a stack
    of scopes mapping meta-variable names to {!Ms2_mtype.Mtype.t}.

    Scopes are immutable maps keyed by spelling: the engine checkpoints
    the environment by keeping the [scopes] list and rolls back by
    storing it again, without copying a binding. *)

module Mtype = Ms2_mtype.Mtype
module Smap = Ms2_support.Smap

type t = { mutable scopes : Mtype.t Smap.t list }

let create () = { scopes = [ Smap.empty ] }

let push_scope t = t.scopes <- Smap.empty :: t.scopes

let pop_scope t =
  match t.scopes with
  | [] | [ _ ] -> invalid_arg "Tenv.pop_scope: global scope"
  | _ :: rest -> t.scopes <- rest

let with_scope t f =
  push_scope t;
  Fun.protect ~finally:(fun () -> pop_scope t) f

let add t name ty =
  match t.scopes with
  | scope :: rest -> t.scopes <- Smap.add name ty scope :: rest
  | [] -> assert false

let add_global t name ty =
  match List.rev t.scopes with
  | global :: inner ->
      t.scopes <- List.rev (Smap.add name ty global :: inner)
  | [] -> assert false

let find t name =
  let rec go = function
    | [] -> None
    | scope :: rest -> (
        match Smap.find_opt name scope with
        | Some ty -> Some ty
        | None -> go rest)
  in
  go t.scopes

let mem t name = Option.is_some (find t name)

(** A deterministic digest of the whole environment (scope structure,
    names, types), for content-addressed cache keys.  Each scope is
    written in key order.  [Mtype.t] is pure data, so marshalling it is
    a faithful serialization. *)
let digest (t : t) : string =
  let b = Buffer.create 256 in
  List.iter
    (fun scope ->
      Buffer.add_string b "(scope";
      Smap.iter
        (fun name ty ->
          Buffer.add_string b name;
          Buffer.add_char b '=';
          Buffer.add_string b (Marshal.to_string (ty : Mtype.t) []))
        scope;
      Buffer.add_char b ')')
    t.scopes;
  Digest.string (Buffer.contents b)
