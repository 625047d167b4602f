(** Global string interning: one allocation and one hash per distinct
    spelling, process-wide.  Looking up a known spelling takes no lock;
    interning a new one takes a mutex and costs O(1) amortized.  See the
    implementation notes in [intern.ml]. *)

type t = private {
  str : string;  (** canonical spelling, unique per contents *)
  hash : int;  (** cached [Hashtbl.hash] of the spelling *)
  uid : int;  (** allocation order; total ordering for determinism *)
}

val intern : string -> t
(** The symbol for [s], allocated on first sight. *)

val canon : string -> string
(** The canonical copy of [s]: spelling-equal inputs return the same
    physical string. *)

val str : t -> string
val equal : t -> t -> bool  (** one pointer comparison *)

val hash : t -> int  (** cached; never re-reads the characters *)

val compare : t -> t -> int  (** by allocation order *)

val interned : unit -> int
(** Distinct spellings interned so far. *)

module Tbl : Hashtbl.S with type key = t
