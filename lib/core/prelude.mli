(** The MS² standard macro library: generally useful statement and
    declaration macros, written in MS² itself ([unless], [repeat],
    [for_range], [times], [swap], [with_cleanup], [assert_that],
    [log_value], [bitflags], [myenum]). *)

val source : string
(** The prelude's MS² source. *)

val source_name : string
(** The source name its diagnostics carry, [<prelude>]. *)

val load : Engine.t -> unit
(** Load the prelude (pure meta-program; emits no object code). *)

val macro_names : string list
