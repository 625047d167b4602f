(** The MS² standard macro library.

    The paper closes by noting that with programmable syntax macros "a
    new macro language with its own special syntax, operators,
    statements, and functions do not have to be invented" — the standard
    library of a macro system is just more macros.  This module is that
    library: a prelude of generally useful statement and declaration
    macros, written in MS² itself and loaded into an engine on request
    ([Api.create_engine ~prelude:true] or [ms2c expand --prelude]).

    Contents:

    - [unless (e) stmt] — inverted [if];
    - [repeat stmt until (e);] — [do]/[while] with inverted condition;
    - [for_range (i = lo to hi [by step]) stmt] — counted loops;
    - [times (n) stmt] — run a body [n] times with a gensym'd counter;
    - [swap(a, b);] — type-generic exchange (semantic macros:
      [declare_like] + a [types_compatible] guard);
    - [with_cleanup stmt stmt] — run a cleanup after a body;
    - [assert_that(e);] — runtime assertion carrying the *source text*
      of the asserted expression ([exp_string]/[make_string]);
    - [log_value(e);] — print an expression's text and value, with the
      format directive chosen from the expression's object-level type;
    - [bitflags name { a, b, c };] — an enum of power-of-two flags
      (computed enumerator values via [$flag = $(make_num(v))]);
    - [myenum name { a, b, c };] — the paper's enum with generated
      reader and writer functions. *)

let source =
  {src|
/* ---- control flow ---- */

syntax stmt unless {| ( $$exp::cond ) $$stmt::body |}
{
  return `{if (!($cond)) $body;};
}

syntax stmt repeat {| $$stmt::body until ( $$exp::cond ) ; |}
{
  return `{do $body while (!($cond));};
}

syntax stmt for_range
  {| ( $$id::var = $$exp::lo to $$exp::hi $$?by exp::step ) $$stmt::body |}
{
  if (length(step) == 0)
    return `{for ($var = $lo; $var <= $hi; $var++) $body};
  return `{for ($var = $lo; $var <= $hi; $var += $(*step)) $body};
}

syntax stmt times {| ( $$exp::n ) $$stmt::body |}
{
  @id i = gensym("times");
  return `{{int $i;
            for ($i = 0; $i < ($n); $i++) $body;}};
}

/* ---- values ---- */

syntax stmt swap {| ( $$exp::a , $$exp::b ) ; |}
{
  @id tmp = gensym("swap");
  if (!types_compatible(a, b))
    error("swap: incompatible operand types:", type_name_of(a),
          type_name_of(b));
  return `{{ $(declare_like(a, tmp)) $tmp = $a; $a = $b; $b = $tmp; }};
}

/* ---- resources and checking ---- */

syntax stmt with_cleanup {| $$stmt::body $$stmt::cleanup |}
{
  return `{{ $body; $cleanup; }};
}

syntax stmt assert_that {| ( $$exp::cond ) ; |}
{
  return `{if (!($cond))
             assert_fail($(make_string(exp_string(cond))));};
}

syntax stmt log_value {| ( $$exp::e ) ; |}
{
  @exp label = make_string(exp_string(e));
  if (is_pointer(e))
    return `{printf("%s = %p\n", $label, (void *)$e);};
  return `{printf("%s = %d\n", $label, $e);};
}

/* ---- declarations ---- */

metadcl @enumerator bf_no_items[];

@enumerator bf_items(@id ids[], int v)[]
{
  if (length(ids) == 0)
    return bf_no_items;
  return cons(`{| enumerator :: $(*ids) = $(make_num(v)) |},
              bf_items(ids + 1, 2 * v));
}

syntax decl bitflags [] {| $$id::name { $$+/, id::ids } ; |}
{
  return list(`[enum $name {$(bf_items(ids, 1))};]);
}

syntax decl myenum [] {| $$id::name { $$+/, id::ids } ; |}
{
  return list(
    `[enum $name {$ids};],
    `[void $(symbolconc("print_", name))(int arg)
      {
        switch (arg)
          {$(map((@id id;
                  `{case $id: {printf("%s", $(pstring(id))); break;}}),
                 ids))}
      }],
    `[int $(symbolconc("read_", name))()
      {
        char s[100];
        getline(s, 100);
        $(map((@id id;
               `{if (strcmp(s, $(pstring(id))) == 0) return $id;}),
              ids))
        return -1;
      }]);
}
|src}

let source_name = Engine.prelude_source_name

(** Load the prelude into an engine.  The prelude is pure meta-program:
    loading emits no object code. *)
let load (engine : Engine.t) : unit =
  let produced = Engine.expand_source engine ~source:source_name source in
  assert (produced = [])

(** Names the prelude defines, for documentation and tests. *)
let macro_names =
  [ "unless"; "repeat"; "for_range"; "times"; "swap"; "with_cleanup";
    "assert_that"; "log_value"; "bitflags"; "myenum" ]
