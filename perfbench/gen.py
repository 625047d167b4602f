"""Seeded inputs for the MS2 benchmark, each with its expected C.

Every generator returns MS2 source text together with the rendering the
expander must produce for it.  The expected renderings are written out
by hand below, in the layout of test/corpus/*.expected.c, and filled in
with the same identifiers the generator put into the source; none of
them comes from running the expander.

The seed alone decides the bytes: the same seed gives the same inputs,
and a different seed draws different identifiers.
"""

import random

SYLLABLES = ["ka", "lo", "mi", "nu", "pe", "ra", "si", "tu",
             "vo", "ze", "bi", "do", "fa", "gu", "hi", "jo"]


def rng_for(seed, *salt):
    """A private generator for one (seed, salt...) stream."""
    return random.Random("/".join(str(s) for s in (seed,) + salt))


def word(rng, syllables=3):
    return "".join(rng.choice(SYLLABLES) for _ in range(syllables))


# Set by the self-test to prove that a wrong reference is caught: every
# expected rendering then ends in a stray comment.
CORRUPT = False


def reference(text):
    return text + "/* corrupted */\n" if CORRUPT else text


def unit(decls):
    """The expander's rendering of a unit: top-level declarations
    separated by one blank line, ending in a newline."""
    return reference("\n\n".join(decls) + "\n")


# ---------------------------------------------------------------------
# The paper's macros
# ---------------------------------------------------------------------

PAINTING = """\
syntax stmt Painting {| $$stmt::body |}
{
  return `{BeginPaint(hDC, &ps);
           $body;
           EndPaint(hDC, &ps);};
}
"""

EXCEPTIONS = """\
syntax stmt throw {| $$exp::value |}
{
  if (simple_expression(value))
    return `{longjmp(exception_ptr, $value);};
  else
    return `{{int the_value = $value;
              longjmp(exception_ptr, the_value);}};
}
syntax stmt catch {| $$exp::tag $$stmt::handler $$stmt::body |}
{
  return `{{int *old_exception_ptr = exception_ptr;
            int jmp_buffer[2];
            int result;
            result = setjump(jmp_buffer);
            if (result == 0)
              {exception_ptr = jmp_buffer; $body}
            else
              {exception_ptr = old_exception_ptr;
               if (result == $tag)
                 $handler;
               else
                 throw result;}}};
}
syntax stmt unwind_protect {| $$stmt::body $$stmt::cleanup |}
{
  return `{{int *old_exception_ptr = exception_ptr;
            int jmp_buffer[2];
            int result;
            result = setjump(jmp_buffer);
            if (result == 0)
              {exception_ptr = jmp_buffer; $body}
            exception_ptr = old_exception_ptr;
            $cleanup;
            if (result != 0)
              throw result;}};
}
"""

MUL = "syntax exp MUL {| ( $$exp::a , $$exp::b ) |} { return `($a * $b); }\n"

MYENUM = """\
syntax decl myenum [] {| $$id::name { $$+/, id::ids } ; |}
{
  return list(
    `[enum $name {$ids};],
    `[void $(symbolconc("print_", name))(int arg)
      { switch (arg)
          {$(map((@id id; `{case $id: {printf("%s", $(pstring(id))); break;}}),
                 ids))} }],
    `[int $(symbolconc("read_", name))()
      { char s[100];
        getline(s, 100);
        $(map((@id id; `{if (strcmp(s, $(pstring(id))) == 0) return $id;}),
              ids))
        return -1; }]);
}
"""

# a meta loop in the style of bench/workloads.ml's widesum: binds a
# four-field tuple pattern and folds it ten times at expansion time
WIDESUM = """\
syntax exp widesum {| ( $$.( $$num::f0 , $$num::f1 , $$num::f2 , $$num::f3 )::p ) |}
{
  int acc;
  int i;
  acc = 0;
  i = 0;
  while (i < 10)
    {
      acc = acc + num_value(p->f0) + num_value(p->f1) * 2
            + num_value(p->f2) * 3 + num_value(p->f3) * 4;
      i = i + 1;
    }
  return make_num(acc);
}
"""

ALL_MACROS = PAINTING + EXCEPTIONS + MUL + MYENUM + WIDESUM

# C declarations that let gcc check expanded output on its own
LIBRARY = ["int hDC;", "int ps;", "int *exception_ptr;", "int setjump();",
           "void longjmp();", "int printf();", "int getline();",
           "int strcmp();", "int BeginPaint();", "int EndPaint();"]


def ind(lines, n):
    pad = " " * n
    return [pad + l if l else l for l in lines]


def catch_block(tag, handler, body):
    return ["{",
            "  int *old_exception_ptr = exception_ptr;",
            "  int jmp_buffer[2];",
            "  int result;",
            "  result = setjump(jmp_buffer);",
            "  if (result == 0)",
            "    {",
            "      exception_ptr = jmp_buffer;",
            "      {",
            "        " + body,
            "      }",
            "    }",
            "  else",
            "    {",
            "      exception_ptr = old_exception_ptr;",
            "      if (result == %s)" % tag,
            "        {",
            "          " + handler,
            "        }",
            "      else",
            "        longjmp(exception_ptr, result);",
            "    }",
            "}"]


def unwind_block(body, cleanup):
    return ["{",
            "  int *old_exception_ptr = exception_ptr;",
            "  int jmp_buffer[2];",
            "  int result;",
            "  result = setjump(jmp_buffer);",
            "  if (result == 0)",
            "    {",
            "      exception_ptr = jmp_buffer;",
            "      {",
            "        " + body,
            "      }",
            "    }",
            "  exception_ptr = old_exception_ptr;",
            "  {",
            "    " + cleanup,
            "  }",
            "  if (result != 0)",
            "    longjmp(exception_ptr, result);",
            "}"]


def painting_block(inner):
    return ["{",
            "  BeginPaint(hDC, &ps);",
            "  {",
            "    " + inner,
            "  }",
            "  EndPaint(hDC, &ps);",
            "}"]


STATEMENT_KINDS = 8


def statement(rng, calls, tags, kind=None):
    """One macro-invoking statement for a function body with parameters
    [a] and [b] and a local [x]: (source line, expected lines at body
    indentation, invocation count).  [kind] picks the macro use; by
    default it is drawn at random."""
    n = rng.randrange(1, 100)
    w1, w2 = rng.choice(calls), rng.choice(calls)
    if kind is None:
        kind = rng.randrange(STATEMENT_KINDS)
    if kind == 0:
        return ("Painting { %s(a, %d); }" % (w1, n),
                painting_block("%s(a, %d);" % (w1, n)), 1)
    if kind == 1:
        t = rng.choice(tags)
        return ("catch %s { %s(a); } { %s(b, %d); }" % (t, w1, w2, n),
                catch_block(t, "%s(a);" % w1, "%s(b, %d);" % (w2, n)), 1)
    if kind == 2:
        return ("unwind_protect { %s(a); } { %s(%d); }" % (w1, w2, n),
                unwind_block("%s(a);" % w1, "%s(%d);" % (w2, n)), 1)
    if kind == 3:
        return ("throw a + %d;" % n,
                ["{",
                 "  int the_value = a + %d;" % n,
                 "  longjmp(exception_ptr, the_value);",
                 "}"], 1)
    if kind == 4:
        return ("throw b;", ["longjmp(exception_ptr, b);"], 1)
    if kind == 5:
        return ("x = x + MUL(a + %d, b);" % n,
                ["x = x + (a + %d) * b;" % n], 1)
    if kind == 6:
        f = [rng.randrange(0, 50) for _ in range(4)]
        total = 10 * (f[0] + 2 * f[1] + 3 * f[2] + 4 * f[3])
        return ("x = x + widesum(%d, %d, %d, %d);" % tuple(f),
                ["x = x + %d;" % total], 1)
    return ("Painting { x = MUL(a, %d); }" % n,
            painting_block("x = a * %d;" % n), 2)


def function(name, stmts):
    """A C function around macro-invoking statements: (source, expected
    rendering, invocation count)."""
    src = ["int %s(int a, int b)" % name, "{", "  int x;", "  x = 0;"]
    exp = list(src)
    count = 0
    for s, e, c in stmts:
        src.append("  " + s)
        exp.extend(ind(e, 2))
        count += c
    src += ["  return x;", "}"]
    exp += ["  return x;", "}"]
    return "\n".join(src) + "\n", "\n".join(exp), count


def myenum_decl(name, ids):
    src = "myenum %s { %s };\n" % (name, ", ".join(ids))
    printer = ["void print_%s(int arg)" % name, "{", "  switch (arg)", "    {"]
    for i in ids:
        printer += ["      case %s:" % i, "        {",
                    '          printf("%%s", "%s");' % i,
                    "          break;", "        }"]
    printer += ["    }", "}"]
    reader = ["int read_%s()" % name, "{", "  char s[100];",
              "  getline(s, 100);"]
    for i in ids:
        reader += ['  if (strcmp(s, "%s") == 0)' % i, "    return %s;" % i]
    reader += ["  return -1;", "}"]
    return src, ["enum %s {%s};" % (name, ", ".join(ids)),
                 "\n".join(printer), "\n".join(reader)]


# ---------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------

def vocabulary(seed):
    """The small vocabulary corpus-macros files and serve fixed
    fragments share: call names and exception tags."""
    r = rng_for(seed, "vocab")
    words = []
    while len(words) < 12:
        w = word(r, 2)
        if w not in words:
            words.append(w)
    return ["do_" + w for w in words[:8]], ["tag_" + w for w in words[8:]]


def corpus_file(seed, index, funcs, calls, tags):
    """One corpus-macros file: the macros, then [funcs] functions of
    eight macro-invoking statements, one of each kind in a random
    order, and two myenum declarations.  Every seed thus asks for the
    same work; only identifiers, numbers and order differ.  Returns
    (source, expected, invocations)."""
    r = rng_for(seed, "corpus", index)
    lib = LIBRARY + ["int %s();" % c for c in calls] + \
        ["int %s;" % t for t in tags]
    src = [ALL_MACROS] + [d + "\n" for d in lib]
    exp = list(lib)
    count = 0
    for k in range(funcs):
        kinds = list(range(STATEMENT_KINDS))
        r.shuffle(kinds)
        fs, fe, c = function("f%d_%d" % (index, k),
                             [statement(r, calls, tags, kind) for kind in kinds])
        src.append(fs)
        exp.append(fe)
        count += c
        if k % (funcs // 2 or 1) == 0:
            ids = ["%s_%d_%d_%d" % (t, index, k, j) for j, t in
                   enumerate(r.sample(calls, 5))]
            es, ee = myenum_decl("kind%d_%d" % (index, k), ids)
            src.append(es)
            exp.extend(ee)
            count += 1
    return "".join(src), unit(exp), count


def corpus_macros(seed, files=8, funcs=130):
    """[(name, source, expected)] for corpus-macros, plus the total
    invocation count."""
    calls, tags = vocabulary(seed)
    out, total = [], 0
    for i in range(files):
        s, e, c = corpus_file(seed, i, funcs, calls, tags)
        out.append(("corpus%d.mc" % i, s, e))
        total += c
    return out, total


FRESH_FORMS = ["int %s;", "int %s = %d;", "static long %s = %d;",
               "double %s[%d];", "char *%s;", "unsigned int %s = %d;",
               "int %s(int a, int b);"]


def fresh_names(rng, count):
    """[count] distinct identifiers, each new to the unit: a random
    three-syllable stem and the line number in base 36."""
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"
    names = []
    for i in range(count):
        n, tail = i, ""
        while True:
            n, d = divmod(n, 36)
            tail = digits[d] + tail
            if n == 0:
                break
        names.append("%s_%s" % (word(rng), tail))
    return names


def unit_fresh_names(seed, lines=16000):
    """One translation unit of [lines] top-level lines, nearly all plain
    C declarations that each introduce a fresh identifier; one line in
    50 invokes myenum or MUL, in turn.  The line forms repeat in a
    fixed cycle, so every seed asks for the same work; only identifiers
    and numbers differ.  Returns (source, expected, invocations)."""
    r = rng_for(seed, "unit")
    names = fresh_names(r, lines)
    src = [MUL, MYENUM]
    exp = []
    count = 0
    for i, name in enumerate(names):
        macro = i % 50 == 25
        if macro and i // 50 % 2 == 0:
            ids = ["%s_%s" % (name, c) for c in ("a", "b", "c")]
            es, ee = myenum_decl(name, ids)
            src.append(es)
            exp.extend(ee)
            count += 1
        elif macro:
            n, m = r.randrange(1, 1000), r.randrange(2, 9)
            src.append("int %s = MUL(%d + 1, %d);\n" % (name, n, m))
            exp.append("int %s = (%d + 1) * %d;" % (name, n, m))
            count += 1
        else:
            form = FRESH_FORMS[i % len(FRESH_FORMS)]
            line = form % (name, r.randrange(1, 1000)) if "%d" in form \
                else form % name
            src.append(line + "\n")
            exp.append(line)
    return "".join(src), unit(exp), count


def serve_prelude():
    """The daemon's --prelude-file: the paper's macros, no C."""
    return ALL_MACROS


FIXED_FRAGMENTS = 6


def serve_fixed(seed):
    """The fixed use fragments every session replays in order:
    [(source name, text, expected)]."""
    calls, tags = vocabulary(seed)
    r = rng_for(seed, "fixed")
    # four statements each, every kind three times over the set, so
    # every seed's fixed fragments ask for the same work
    kinds = list(range(STATEMENT_KINDS)) * 3
    r.shuffle(kinds)
    out = []
    for k in range(FIXED_FRAGMENTS):
        fs, fe, _ = function("use_%d" % k,
                             [statement(r, calls, tags, kind)
                              for kind in kinds[4 * k:4 * k + 4]])
        out.append(("use_%d.mc" % k, fs, reference(fe + "\n")))
    return out


def serve_fresh(seed, stream, n):
    """The [n]th fresh fragment of a client stream: new function and
    call names, a new source name."""
    r = rng_for(seed, "fresh", stream, n)
    fn = "fresh_%s_%d_%d" % (word(r), stream, n)
    calls = ["call_" + word(r) for _ in range(2)]
    fs, fe, _ = function(fn, [statement(r, calls, ["tag_" + word(r)])
                              for _ in range(3)])
    return fn + ".mc", fs, reference(fe + "\n")


def serve_definition(seed, stream, n):
    """The [n]th definition request of a client stream: a new statement
    macro and a function that uses it."""
    r = rng_for(seed, "def", stream, n)
    w = "%s_%d_%d" % (word(r), stream, n)
    k = r.randrange(1, 100)
    src = ("syntax stmt m_%s {| ( $$exp::e ) ; |} { return `{g_%s($e);}; }\n"
           "int use_%s(int a)\n{\n  m_%s(a + %d);\n  return a;\n}\n"
           % (w, w, w, w, k))
    exp = ("int use_%s(int a)\n{\n  g_%s(a + %d);\n  return a;\n}\n"
           % (w, w, k))
    return "def_%s.mc" % w, src, reference(exp)


def serve_stream(seed, stream):
    """The endless request sequence of one client connection: sessions
    of ten requests (6 fixed uses, 3 fresh fragments, 1 definition),
    each opening a session never used before.  Yields (kind, session, source, text, expected) with kind in
    fixed/fresh/def."""
    fixed = serve_fixed(seed)
    s = 0
    while True:
        session = "c%d_s%d" % (stream, s)
        for src, text, exp in fixed:
            yield "fixed", session, src, text, exp
        for j in range(3):
            yield ("fresh", session) + serve_fresh(seed, stream, 3 * s + j)
        yield ("def", session) + serve_definition(seed, stream, s)
        s += 1
