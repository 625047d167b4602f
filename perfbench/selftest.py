#!/usr/bin/env python3
"""Self-test of the MS2 benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that the generators are deterministic in the seed and draw
different identifiers for different seeds, that a short run of each
workload is correct, and that a corrupted reference is counted as a
failure (so error_rate would rise).  Exits non-zero on any failure.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import gen  # noqa: E402

IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def serve_requests(seed, n=40):
    out = []
    for stream in (0, 1):
        it = gen.serve_stream(seed, stream)
        out += [next(it) for _ in range(n)]
    return out


def inputs(seed):
    """Every generator's output for one seed, as one string."""
    files, _ = gen.corpus_macros(seed, files=2, funcs=20)
    unit = gen.unit_fresh_names(seed, 2000)
    parts = [s + e for _, s, e in files] + [unit[0], unit[1]]
    parts += [r[3] + r[4] for r in serve_requests(seed)]
    return "".join(parts)


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    return cond


def run(workload, seed, corrupt):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    if corrupt:
        argv.append("--corrupt-reference")
    r = subprocess.run(argv, capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        return None
    return json.loads(r.stdout.strip().splitlines()[-1])


def main():
    ok = True
    a, b, c = inputs(11), inputs(11), inputs(12)
    ok &= check(a == b, "the same seed gives the same bytes")
    ok &= check(a != c, "a different seed gives different bytes")
    fresh = lambda s: set(IDENT.findall(gen.unit_fresh_names(s, 2000)[0]))
    ok &= check(len(fresh(11) & fresh(12)) < 100,
                "a different seed draws different unit-fresh-names "
                "identifiers")
    vocab = lambda s: set(sum(gen.vocabulary(s), []))
    ok &= check(vocab(11) != vocab(12),
                "a different seed draws a different corpus vocabulary")
    for workload in ("corpus-macros", "unit-fresh-names", "serve-sessions"):
        good = run(workload, 5, False)
        ok &= check(good is not None and good["correct"]
                    and good["failed"] == 0,
                    "%s: a short run matches every reference" % workload)
        if workload == "unit-fresh-names":
            continue  # same checking path as corpus-macros, and slow
        bad = run(workload, 5, True)
        ok &= check(bad is not None and not bad["correct"]
                    and bad["failed"] > 0,
                    "%s: a corrupted reference raises error_rate (%s)"
                    % (workload, bad and "%d of %d failed"
                       % (bad["failed"], bad["attempted"])))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
