#!/usr/bin/env python3
"""The MS2 benchmark: seeded workloads against the real ms2c binaries.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload corpus-macros --seed 1 \
        --seconds 20 --trace 0

It builds ms2c and the in-process tracer from source with dune, makes
the workload's inputs from the seed, measures for the given number of
seconds and checks every output against its hand-written reference
(perfbench/gen.py).  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones, measured with tracing off; with
--trace 1 they are the per-layer split from a separate traced run.
perfbench/README.md describes the workloads and every metric.
"""

import argparse
import itertools
import json
import math
import os
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import gen  # noqa: E402

ROOT = os.getcwd()
MS2C = os.path.join(ROOT, "_build", "default", "bin", "ms2c.exe")
TRACER = os.path.join(ROOT, "_build", "default", "perfbench", "tracer",
                      "tracer.exe")

BATCH_FLAGS = {"corpus-macros": ["--jobs", "2"],
               "unit-fresh-names": ["--fragment-jobs", "2"]}
FRAGMENT_JOBS = {"corpus-macros": 1, "unit-fresh-names": 2}
SERVE_FLAGS = ["--workers", "2", "--log-level", "error"]
SETUP_REPEATS = 25  # set-up of a batch workload: a ~3 ms process
SERVE_SETUP_REPEATS = 9
REPLAY_REQUESTS = 6000  # serve: requests replayed in process when traced
PREPARED_PER_S = 1500  # serve: requests prepared per stream and second

END_TO_END = {"setup_s": "s", "expand_s": "s", "latency_ms_p50": "ms",
              "latency_ms_p99": "ms", "warm_latency_ms_p50": "ms",
              "cold_latency_ms_p50": "ms", "requests_per_s": "1/s",
              "peak_rss_mb": "MB"}


def per_layer_units():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def note(msg):
    print("# " + msg, flush=True)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(2)


# ---------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------

def pct(values, p):
    """The p-th percentile by linear interpolation."""
    v = sorted(values)
    if len(v) == 1:
        return v[0]
    k = (len(v) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


def median(values):
    return statistics.median(values) if values else 0.0


def p99(values):
    """The 99th percentile, or, below 1,000 samples, the highest
    percentile that still has ten samples beyond it (the median below
    20 samples): a sample p99 of fewer is little more than the
    maximum."""
    p = min(99.0, 100.0 * (1 - 10.0 / len(values)))
    return pct(values, max(50.0, p))


# ---------------------------------------------------------------------
# Build and processes
# ---------------------------------------------------------------------

def build():
    for need in ("dune-project", os.path.join("bin", "ms2c.ml"), "lib",
                 os.path.join("perfbench", "tracer", "tracer.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("run from the root of an MS2 checkout (no %s here)" % need)
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", "--display", "quiet",
                        "./bin/ms2c.exe", "./perfbench/tracer/tracer.exe"],
                       cwd=ROOT, env=env, capture_output=True, text=True,
                       timeout=850)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        fail("build failed")


def spawn_wait(argv, err_path):
    """Run argv to completion; (exit status, wall seconds, peak RSS in
    MB from the child's rusage)."""
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
               (os.POSIX_SPAWN_OPEN, 2, err_path,
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, ru = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return os.waitstatus_to_exitcode(status), wall, ru.ru_maxrss / 1024.0


def read(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read()


def write(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


class Tally:
    """Requests attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.lock = threading.Lock()

    def check(self, ok, why):
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.reasons) < 5:
                    self.reasons.append(why)


def gcc_check(tally, path):
    """Compile an expanded output with gcc as C89, outside any timing."""
    if shutil.which("gcc") is None:
        note("gcc not found: C89 syntax check skipped")
        return
    r = subprocess.run(["gcc", "-std=c89", "-fsyntax-only", "-fno-builtin",
                        path], capture_output=True, text=True)
    tally.check(r.returncode == 0, "gcc rejects %s: %s"
                % (os.path.basename(path), r.stderr[:300]))


def calibrate():
    """(parallel speedup, 1-domain seconds per spin).  The second is a
    drift control: it moves with the machine's speed, not the code's."""
    r = subprocess.run([TRACER, "calib"], capture_output=True, text=True,
                       check=True)
    c = json.loads(r.stdout)
    return c["calib.parallel_speedup"], c["calib.spin_s"]


def tracer(args):
    r = subprocess.run([TRACER] + args, capture_output=True, text=True)
    if r.returncode != 0:
        raise RuntimeError("tracer failed: " + r.stderr[-2000:])
    return json.loads(r.stdout)


# ---------------------------------------------------------------------
# Batch workloads
# ---------------------------------------------------------------------

def batch_inputs(workload, seed, work, tag, half=False):
    """Write one seeded input set under work/tag; (paths, expected
    concatenated output, per-file expected outputs)."""
    d = os.path.join(work, tag)
    os.makedirs(d, exist_ok=True)
    if workload == "corpus-macros":
        files, _ = gen.corpus_macros(seed, funcs=65 if half else 130)
    else:
        src, exp, _ = gen.unit_fresh_names(seed, 8000 if half else 16000)
        files = [("unit.mc", src, exp)]
    paths = []
    for name, src, _ in files:
        paths.append(os.path.join(d, name))
        write(paths[-1], src)
    return paths, "\n".join(e for _, _, e in files), [e for _, _, e in files]


def batch_e2e(workload, seed, seconds, work, tally):
    flags = BATCH_FLAGS[workload]
    paths, expected, _ = batch_inputs(workload, seed, work, "in")
    out = os.path.join(work, "out.c")
    err = os.path.join(work, "err.txt")

    def expand(extra):
        if os.path.exists(out):
            os.unlink(out)
        code, wall, rss = spawn_wait([MS2C, "expand"] + flags + extra
                                     + paths + ["-o", out], err)
        ok = code == 0 and os.path.exists(out) and read(out) == expected
        tally.check(ok, "ms2c expand %s: exit %d%s"
                    % (" ".join(extra), code,
                       "" if code else ", output differs from its reference"))
        return wall, rss

    empty = os.path.join(work, "empty.mc")
    write(empty, "")
    setup = []
    for _ in range(SETUP_REPEATS):
        code, wall, _ = spawn_wait([MS2C, "expand"] + flags
                                   + [empty, "-o", os.path.join(work, "e.c")],
                                   err)
        tally.check(code == 0, "setup expand exit %d" % code)
        setup.append(wall)
    snap = os.path.join(work, "warm.snap")
    expand(["--cache-file", snap])  # primes the warm snapshot
    gcc_check(tally, out)
    # whether a warm run replays at all, read once from an untimed run
    spawn_wait([MS2C, "expand"] + flags + ["--cache-file", snap, "--stats",
                                           "--stats-format=json"]
               + paths + ["-o", out], err)
    stats = read(err)
    counters = json.loads(stats[stats.index("{"):stats.rindex("}") + 1])
    note("warm check: a --cache-file run from the primed snapshot made "
         "%d cache hits and %d misses"
         % (counters["counters"].get("cache.hits", 0),
            counters["counters"].get("cache.misses", 0)))
    cold, warm, rss = [], [], []
    t0 = time.perf_counter()
    while len(cold) < 3 or time.perf_counter() - t0 < seconds:
        w, r = expand([])
        cold.append(w)
        rss.append(r)
        warm.append(expand(["--cache-file", snap])[0])
    wall = time.perf_counter() - t0
    note("%d cold and %d warm expand processes in %.1f s"
         % (len(cold), len(warm), wall))
    return {"setup_s": median(setup),
            "expand_s": median(cold),
            "latency_ms_p50": 1000 * median(cold),
            "latency_ms_p99": 1000 * p99(cold),
            "warm_latency_ms_p50": 1000 * median(warm),
            "cold_latency_ms_p50": 1000 * median(cold),
            "requests_per_s": (len(cold) + len(warm)) / wall,
            "peak_rss_mb": median(rss)}


def check_outputs(tally, out_dir, expected_files):
    for i, exp in enumerate(expected_files):
        path = os.path.join(out_dir, "%d.c" % i)
        tally.check(os.path.exists(path) and read(path) == exp,
                    "traced output %d differs from its reference" % i)


def batch_traced(workload, seed, seconds, work, tally):
    """Per-layer split: each repetition runs in fresh tracer processes
    on a fresh seed-derived vocabulary, so no process starts with a
    warm interner or warm memos."""
    fj = str(FRAGMENT_JOBS[workload])
    rounds = []
    t0 = time.perf_counter()
    r = 0
    while not rounds or time.perf_counter() - t0 < seconds:
        def run(tag, half, traced):
            # the traced and untraced runs take the same input; each
            # runs in a fresh process, so neither starts with a warm
            # interner, and each round draws a fresh vocabulary
            paths, _, exp_files = batch_inputs(
                workload, "%s.%s%d" % (seed, "half" if half else "full", r),
                work, tag, half)
            out_dir = os.path.join(work, tag + "-out")
            os.makedirs(out_dir, exist_ok=True)
            m = tracer(["batch", "--traced", traced, "--fragment-jobs", fj,
                        "--out", out_dir] + paths)
            check_outputs(tally, out_dir, exp_files)
            tally.check(m["failures"] == 0, "in-process cache probe failed")
            return m, paths

        full, _ = run("full", False, "1")
        half, _ = run("half", True, "1")
        plain, plain_paths = run("plain", False, "0")
        code, wall, _ = spawn_wait(
            [MS2C, "expand"] + BATCH_FLAGS[workload] + plain_paths
            + ["-o", os.path.join(work, "plain.c")],
            os.path.join(work, "err.txt"))
        tally.check(code == 0, "ms2c expand exit %d" % code)
        row = dict(full)
        for k in ("fragments.speculated", "fragments.commit_ratio",
                  "fragments.abort.defs_bump", "fragments.abort.gensym_mint",
                  "fragments.abort.meta_decl", "fragments.abort.stale_read",
                  "fragments.abort.foreign_closure"):
            row[k] = plain.get(k, 0)
        row["driver.overhead_s"] = wall - plain["wall_s"]
        row["trace.overhead"] = full["wall_s"] / plain["wall_s"] - 1
        for layer, keys in (("lexer", ["lexer.s"]),
                            ("parser", ["parser.s", "parser.match_s"]),
                            ("meta", ["meta.eval_s", "meta.fill_s"]),
                            ("engine", ["engine.walk_s"]),
                            ("pretty", ["pretty.s"])):
            a = sum(full[k] for k in keys)
            b = sum(half[k] for k in keys)
            row[layer + ".scaling"] = \
                math.log2(a / b) if a > 0 and b > 0 else 0.0
        rounds.append(row)
        r += 1
    note("%d traced rounds in %.1f s" % (len(rounds),
                                         time.perf_counter() - t0))
    cov = median([x["trace.coverage"] for x in rounds])
    if cov < 0.9:
        note("trace.coverage %.3f < 0.9: an unmeasured gap" % cov)
    return {k: median([x[k] for x in rounds]) for k in rounds[0]
            if isinstance(rounds[0][k], (int, float))}


# ---------------------------------------------------------------------
# The serve workload
# ---------------------------------------------------------------------

class Daemon:
    """One ms2c serve on a Unix socket under the work directory."""

    def __init__(self, work, prelude):
        self.sock = os.path.relpath(os.path.join(work, "d.sock"), ROOT)
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        self.err = open(os.path.join(work, "serve.err"), "ab")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [MS2C, "serve", "--socket", "d.sock", "--prelude-file",
             os.path.relpath(prelude, work)] + SERVE_FLAGS,
            cwd=work, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self.err)

    def connect(self, timeout=30.0):
        deadline = time.perf_counter() + timeout
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.sock)
                return Conn(s)
            except OSError:
                s.close()
                if self.proc.poll() is not None:
                    raise RuntimeError("ms2c serve exited with %d"
                                       % self.proc.returncode)
                if time.perf_counter() > deadline:
                    raise RuntimeError("ms2c serve did not come up")
                time.sleep(0.001)

    def status(self, key):
        """A kernel memory figure of the daemon, in MB."""
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        try:
            c = self.connect(timeout=1.0)
            c.call({"method": "shutdown"})
            c.close()
        except (OSError, RuntimeError, ValueError):
            pass
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.err.close()


class Conn:
    def __init__(self, s):
        self.s = s
        self.f = s.makefile("rb")
        self.n = 0

    def call(self, req):
        self.n += 1
        req = dict(req, id=self.n)
        self.s.sendall((json.dumps(req) + "\n").encode())
        line = self.f.readline()
        if not line:
            raise ValueError("connection closed")
        return json.loads(line)

    def close(self):
        self.f.close()
        self.s.close()


def serve_setup(work, prelude, tally):
    times = []
    for _ in range(SERVE_SETUP_REPEATS):
        d = Daemon(work, prelude)
        try:
            c = d.connect()
            rep = c.call({"method": "health"})
            times.append(time.perf_counter() - d.t0)
            tally.check(rep.get("ok") is True, "health reply not ok")
            c.close()
        finally:
            d.stop()
    return median(times)


def encoded(stream):
    """(request, wire line) pairs of a request stream."""
    for n, item in enumerate(stream):
        _, session, source, text, _ = item
        yield item, (json.dumps({"id": n, "method": "expand",
                                 "session": session, "source": source,
                                 "text": text}) + "\n").encode()


def client(conn, requests, deadline, records, sessions, sent):
    """One closed-loop connection: send the stream's next request only
    after the reply to the previous one.  Only the send and the read of
    the reply are timed; replies are decoded after the run."""
    cur, t_sess = None, 0.0
    for item, line in requests:
        session = item[1]
        if session != cur:
            now = time.perf_counter()
            if cur is not None:
                sessions.append(now - t_sess)
            if now >= deadline:
                return
            cur, t_sess = session, now
        sent.append(item)
        ms = 0.0
        for _ in range(9):
            t0 = time.perf_counter()
            conn.s.sendall(line)
            rep = conn.f.readline()
            ms += 1000 * (time.perf_counter() - t0)
            if not rep:  # the daemon closed the connection
                records.append((ms, rep))
                return
            if b'"ok":true' in rep:
                break
            err = json.loads(rep).get("error") or {}
            if err.get("kind") not in ("overloaded", "draining"):
                break
            time.sleep(err.get("retry_after_ms", 5) / 1000.0)
        records.append((ms, rep))


def decode(records, sent, tally):
    """Check every reply against its reference: [(client ms, pure cache
    hit, server ms)]."""
    out = []
    for (ms, raw), (kind, _, source, _, expected) in zip(records, sent):
        if not raw:
            tally.check(False, "%s request %s: no reply" % (kind, source))
            continue
        rep = json.loads(raw)
        ok = rep.get("ok") is True and rep.get("output") == expected
        tally.check(ok, "%s request %s: %s" % (kind, source, raw[:300]))
        rq = rep.get("request") or {}
        warm = rq.get("cache_hits", 0) > 0 and rq.get("cache_misses", 1) == 0
        out.append((ms, warm, rep.get("elapsed_ms", 0.0)))
    return out


def serve_loop(work, prelude, seed, seconds, tally):
    d = Daemon(work, prelude)
    try:
        admin = d.connect()
        admin.call({"method": "health"})
        rss0 = d.status("VmRSS")
        conns = [d.connect() for _ in range(2)]
        records = [[], []]
        sessions = [[], []]
        sent = [[], []]
        # Requests are generated and encoded before the clock starts, so
        # neither client thread holds the interpreter lock for that work
        # while the other waits for a reply; a stream that runs out goes
        # on generating as it sends.
        streams = [encoded(gen.serve_stream(seed, i)) for i in range(2)]
        ready = [list(itertools.islice(st, PREPARED_PER_S * int(seconds)))
                 for st in streams]
        deadline = time.perf_counter() + seconds
        t0 = time.perf_counter()
        threads = [threading.Thread(
            target=client,
            args=(conns[i], itertools.chain(ready[i], streams[i]), deadline,
                  records[i], sessions[i], sent[i]))
            for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        health = admin.call({"method": "health"})
        hwm = d.status("VmHWM")
        for c in conns + [admin]:
            c.close()
    finally:
        d.stop()
    recs = decode(records[0], sent[0], tally) + \
        decode(records[1], sent[1], tally)
    # the in-process replay order: the two streams interleaved
    replay = []
    for i in range(max(len(sent[0]), len(sent[1]))):
        replay += [s[i] for s in sent if i < len(s)]
    return (recs, sessions[0] + sessions[1], wall, health, hwm, rss0, replay)


def serve_e2e(seed, seconds, work, tally):
    prelude = os.path.join(work, "defs.mc")
    write(prelude, gen.serve_prelude())
    setup = serve_setup(work, prelude, tally)
    recs, sess, wall, _, hwm, _, _ = serve_loop(work, prelude, seed,
                                                seconds, tally)
    lat = [r[0] for r in recs]
    warm = [r[0] for r in recs if r[1]]
    cold = [r[0] for r in recs if not r[1]]
    note("%d requests (%d warm) and %d sessions in %.1f s"
         % (len(recs), len(warm), len(sess), wall))
    return {"setup_s": setup,
            "expand_s": median(sess),
            "latency_ms_p50": median(lat),
            "latency_ms_p99": p99(lat),
            "warm_latency_ms_p50": median(warm),
            "cold_latency_ms_p50": median(cold),
            "requests_per_s": len(recs) / wall,
            "peak_rss_mb": hwm}


def serve_traced(seed, seconds, work, tally):
    prelude = os.path.join(work, "defs.mc")
    write(prelude, gen.serve_prelude())
    recs, _, _, health, hwm, rss0, replay = serve_loop(
        work, prelude, seed, min(seconds / 2.0, 10.0), tally)
    server = [r[2] for r in recs]
    wait = [r[0] - r[2] for r in recs]
    m = {"serve.server_ms_p50": median(server),
         "serve.server_ms_p99": p99(server),
         "serve.wait_ms_p99": p99(wait),
         "serve.sessions": health.get("sessions", 0),
         "serve.rss_mb_per_krequest": (hwm - rss0) / (len(recs) / 1000.0)}
    reqs = os.path.join(work, "requests.jsonl")
    with open(reqs, "w") as f:
        for _, session, source, text, expected in replay[:REPLAY_REQUESTS]:
            f.write(json.dumps({"session": session, "source": source,
                                "text": text, "expected": expected}) + "\n")
    runs = {}
    for traced in ("1", "0"):
        runs[traced] = tracer(["serve", "--prelude", prelude, "--requests",
                               reqs, "--traced", traced])
        tally.check(runs[traced]["failures"] == 0,
                    "in-process replay: %d replies differ from their "
                    "references" % runs[traced]["failures"])
    m.update(runs["1"])
    m["trace.overhead"] = runs["1"]["wall_s"] / runs["0"]["wall_s"] - 1
    return m


# ---------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------

WORKLOADS = ("corpus-macros", "unit-fresh-names", "serve-sessions")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="self-test: corrupt every reference output")
    a = ap.parse_args()
    gen.CORRUPT = a.corrupt_reference
    build()
    work = os.path.join(ROOT, ".perfbench", "%s-%d" % (a.workload,
                                                       os.getpid()))
    os.makedirs(work, exist_ok=True)
    tally = Tally()
    try:
        calib, spin = calibrate()
        note("calib.parallel_speedup %.3f (a pure-CPU loop, 2 domains vs 1)"
             % calib)
        note("calib.spin_s %.4f s (the loop on 1 domain: a drift control)"
             % spin)
        if a.trace == 0:
            units = END_TO_END
            if a.workload == "serve-sessions":
                m = serve_e2e(a.seed, a.seconds, work, tally)
            else:
                m = batch_e2e(a.workload, a.seed, a.seconds, work, tally)
        else:
            units = per_layer_units()
            if a.workload == "serve-sessions":
                m = serve_traced(a.seed, a.seconds, work, tally)
            else:
                m = batch_traced(a.workload, a.seed, a.seconds, work, tally)
            m["calib.parallel_speedup"] = calib
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    for why in tally.reasons:
        note("failure: " + why)
    error_rate = tally.failed / max(1, tally.attempted)
    note("error_rate %.6f ratio (%d failed of %d attempted)"
         % (error_rate, tally.failed, tally.attempted))
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": float(m.get(name, 0.0)), "unit": unit}
        note("%-34s %14.6f %s" % (name, metrics[name]["value"], unit))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
