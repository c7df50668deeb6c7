#!/usr/bin/env python3
"""The prtb benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Copies the program's sources
and the benchmark's replay into one dune project under ``.bench_build``
(the replay is not part of the repository's own build), builds ``prtb``
and the replay there, runs one workload (see perfbench/README.md), checks every output, prints one
line per metric (value, unit, sample count) and, as the last line of
standard output, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
spans; ``--trace 1`` runs the traced replay and reports the per-layer
metrics.  Spans and a self-describing record of the run are written
under ``.bench_build/perfbench/``.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
# No __pycache__ in the checkout: the source digest below stays put.
sys.dont_write_bytecode = True

import loadgen  # noqa: E402
import stats  # noqa: E402

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "perfbench")
# The build tree: the program's sources plus the replay, one dune
# project.  Its parts, relative to the tree and to the checkout.
TREE = os.path.join(BUILD, "src")
TREE_PARTS = (("dune-project", "dune-project"), ("bin", "bin"),
              ("lib", "lib"), ("replay", os.path.join("perfbench", "replay")))
PRTB = os.path.join(TREE, "_build", "default", "bin", "prtb.exe")
REPLAY = os.path.join(TREE, "_build", "default", "replay", "replay.exe")

WORKLOADS = ("lr3-check", "lr4-sym-check", "serve-mix", "nondyadic-walk")

LR_ARGS = {"lr3-check": ["check", "lr", "-n", "3"],
           "lr4-sym-check": ["check", "lr", "-n", "4", "--sym", "on"]}
LR_STATES = {"lr3-check": "8092",
             "lr4-sym-check": "40846 (orbit quotient of 162964)"}
# Set-up of a CLI check: the process start-up every cold check pays
# before it checks anything (a no-op invocation), this many times
# before the first timed check and once before each of them.
CLI_SETUPS = 10
WALK_SETUPS = 5

# The served cold set: (label, query string) per case study, /check
# then /cert each.
COLD = [("lr", "model=lr&n=3"),
        ("election", "model=election&n=4"),
        ("coin", "model=coin&n=2&bound=4"),
        ("consensus", "model=consensus&n=3&cap=2")]
CLI_ARGS = {"lr": ["lr", "-n", "3"], "election": ["election", "-n", "4"],
            "coin": ["coin", "-n", "2", "--bound", "4"],
            "consensus": ["consensus", "-n", "3", "--cap", "2"]}
# Fresh daemons answer the cold set (check_s) for this share of the
# run, and at least MIN_COLDS times; before each, SETUPS_PER_COLD more
# are only started and stopped, so that setup_s has samples across the
# run.
COLD_SHARE = 0.6
MIN_COLDS = 3
SETUPS_PER_COLD = 2
# Warm /check hits per second.  One keep-alive connection carries one
# request per round trip (50-65 us for a warm hit on a 2-core host), so
# rates stay at or below half of 1 / round trip: above that the sweep
# would measure the connection, not the server.
SWEEP_RATES = (1000, 2000, 4000, 8000)
REF_RATE = 1000                           # the rate warm_p50/p99 are read at
SLO_S = 0.001                             # due -1ms->_0.99 answered
# The generator's own lateness (p99 of ``own_lag``) beyond which a
# phase measured the generator rather than the server: half the SLO.
# Such a phase is run again, this many times in all.
OWN_LAG_LIMIT_S = 0.0005
PHASE_ATTEMPTS = 3
# A traced replay whose spans cover less of it than this is not valid.
MIN_COVERAGE = 0.95
MIX_HIT_RATE = 500
MIX_MISS_RATE = 10
SIM_TRIALS = 2000

WALK_STATES = 3375


class Failure(Exception):
    """The benchmark cannot run here (no result is printed)."""


# --------------------------------------------------------------------
# Processes.

LIVE = []


def _watchdog(proc, timeout):
    timer = threading.Timer(timeout, proc.kill)
    timer.daemon = True
    timer.start()
    return timer


def reap(proc, timeout=60.0):
    """Wait for ``proc``; return (exit code, peak RSS in MB)."""
    timer = _watchdog(proc, timeout)
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc in LIVE:
        LIVE.remove(proc)
    return proc.returncode, ru.ru_maxrss / 1024.0


def run_cmd(cmd, timeout=170.0):
    """Run ``cmd`` to completion.  Returns a dict with wall time (spawn
    to exit), exit code, stdout, stderr and peak RSS."""
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "child.out"), "w+b") as fo, \
            open(os.path.join(OUT, "child.err"), "w+b") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, cwd=ROOT)
        LIVE.append(proc)
        code, rss = reap(proc, timeout)
        wall = time.perf_counter() - t0
        fo.seek(0)
        fe.seek(0)
        return {"wall": wall, "code": code, "rss_mb": rss,
                "out": fo.read().decode("utf-8", "replace"),
                "err": fe.read().decode("utf-8", "replace")}


def replay(*args):
    r = run_cmd([REPLAY] + [str(a) for a in args])
    if r["code"] != 0:
        raise RuntimeError("replay %s failed: %s" % (args[0], r["err"][-500:]))
    data = json.loads(r["out"].strip().splitlines()[-1])
    data["_rss_mb"] = r["rss_mb"]
    data["_wall"] = r["wall"]
    return data


def stop_all():
    for proc in list(LIVE):
        try:
            proc.kill()
        except OSError:
            pass
        try:
            reap(proc, 10.0)
        except OSError:
            pass


# --------------------------------------------------------------------
# Build and self-description.

def sync(src, dst):
    """Make ``dst`` a copy of ``src`` (a file or a directory tree).
    Files whose contents already match are left alone, so dune's
    incremental build still applies."""
    os.makedirs(os.path.dirname(dst), exist_ok=True)
    if os.path.isfile(src):
        with open(src, "rb") as f:
            data = f.read()
        if os.path.isfile(dst):
            with open(dst, "rb") as f:
                if f.read() == data:
                    return
        with open(dst, "wb") as f:
            f.write(data)
        return
    if os.path.isfile(dst):
        os.remove(dst)
    os.makedirs(dst, exist_ok=True)
    names = set(os.listdir(src))
    for name in os.listdir(dst):
        if name not in names:
            p = os.path.join(dst, name)
            if os.path.isdir(p):
                shutil.rmtree(p)
            else:
                os.remove(p)
    for name in sorted(names):
        sync(os.path.join(src, name), os.path.join(dst, name))


def preflight():
    for path in ("dune-project", "bin/prtb.ml", "lib", "perfbench/replay/dune"):
        if not os.path.exists(os.path.join(ROOT, path)):
            raise Failure("not a prtb source checkout (missing %s); run "
                          "from the repository root" % path)


def build():
    dune = shutil.which("dune")
    if dune:
        cmd = [dune]
    elif shutil.which("opam"):
        cmd = [shutil.which("opam"), "exec", "--", "dune"]
    else:
        raise Failure("dune is not on PATH")
    for part, src in TREE_PARTS:
        sync(os.path.join(ROOT, src), os.path.join(TREE, part))
    # No shared dune cache: the build reads and writes only the checkout.
    cmd += ["build", "--root", ".", "--cache=disabled", "./bin/prtb.exe",
            "./replay/replay.exe"]
    r = subprocess.run(cmd, cwd=TREE, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, timeout=850)
    if r.returncode != 0:
        raise Failure("build failed:\n" + r.stderr.decode("utf-8", "replace"))


def describe(workload, seed, trace):
    def first_line(cmd):
        try:
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, timeout=10)
            return r.stdout.decode().strip().splitlines()[0]
        except (OSError, IndexError, subprocess.SubprocessError):
            return None

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = first_line(["git", "rev-parse", "HEAD"])
    if not commit:
        # Not a git checkout: a digest of the sources stands in.
        h = hashlib.sha256()
        for top in ("dune-project", "bin", "lib", "perfbench"):
            base = os.path.join(ROOT, top)
            paths = [base] if os.path.isfile(base) else sorted(
                os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
            for p in paths:
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
        commit = "sources-sha256:" + h.hexdigest()[:16]
    ocaml = first_line(["ocamlfind", "ocamlopt", "-version"]) or \
        first_line(["ocaml", "-version"]) or "unknown"
    return {"workload": workload, "seed": seed, "trace": trace,
            "nproc": os.cpu_count(), "ocaml": ocaml, "commit": commit}


# --------------------------------------------------------------------
# Results.

class Run:
    """Metrics, operation counts and spans of one benchmark run.  With
    ``tracing`` off no span is kept."""

    def __init__(self, tracing):
        self.tracing = tracing
        self.metrics = {}       # name -> (value, samples)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.spans = []         # trace events
        self.origin = time.perf_counter()

    def put(self, name, value, samples):
        stats.check_name(name)
        if name in self.metrics:
            raise ValueError("metric %s reported twice" % name)
        self.metrics[name] = (float(value), int(samples))

    def op(self, problems):
        """Count one operation; ``problems`` lists what was wrong."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])

    def span(self, name, t0, t1, pid=0, parent=0, req=0):
        if not self.tracing:
            return
        self.spans.append({"name": name, "ph": "X", "pid": pid, "tid": pid,
                           "ts": round((t0 - self.origin) * 1e6, 1),
                           "dur": round((t1 - t0) * 1e6, 1),
                           "args": {"parent": parent, "req": req}})

    def ocaml_spans(self, spans, pid, offset):
        for s in spans:
            self.spans.append({"name": s["name"], "ph": "X", "pid": pid,
                               "tid": pid,
                               "ts": round((s["t0"] + offset) * 1e6, 1),
                               "dur": round((s["t1"] - s["t0"]) * 1e6, 1),
                               "args": {"id": s["id"], "parent": s["parent"],
                                        "req": s["req"]}})


med = stats.median


# --------------------------------------------------------------------
# Output checks.

def lr_problems(text, states=None):
    p = []
    arrows = re.findall(r"^(A\.\d+)\s.*\((holds|FAILS)\)$", text, re.M)
    if len(arrows) != 5 or any(v != "holds" for _, v in arrows):
        p.append("lr: not all five arrows hold: %r" % (arrows,))
    if "composed: T --13-->_1/8 C" not in text:
        p.append("lr: composed claim T --13-->_1/8 C missing")
    if states is not None and \
            "reachable states: %s\n" % states not in text:
        p.append("lr: expected reachable states: %s" % states)
    m = re.search(r"measured worst-case expected time: (\S+)", text)
    if not m or not float(m.group(1)) <= 63.0:
        p.append("lr: worst expected time missing or above 63")
    return p


def lr_cli_results(text):
    """The verdicts, attained values and counts a text report states."""
    m = re.search(r"^reachable states: (\d+)(?: \(orbit quotient of (\d+)\))?$",
                  text, re.M)
    arrows = re.findall(r"^(A\.\d+)\s.* : attained (\S+) \((holds|FAILS)\)$",
                        text, re.M)
    comp = re.search(r"^composed: (.*)$", text, re.M)
    worst = re.search(r"^measured worst-case expected time: (\S+)$", text, re.M)
    return {
        "states": int(m.group(1)) if m else None,
        "full_states": int(m.group(2)) if m and m.group(2) else None,
        "invariant": "Lemma 6.1: holds on every reachable state" in text,
        "arrows": [{"label": a, "attained": v, "holds": h == "holds"}
                   for a, v, h in arrows],
        "composed": comp.group(1) if comp else None,
        "worst_expected": worst.group(1) if worst else None,
    }


def replay_results(r):
    return {k: r[k] for k in ("states", "full_states", "invariant", "arrows",
                              "composed", "worst_expected")}


# --------------------------------------------------------------------
# lr3-check and lr4-sym-check.

def lr_measure(run, workload, seconds):
    setup = start_walls(run, PRTB, ["--version"], CLI_SETUPS)
    # One untimed check, so the first timed one finds the binary and
    # its inputs in the page cache.
    r = run_cmd([PRTB] + LR_ARGS[workload])
    run.op(lr_problems(r["out"], LR_STATES[workload]) +
           ([] if r["code"] == 0 else ["warm-up exited %d" % r["code"]]))
    walls, rss = [], []
    t_end = time.perf_counter() + seconds
    while len(walls) < 2 or time.perf_counter() < t_end:
        # More start-up samples, spread over the run like the checks.
        setup += start_walls(run, PRTB, ["--version"], 1)
        r = run_cmd([PRTB] + LR_ARGS[workload])
        walls.append(r["wall"])
        rss.append(r["rss_mb"])
        run.op(lr_problems(r["out"], LR_STATES[workload]) +
               ([] if r["code"] == 0 else ["check exited %d" % r["code"]]))
    run.put("setup_s", med(setup), len(setup))
    run.put("check_s", med(walls), len(walls))
    run.put("rss_peak_mb", med(rss), len(rss))


def start_walls(run, exe, args, count):
    """Wall times of ``count`` no-op invocations: process start-up."""
    walls = []
    for _ in range(count):
        r = run_cmd([exe] + args)
        walls.append(r["wall"])
        run.op([] if r["code"] == 0 else ["%s exited %d" % (exe, r["code"])])
    return walls


def process_start(run, exe, args):
    walls = start_walls(run, exe, args, 20)
    run.put("process.start_s", med(walls), len(walls))


def put_plane(run, plane, samples=1):
    run.put("plane.passes", plane["passes"], samples)
    run.put("plane.points", plane["points"], samples)
    run.put("plane.residue", plane["residue"], samples)
    run.put("plane.fallbacks", plane["fallbacks"], samples)
    seen = plane["points"] + plane["residue"]
    run.put("plane.pinned_ratio", plane["points"] / seen if seen else 0.0,
            samples)


def span_times(spans):
    """name -> duration of the last span of that name."""
    return {s["name"]: s["t1"] - s["t0"] for s in spans}


def put_coverage(run, spans):
    """Report ``trace.coverage_frac``, the share of the last replay root
    span its child spans cover; below ``MIN_COVERAGE`` the run is not
    valid."""
    root = [s for s in spans if s["name"] == "replay"][-1]
    kids = [(s["t0"], s["t1"]) for s in spans if s["parent"] == root["id"]]
    cov = stats.coverage((root["t0"], root["t1"]), kids)
    run.op([] if cov >= MIN_COVERAGE else
           ["spans cover %.3f of the replay, below %.2f" % (cov, MIN_COVERAGE)])
    run.put("trace.coverage_frac", cov, 1)


def lr_trace(run, workload, _seconds):
    n = 3 if workload == "lr3-check" else 4
    sym = "on" if n == 4 else "off"
    process_start(run, PRTB, ["--version"])
    t0 = time.perf_counter()
    reps = 1 if n == 4 else 3   # a replay takes ~6 s at n=4, ~0.3 s at n=3
    data = replay("lr", "--n", n, "--sym", sym, "--reps", reps)
    t1 = time.perf_counter()
    run.span("replay.exe lr", t0, t1, pid=0)
    run.ocaml_spans(data["spans"], pid=1, offset=t0 - run.origin)
    res = data["results"]
    # The CLI on the same instance, with the registry counters.
    t2 = time.perf_counter()
    cli = run_cmd([PRTB] + LR_ARGS[workload] + ["--stats"])
    run.span("prtb " + " ".join(LR_ARGS[workload]), t2, t2 + cli["wall"])
    fidelity = []
    if cli["code"] != 0:
        fidelity.append("cli exited %d" % cli["code"])
    if lr_cli_results(cli["out"]) != replay_results(res):
        fidelity.append("replay disagrees with the CLI: %r vs %r" % (
            replay_results(res), lr_cli_results(cli["out"])))
    run.op(fidelity + lr_problems(cli["out"], LR_STATES[workload]))
    reg = re.search(r"registry: explorations: (\d+), compiles: (\d+), "
                    r"builds: (\d+)", cli["out"])
    if not reg:
        run.op(["cli --stats printed no registry line"])
    reg = [int(x) for x in reg.groups()] if reg else [0, 0, 0]

    t = span_times(data["spans"])
    c = data["counters"]
    untraced = med(data["untraced_s"])
    run.put("explore.s", t["explore"], 1)
    run.put("explore.states", res["states"], 1)
    run.put("explore.branches", res["branches"], 1)
    if sym == "on":
        run.put("symmetry.verify_s", t["symmetry.verify"], 1)
        run.put("symmetry.canon_s", c["canon_s"], 1)
        run.put("symmetry.canon_calls", c["canon_calls"], 1)
        run.put("symmetry.enabled_calls", c["enabled_calls"], 1)
        run.put("symmetry.states_checked", c["states_checked"], 1)
    run.put("arena.compile_s", t["arena.compile"], 1)
    run.put("arena.fingerprint_s", t["arena.fingerprint"], 1)
    run.put("engine.invariant_s", t["engine.invariant"], 1)
    run.put("engine.arrows_s", t["engine.arrows"], 1)
    run.put("engine.compose_s", t["engine.compose"], 1)
    run.put("engine.direct_s", t["engine.direct"], 1)
    run.put("engine.expected_s", t["engine.expected"], 1)
    run.put("claim.render_s", t["claim.render"], 1)
    put_plane(run, c["plane"])
    run.put("registry.explorations", reg[0], 1)
    run.put("registry.compiles", reg[1], 1)
    run.put("registry.builds", reg[2], 1)
    run.put("replay.gap_s", cli["wall"] - untraced, 1)
    put_coverage(run, data["spans"])
    run.put("trace.overhead_frac", med(data["traced_s"]) / untraced - 1.0,
            len(data["traced_s"]))


# --------------------------------------------------------------------
# nondyadic-walk.

def walk_problems(data):
    r = data["results"]
    p = []
    if r["mismatches"]:
        p.append("walk: %d states differ from the rational reference"
                 % r["mismatches"])
    if data["counters"]["plane"]["residue"] <= 0:
        p.append("walk: the interval plane left no residue")
    if r["states"] != WALK_STATES:
        p.append("walk: %d states, expected %d" % (r["states"], WALK_STATES))
    return p


def walk_measure(run, seed, seconds):
    data = replay("walk", "--seed", seed, "--seconds", seconds,
                  "--setups", WALK_SETUPS)
    for _ in data["setup_s"] + data["samples_s"]:
        run.op([])
    run.op(walk_problems(data))
    run.put("setup_s", med(data["setup_s"]), len(data["setup_s"]))
    run.put("check_s", med(data["samples_s"]), len(data["samples_s"]))
    run.put("rss_peak_mb", data["_rss_mb"], 1)


def walk_trace(run, seed, seconds):
    process_start(run, REPLAY, ["noop"])
    t0 = time.perf_counter()
    data = replay("walk", "--seed", seed, "--traced", 1, "--setups", 1)
    run.span("replay.exe walk", t0, time.perf_counter())
    run.ocaml_spans(data["spans"], pid=1, offset=t0 - run.origin)
    run.op(walk_problems(data))
    t = span_times(data["spans"])
    res = data["results"]
    run.put("explore.s", t["explore"], 1)
    run.put("explore.states", res["states"], 1)
    run.put("explore.branches", res["branches"], 1)
    run.put("arena.compile_s", t["arena.compile"], 1)
    run.put("engine.reach_s", t["engine.reach"], 1)
    run.put("engine.reach_exact_s", t["engine.reach_exact"], 1)
    put_plane(run, data["counters"]["plane"])
    put_coverage(run, data["spans"])
    run.put("trace.overhead_frac",
            med(data["traced_s"]) / med(data["untraced_s"]) - 1.0,
            len(data["traced_s"]))


# --------------------------------------------------------------------
# serve-mix.

class Daemon:
    def __init__(self, run):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([PRTB, "serve", "--port", "0"],
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, cwd=ROOT)
        LIVE.append(self.proc)
        line = self.proc.stdout.readline().decode()
        m = re.search(r"http://([0-9.]+):(\d+)/", line)
        if not m:
            raise RuntimeError("prtb serve did not start: %r" % line)
        self.host, self.port = m.group(1), int(m.group(2))
        reqs, _ = loadgen.get(self.host, self.port, ["/health"])
        if not reqs[0].ok:
            raise RuntimeError("prtb serve: /health failed")
        self.setup_s = time.perf_counter() - t0
        run.span("daemon.start", t0, t0 + self.setup_s)

    def get(self, paths):
        return loadgen.get(self.host, self.port, paths)

    def stats(self):
        reqs, _ = self.get(["/stats"])
        if not reqs[0].ok:
            raise RuntimeError("prtb serve: /stats failed")
        return json.loads(reqs[0].body)

    def stop(self):
        self.proc.send_signal(signal.SIGTERM)
        result = reap(self.proc, 30.0)
        self.proc.stdout.close()
        return result


def cli_references(run):
    """The CLI bodies every served cold-set body must equal byte for
    byte, each certificate checked by ``prtb verify-cert``."""
    refs = {}
    for label, _ in COLD:
        base = [PRTB, "check"] + CLI_ARGS[label]
        chk = run_cmd(base + ["--format", "json"])
        cert = run_cmd(base + ["--emit-cert"])
        run.op([] if chk["code"] == 0 else ["check --format json failed"])
        run.op([] if cert["code"] == 0 else ["check --emit-cert failed"])
        refs[("check", label)] = chk["out"].rstrip("\n").encode()
        refs[("cert", label)] = cert["out"].rstrip("\n").encode()
        path = os.path.join(OUT, "cert-%s.json" % label)
        with open(path, "wb") as f:
            f.write(refs[("cert", label)])
        ver = run_cmd([PRTB, "verify-cert", path])
        run.op([] if ver["code"] == 0 and "certificate: OK" in ver["out"]
               else ["verify-cert refused the %s certificate" % label])
    return refs


def cold_set(run, daemon, refs):
    paths, keys = [], []
    for label, qs in COLD:
        for ep in ("check", "cert"):
            paths.append("/%s?%s" % (ep, qs))
            keys.append((ep, label))
    reqs, _ = daemon.get(paths)
    for r, key in zip(reqs, keys):
        run.op([] if r.ok and r.body == refs[key] else
               ["cold /%s %s: status %s, body differs from the CLI"
                % (key[0], key[1], r.status)])
        run.span("cold /%s %s" % key, run.origin + r.send,
                 run.origin + r.done, req=r.rid)
    s = daemon.stats()
    run.op([] if s["registry"]["builds"] == len(COLD) else
           ["registry built %d instances for %d distinct ones"
            % (s["registry"]["builds"], len(COLD))])
    return reqs[-1].done - reqs[0].send


def served_problems(r, hit_refs):
    """What is wrong with one answered sweep or mixed-phase request: a
    warm hit (``tag`` >= 0, the index of its query) must equal the cold
    body, a ``/simulate`` miss (``tag`` = -seed) must echo its seed."""
    if r.tag >= 0:
        ok = r.ok and r.body == hit_refs[r.tag]
    else:
        try:
            ok = r.ok and json.loads(r.body).get("seed") == -r.tag
        except ValueError:
            ok = False
    return [] if ok else ["%s: status %s, error %s"
                          % (r.path, r.status, r.error)]


def run_phase(run, daemon, label, schedule, hit_refs):
    """Send one phase open-loop.  ``schedule(attempt)`` gives the
    attempt's (due, path, tag) triples.  A phase in which the generator's
    own lateness passed OWN_LAG_LIMIT_S measured the generator, not the
    server, and is run again on a fresh schedule, PHASE_ATTEMPTS times in
    all.  Returns the last attempt's requests, how many of them failed,
    and the connections opened and requests sent over all attempts."""
    connects = sent = 0
    for attempt in range(PHASE_ATTEMPTS):
        reqs = [loadgen.Request(due, path, tag=tag, rid=i + 1)
                for i, (due, path, tag) in enumerate(schedule(attempt))]
        t0 = time.perf_counter()
        st = loadgen.run(daemon.host, daemon.port, reqs, origin=t0)
        run.span("%s #%d" % (label, attempt + 1), t0, time.perf_counter())
        connects += st.connects
        sent += st.sent
        bad = 0
        for r in reqs:
            problems = served_problems(r, hit_refs)
            bad += bool(problems)
            run.op(problems)
        if own_lag_p99(reqs) <= OWN_LAG_LIMIT_S:
            break
    return reqs, bad, connects, sent


def serve_phases(run, daemon, refs, seed, seconds):
    """The warm sweep and the mixed phase on one warm daemon."""
    hit_paths = ["/check?" + qs for _, qs in COLD]
    hit_refs = [refs[("check", label)] for label, _ in COLD]
    connects = sent = 0

    def hits(rng, rate, dur):
        out = []
        for due in loadgen.poisson_schedule(rng, rate, dur):
            i = rng.randrange(len(hit_paths))
            out.append((due, hit_paths[i], i))
        return out

    sweep = {}
    for rate in SWEEP_RATES:
        # Long enough that the p99 almost surely has its 1000 samples.
        dur = max(0.06 * seconds, 1300.0 / rate, 1.0)
        reqs, bad, c, n = run_phase(
            run, daemon, "sweep %d/s" % rate,
            lambda attempt: hits(loadgen.seeded_rng(
                seed, "sweep/%d/%d" % (rate, attempt)), rate, dur),
            hit_refs)
        sweep[rate] = (reqs, bad)
        connects += c
        sent += n

    # Mixed: warm hits plus /simulate misses with fresh seeded seeds.
    dur = max(0.2 * seconds, 1500.0 / MIX_HIT_RATE, 40.0 / MIX_MISS_RATE)

    def mixed_schedule(attempt):
        rng = loadgen.seeded_rng(seed, "mixed/%d" % attempt)
        sched = hits(rng, MIX_HIT_RATE, dur)
        for due in loadgen.poisson_schedule(rng, MIX_MISS_RATE, dur):
            s = rng.randrange(1, 1 << 30)
            sched.append((due, "/simulate?model=lr&n=3&trials=%d&seed=%d"
                          % (SIM_TRIALS, s), -s))
        return sorted(sched)

    mixed, _, c, n = run_phase(run, daemon, "mixed", mixed_schedule, hit_refs)
    sim_seeds = [-r.tag for r in mixed if r.tag < 0]
    return sweep, mixed, sim_seeds, connects + c, sent + n


def serve_measure(run, seed, seconds):
    refs = cli_references(run)
    setups, colds, peaks = [], [], []
    t_end = time.perf_counter() + COLD_SHARE * seconds
    last = False
    while not last:
        for _ in range(SETUPS_PER_COLD):
            d = Daemon(run)
            setups.append(d.setup_s)
            code, _ = d.stop()
            run.op([] if code == 0 else ["prtb serve exited %d" % code])
        # The last daemon also carries the warm sweep and the mixed phase.
        last = len(colds) + 1 >= MIN_COLDS and time.perf_counter() >= t_end
        d = Daemon(run)
        try:
            setups.append(d.setup_s)
            run.op([])
            colds.append(cold_set(run, d, refs))
            if last:
                serve_phases(run, d, refs, seed, seconds)
        finally:
            code, rss = d.stop()
        peaks.append(rss)
        run.op([] if code == 0 else ["prtb serve exited %d" % code])
    run.put("setup_s", med(setups), len(setups))
    run.put("check_s", med(colds), len(colds))
    run.put("rss_peak_mb", med(peaks), len(peaks))


def own_lag_p99(reqs):
    """p99 of the generator's own lateness over the sent ``reqs``;
    infinite when there are too few samples to tell."""
    v = stats.percentile([r.own_lag for r in reqs if r.send is not None], 99)
    return float("inf") if v is None else v


def backlog_grows(reqs):
    """Latency in the last quarter far above the first quarter's."""
    q = max(1, len(reqs) // 4)
    first = stats.median([r.latency for r in reqs[:q]])
    last = stats.median([r.latency for r in reqs[-q:]])
    return last > max(SLO_S, 2.0 * first)


def serve_trace(run, seed, seconds):
    process_start(run, PRTB, ["--version"])
    refs = cli_references(run)
    d = Daemon(run)
    try:
        cold_total = cold_set(run, d, refs)
        sweep, mixed, sim_seeds, connects, sent = serve_phases(
            run, d, refs, seed, seconds)
        s = d.stats()
    finally:
        code, _ = d.stop()
    run.op([] if code == 0 else ["prtb serve exited %d" % code])
    for reqs, _ in sweep.values():
        for r in reqs:
            if r.send is not None:
                run.span("GET /check", run.origin + r.send,
                         run.origin + r.done, req=r.rid)

    # The generator's own lateness in each phase's last attempt.  Where
    # it still passes OWN_LAG_LIMIT_S the phase measured the generator:
    # a swept rate then does not count toward max_rate_rps, and a phase
    # whose latencies are reported (the reference rate, the mixed
    # phase) makes the run invalid.
    own = {rate: own_lag_p99(reqs) for rate, (reqs, _) in sweep.items()}
    own["mixed"] = own_lag_p99(mixed)
    for phase in (REF_RATE, "mixed"):
        run.op([] if own[phase] <= OWN_LAG_LIMIT_S else
               ["the generator lagged in phase %s: own lag p99 %.3f ms"
                % (phase, own[phase] * 1e3)])
    ref, _ = sweep[REF_RATE]
    lat = [r.latency for r in ref]
    p50, p99 = stats.percentile(lat, 50), stats.percentile(lat, 99)
    max_rate = 0
    for rate in SWEEP_RATES:
        reqs, bad = sweep[rate]
        q99 = stats.percentile([r.latency for r in reqs], 99)
        if bad == 0 and q99 is not None and q99 <= SLO_S \
                and own[rate] <= OWN_LAG_LIMIT_S \
                and not backlog_grows(reqs):
            max_rate = rate
    hits = [r for r in mixed if r.tag >= 0]
    misses = [r for r in mixed if r.tag < 0]
    for name, v in (("warm_p50_us", p50), ("warm_p99_us", p99),
                    ("miss_p50_ms", stats.percentile(
                        [r.latency for r in misses], 50)),
                    ("mixed_hit_p99_ms", stats.percentile(
                        [r.latency for r in hits], 99))):
        if v is None:
            raise RuntimeError("too few samples for %s" % name)
    run.put("cold_total_s", cold_total, 1)
    run.put("warm_p50_us", p50 * 1e6, len(lat))
    run.put("warm_p99_us", p99 * 1e6, len(lat))
    run.put("max_rate_rps", max_rate, len(SWEEP_RATES))
    run.put("miss_p50_ms", stats.percentile([r.latency for r in misses], 50)
            * 1e3, len(misses))
    run.put("mixed_hit_p99_ms", stats.percentile([r.latency for r in hits], 99)
            * 1e3, len(hits))
    run.put("loadgen.sent", sent, 1)
    worst = max(own, key=lambda phase: own[phase])
    run.put("loadgen.lag_p99_ms", own[worst] * 1e3,
            len(mixed) if worst == "mixed" else len(sweep[worst][0]))
    run.put("http.connects", connects, 1)
    run.put("daemon.rejected", s["server"]["overload_rejected"], 1)
    rc = s["results_cache"]
    run.put("cache.hits", rc["hits"], 1)
    run.put("cache.misses", rc["misses"], 1)
    run.put("cache.evictions", rc["evictions"], 1)
    looked = rc["hits"] + rc["misses"]
    run.put("cache.hit_ratio", rc["hits"] / looked if looked else 0.0, 1)
    reg = s["registry"]
    run.put("registry.explorations", reg["explorations"], 1)
    run.put("registry.compiles", reg["compiles"], 1)
    run.put("registry.builds", reg["builds"], 1)

    # In process: the same cold set, hits and misses through
    # Server.Service.handle, untraced then traced.
    seeds = ",".join(str(x) for x in sim_seeds[:20])
    plain = replay("service", "--sim-seeds", seeds, "--traced", 0)
    t0 = time.perf_counter()
    traced = replay("service", "--sim-seeds", seeds, "--traced", 1)
    run.span("replay.exe service", t0, time.perf_counter())
    run.ocaml_spans([x for x in traced["spans"]
                     if x["name"] != "service.hit_one"], pid=1,
                    offset=t0 - run.origin)
    for data in (plain, traced):
        run.op([] if data["cert_ok"] else ["in-process cert refused"])
    hit_us = stats.percentile(plain["hit_s"], 50) * 1e6
    rtt = stats.percentile([r.rtt for r in ref], 50) * 1e6
    run.put("service.hit_us", hit_us, len(plain["hit_s"]))
    run.put("service.miss_ms", med(plain["miss_s"]) * 1e3,
            len(plain["miss_s"]))
    run.put("sim.trials_per_s", plain["sim_trials"] / med(plain["sim_s"]),
            len(plain["sim_s"]))
    run.put("cert.emit_s", plain["cert_emit_s"], 1)
    run.put("cert.verify_s", plain["cert_verify_s"], 1)
    run.put("cert.bytes", plain["cert_bytes"], 1)
    run.put("json.render_us", med(plain["render_s"]) * 1e6,
            len(plain["render_s"]))
    run.put("http.overhead_us", rtt - hit_us, len(ref))
    put_plane(run, plain["counters"]["plane"])
    put_coverage(run, traced["spans"])
    run.put("trace.overhead_frac", traced["cold_s"] / plain["cold_s"] - 1.0, 1)


# --------------------------------------------------------------------

def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[key]}
    for name in declared:
        stats.check_name(name)

    preflight()
    build()
    info = describe(args.workload, args.seed, args.trace)
    run = Run(tracing=bool(args.trace))
    try:
        if args.workload in LR_ARGS:
            (lr_trace if args.trace else lr_measure)(
                run, args.workload, args.seconds)
        elif args.workload == "nondyadic-walk":
            (walk_trace if args.trace else walk_measure)(
                run, args.seed, args.seconds)
        else:
            (serve_trace if args.trace else serve_measure)(
                run, args.seed, args.seconds)
    finally:
        stop_all()

    unknown = set(run.metrics) - set(declared)
    if unknown:
        raise RuntimeError("metrics not in BENCHMARK.json: %s"
                           % sorted(unknown))
    # A layer this workload never enters reads 0, from 0 samples.
    for name in declared:
        run.metrics.setdefault(name, (0.0, 0))

    record = dict(info, attempted=run.attempted, failed=run.failed,
                  problems=run.problems,
                  metrics={n: {"value": v, "unit": declared[n], "samples": k}
                           for n, (v, k) in sorted(run.metrics.items())})
    os.makedirs(OUT, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    if run.tracing:
        with open(os.path.join(OUT, stem + ".trace.json"), "w") as f:
            json.dump({"traceEvents": run.spans, "otherData": info}, f)

    print("# %s seed=%d trace=%d nproc=%s ocaml=%s commit=%s" % (
        args.workload, args.seed, args.trace, info["nproc"], info["ocaml"],
        info["commit"]))
    for name in sorted(run.metrics):
        v, k = run.metrics[name]
        print("%-26s %14.6g %-6s n=%d" % (name, v, declared[name], k))
    print("%-26s %14.6g %-6s n=%d" % ("failed_frac",
                                      run.failed / max(1, run.attempted),
                                      "ratio", run.attempted))
    for p in run.problems[:10]:
        print("# problem: %s" % p)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": declared[n]}
                    for n, (v, _) in sorted(run.metrics.items())}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Failure as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(2)
