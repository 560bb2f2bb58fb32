"""Benchmark of the hetg2 command line, run from the root of a source tree.

    python3 clibench/run.py --workload verify-all --seed 1 --seconds 40 --trace 0

Every operation is a cold child process ``python -m hetg2.cli ...`` with
``PYTHONPATH=<tree>/src`` and a fresh empty working directory, TMPDIR and
HOME, run one at a time.  A run repeats whole rounds of its workload's
operations, in the same order, while another round fits in ``--seconds``
(and at least MIN_ROUNDS rounds), and checks every output.  The time of an
op kind (one command, on the workload's inputs) is the median of all its
runs in the run, and set-up time is the median of the run's import-only
interpreters; README.md says why medians and not best-of-k.

``--trace 1`` runs one round again, each operation in a child interpreter
that installs span wrappers (``trace_child.py``) before calling
``hetg2.cli.main``, and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".clibench"

MIN_ROUNDS = 3
SETUP_PROBES_PER_ROUND = 5
OP_TIMEOUT_S = 150

WORKLOADS = ("verify-all", "symbolic-sweep", "catalog")
SUITES = ("3ad", "su3", "spinor", "heisenberg", "bianchi")
PER_LAYER = (
    [f"cli.suite.{s}.s" for s in SUITES]
    + ["cli.main.s", "cli.list_checks.s", "cli.show.s",
       "structures.registry.s",
       "spinor.build_rep.calls", "spinor.build_rep.repeats",
       "spinor.build_rep.s", "spinor.matmul.calls", "spinor.gq_mul.calls",
       "spinor.gq_mul.zero_share", "spinor.form_from_spinor.s",
       "spinor.majorana_family_form.s", "spinor.self_s",
       "heisenberg.curvature_fp.calls", "heisenberg.curvature_fp.s",
       "heisenberg.spin_killing_checks.s",
       "heisenberg.theorem1_end_to_end.s", "heisenberg.self_s",
       "structures.torsion_classes.calls", "structures.torsion_classes.s",
       "structures.ring_init.s", "structures.self_s",
       "linsolve.solve_ring_rhs.calls", "linsolve.solve_ring_rhs.s",
       "linsolve.rref.calls", "linsolve.self_s",
       "exterior.wedge.calls", "exterior.star.calls", "exterior.self_s",
       "scalar.mul.calls", "scalar.subs.calls", "scalar.prem.calls",
       "scalar.self_s",
       "curvature.wedge_trace.calls", "curvature.wedge_trace.s",
       "curvature.instanton_obstruction.s", "curvature.self_s",
       "bianchi.residual.calls", "bianchi.residual.repeats",
       "bianchi.residual.s", "bianchi.verify_branch.s", "bianchi.self_s",
       "base.fraction_new.calls", "host.ref_s"])

# the fault that makes on-branch points with alpha != 1 fail: the exact-
# solution record evaluates the residual at lam1 = 4, which is -beta = 4 alpha
# only at alpha = 1
LAM1_FAULT = [f"{checks.EXACT_ID}: fail (expected pass)"]


@dataclass
class Result:
    rc: int
    stdout: str
    stderr: str
    report: bytes | None
    seconds: float
    trace: dict | None = None


@dataclass
class Op:
    label: str
    # ops of one kind run the same command on different inputs
    kind: str
    argv: list
    # check(result, results of this round so far) -> list of problems
    check: object
    # problems this op shows, every time, because of a known program fault
    fault: list | None = None
    times: list = field(default_factory=list)
    outputs: set = field(default_factory=set)


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

CLI = ["-m", "hetg2.cli"]
IMPORT_ONLY = ["-c", "import hetg2.cli"]


def run_child(python_args: list) -> Result:
    """Run ``python <python_args>`` cold, in fresh empty cwd, TMPDIR, HOME."""
    base = WORK / f"op-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    cwd, tmp, home = base / "cwd", base / "tmp", base / "home"
    for d in (cwd, tmp, home):
        d.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp),
               HOME=str(home))
    try:
        start = time.perf_counter()
        p = subprocess.run([sys.executable] + python_args, cwd=cwd, env=env,
                           capture_output=True, text=True,
                           timeout=OP_TIMEOUT_S)
        seconds = time.perf_counter() - start
        report = cwd / "report.json"
        trace = cwd / "trace.json"
        return Result(p.returncode, p.stdout, p.stderr,
                      report.read_bytes() if report.exists() else None,
                      seconds,
                      json.loads(trace.read_text()) if trace.exists() else None)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def setup_probe() -> float:
    """One fresh interpreter that only imports the command line and exits."""
    r = run_child(IMPORT_ONLY)
    if r.rc != 0:
        raise BenchError(f"importing hetg2.cli failed: {r.stderr[-2000:]}")
    return r.seconds


def run_traced(argv: list) -> Result:
    """Run a command under trace_child.py; its own exit code is in the trace."""
    r = run_child([str(HERE / "trace_child.py")] + argv)
    if r.rc != 0 or r.trace is None:
        raise BenchError(f"traced child failed: {r.stderr[-2000:]}")
    t = r.trace
    return Result(t["rc"], t["stdout"], t["stderr"], r.report, r.seconds, t)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _verify_op(suite: str, params: dict | None = None, fault=None) -> Op:
    argv = ["verify", "--suite", suite, "--json", "report.json"]
    label = f"verify --suite {suite}"
    if params:
        text = ",".join(f"{k}={v}" for k, v in params.items())
        argv += ["--params", text]
        label += f" --params {text}"
    return Op(label, f"verify --suite {suite}", argv,
              lambda r, _: checks.check_verify(suite, r.rc, r.report, params),
              fault)


def _show_op(name: str, kind: str, check) -> Op:
    return Op(f"show --name {name}", kind, ["show", "--name", name], check)


def _rand_rat(rng: random.Random, lo: int = -9, hi: int = 9) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(lo, hi)
    return Fraction(num, rng.randint(1, 6))


def sweep_points(rng: random.Random) -> list:
    """(alpha, delta, alphap, fault) points for the bianchi suite.

    Fixed on-branch points (delta = 0, 12 a' alpha^2 = 1): alpha = 1, which
    passes, and two with alpha != 1, which fail every time today (LAM1_FAULT).
    Seeded near-branch points keep one defining equation of the branch and
    break the other: delta = 0 with a' off 1/(12 alpha^2), and
    a' = 1/(12 alpha^2) with delta != 0.
    """
    pts = [(Fraction(1), Fraction(0), Fraction(1, 12), None),
           (Fraction(2), Fraction(0), Fraction(1, 48), LAM1_FAULT),
           (Fraction(-1, 2), Fraction(0), Fraction(1, 3), LAM1_FAULT)]
    for _ in range(2):
        alpha = _rand_rat(rng)
        alphap = _rand_rat(rng, 1, 9) / 12
        while 12 * alphap * alpha ** 2 == 1:
            alphap = _rand_rat(rng, 1, 9) / 12
        pts.append((alpha, Fraction(0), alphap, None))
    for _ in range(2):
        alpha = _rand_rat(rng)
        pts.append((alpha, _rand_rat(rng), 1 / (12 * alpha ** 2), None))
    return pts


def build_ops(workload: str, rng: random.Random) -> list:
    if workload == "verify-all":
        return [_verify_op("all")]
    if workload == "symbolic-sweep":
        ops = [_verify_op("3ad"), _verify_op("su3")]
        for alpha, delta, alphap, fault in sweep_points(rng):
            ops.append(_verify_op("bianchi", {"alpha": alpha, "delta": delta,
                                              "alphap": alphap}, fault))
        return ops
    if workload == "catalog":
        return catalog_ops(rng)
    raise BenchError(f"unknown workload {workload!r}")


def catalog_ops(rng: random.Random) -> list:
    probe = run_child(CLI + ["show", "--name", "no.such.name"])
    if probe.rc != 2:
        raise BenchError(f"unknown name gave exit code {probe.rc}, not 2")
    names = checks.known_names(probe.stderr)
    forms = sorted(n for n in names
                   if not checks.SPINOR_NAME.match(n) and n != "Tc.3ad")
    form = rng.choice(forms)
    family = rng.choice(sorted(checks.SPINOR_FAMILIES))
    members = sorted(n for n in names if checks.SPINOR_FAMILIES[family].match(n))
    pair = rng.sample(members, 2)
    ref_ids = reference_ids()

    def spinor_check(name, partners):
        """Check a shown spinor with the family members shown before it."""
        def check(r, done):
            outs = {n: (done[f"show --name {n}"].rc,
                        done[f"show --name {n}"].stdout) for n in partners}
            outs[name] = (r.rc, r.stdout)
            return checks.check_spinor_family(family, outs)
        return check

    return [
        Op("verify --list", "verify --list", ["verify", "--list"],
           lambda r, _: checks.check_list(r.rc, r.stdout, ref_ids)),
        _show_op("Tc.3ad", "show form",
                 lambda r, _: checks.check_form("Tc.3ad", r.rc, r.stdout)),
        _show_op(form, "show form",
                 lambda r, _: checks.check_form(form, r.rc, r.stdout)),
        _show_op(pair[0], "show spinor", spinor_check(pair[0], [])),
        _show_op(pair[1], "show spinor", spinor_check(pair[1], [pair[0]])),
    ]


def reference_ids() -> list:
    """Check ids of ``verify --suite all`` for this source tree.

    The report is made once per tree and kept under .clibench, keyed by the
    sha256 of the sources, so that only the first catalog run pays for it.
    """
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    cache = WORK / f"suite-all-{h.hexdigest()[:16]}.json"
    if not cache.exists():
        r = run_child(CLI + ["verify", "--suite", "all", "--json", "report.json"])
        problems = checks.check_verify("all", r.rc, r.report)
        if problems:
            raise BenchError("reference --suite all run is wrong: "
                             + "; ".join(problems))
        tmp = cache.with_suffix(".part")
        tmp.write_bytes(r.report)
        tmp.replace(cache)
    return [rec["check_id"] for rec in json.loads(cache.read_bytes())["records"]]


# ---------------------------------------------------------------------------
# host reference
# ---------------------------------------------------------------------------

def _hilbert_det(n: int) -> Fraction:
    a = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for c in range(n):
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] * inv
            for k in range(c, n):
                a[r][k] -= f * a[c][k]
    return det


def host_ref_s(n: int = 36, repeats: int = 5) -> float:
    """Best-of time of a fixed stdlib Fraction kernel (a Hilbert determinant)."""
    cn = [math.prod(math.factorial(i) for i in range(k)) for k in (n, 2 * n)]
    expected = Fraction(cn[0] ** 4, cn[1])
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        det = _hilbert_det(n)
        best = min(best, time.perf_counter() - start)
        if det != expected:
            raise BenchError("host reference kernel gave a wrong determinant")
    return best


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def record(self, op: Op, r: Result, done: dict) -> None:
        self.attempted += 1
        problems = op.check(r, done)
        if problems:
            self.failed += 1
            if problems != op.fault:
                self.correct = False
            kind = "known fault" if problems == op.fault else "FAILED"
            print(f"  {kind}: {op.label}: " + "; ".join(problems))


def run_round(ops: list, tally: Tally, runner) -> dict:
    """Run and check every op once, in order; results keyed by op label."""
    done: dict = {}
    for op in ops:
        r = runner(op.argv)
        tally.record(op, r, done)
        done[op.label] = r
    return done


def measure(ops: list, seconds: float) -> tuple:
    tally = Tally()
    setup = []
    start = time.perf_counter()
    rounds = 0
    last = 0.0
    # a round starts only if one more round of the last one's length fits
    while rounds < MIN_ROUNDS or \
            time.perf_counter() - start + last <= seconds:
        round_start = time.perf_counter()
        setup += [setup_probe() for _ in range(SETUP_PROBES_PER_ROUND)]
        done = run_round(ops, tally, lambda argv: run_child(CLI + argv))
        for op in ops:
            r = done[op.label]
            op.times.append(r.seconds)
            op.outputs.add((r.rc, r.stdout, r.report))
        rounds += 1
        last = time.perf_counter() - round_start
    kinds: dict = {}
    for op in ops:
        kinds.setdefault(op.kind, []).extend(op.times)
        if len(op.outputs) != 1:
            tally.correct = False
            print(f"  FAILED: {op.label}: output differs between repeats")
        _, _, report = next(iter(op.outputs))
        if op.label == "verify --suite all" and report is not None:
            print(f"  report sha256 {hashlib.sha256(report).hexdigest()}")
    for kind, times in kinds.items():
        print(f"  {kind}: best {min(times):.4f} s, median "
              f"{statistics.median(times):.4f} s of {len(times)}")
    print(f"  rounds {rounds}, setup probes {len(setup)}, "
          f"host.ref_s {host_ref_s():.5f}")
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "work_s": (sum(statistics.median(t) for t in kinds.values()), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    return tally, metrics


def layer_metrics(traces: list) -> dict:
    """Per-layer counts, inclusive times and self times, summed over ops."""
    calls: dict = {}
    incl: dict = {}
    self_s: dict = {}
    counters: dict = {}
    for tr in traces:
        spans = tr["spans"]
        child = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".")[0]
            self_s[layer] = self_s.get(layer, 0) + (end - start - child[i]) / 1e9
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                incl[name] = incl.get(name, 0) + (end - start) / 1e9
        for k, v in tr["counters"].items():
            counters[k] = counters.get(k, 0) + v
    out: dict = {}
    for metric in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if kind == "self_s":
            out[metric] = (self_s.get(base, 0.0), "s")
        elif kind == "s":
            out[metric] = (incl.get(base, 0.0), "s")
        elif kind == "calls" and base in calls:
            out[metric] = (calls[base], "count")
        elif kind in ("calls", "repeats"):
            out[metric] = (counters.get(metric, 0), "count")
    n = counters.get("spinor.gq_mul.calls", 0)
    out["spinor.gq_mul.zero_share"] = (
        counters.get("spinor.gq_mul.zero", 0) / n if n else 0.0, "ratio")
    return out


def measure_traced(ops: list) -> tuple:
    tally = Tally()
    done = run_round(ops, tally, run_traced)
    metrics = layer_metrics([r.trace for r in done.values()])
    metrics["host.ref_s"] = (host_ref_s(), "s")
    return tally, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hetg2" / "cli.py").is_file():
        print(f"error: no hetg2 source tree under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        setup_probe()  # compiles __pycache__ before anything is timed
        ops = build_ops(args.workload, random.Random(args.seed))
        print(f"{args.workload} seed {args.seed}: "
              + " | ".join(op.label for op in ops))
        if args.trace:
            tally, metrics = measure_traced(ops)
        else:
            tally, metrics = measure(ops, args.seconds)
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print(json.dumps({
        "correct": tally.correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
