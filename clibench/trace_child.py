"""Run one hetg2 command in-process with span wrappers installed.

Usage (from an empty working directory, with the tree's ``src`` on
PYTHONPATH)::

    python trace_child.py <hetg2 argv...>

Span wrappers are installed from here around the functions named in SPANS,
and counting wrappers around ``GQ.__mul__`` and ``Fraction.__new__``, before
``hetg2.cli.main(argv)`` is called.  Each span records its name, start, end
and parent; spans are kept in memory and written, together with the counters
and the command's exit code and output, to ``trace.json`` in the working
directory when the command returns.
"""

from __future__ import annotations

import contextlib
import fractions
import functools
import io
import json
import sys
import time

from hetg2 import (bianchi, cli, curvature, exterior, heisenberg, linsolve,
                   scalar, spinor, structures)

# span name -> (owner, attribute); methods are patched on their class,
# module functions in every hetg2 module that imported them by name.
SPANS = {
    "cli.list_checks": (cli, "list_checks"),
    "cli.show": (cli, "cmd_show"),
    "structures.registry": (structures, "registry"),
    "structures.torsion_classes": (structures, "torsion_classes"),
    "structures.ring_init": (structures._BaseRing, "__init__"),
    "spinor.build_rep": (spinor, "build_rep"),
    "spinor.matmul": (spinor, "matmul"),
    "spinor.form_from_spinor": (spinor, "form_from_spinor"),
    "spinor.majorana_family_form": (spinor, "majorana_family_form"),
    "heisenberg.curvature_fp": (heisenberg, "curvature_fp"),
    "heisenberg.spin_killing_checks": (heisenberg, "spin_killing_checks"),
    "heisenberg.theorem1_end_to_end": (heisenberg, "theorem1_end_to_end"),
    "linsolve.solve_ring_rhs": (linsolve, "solve_ring_rhs"),
    "linsolve.rref": (linsolve, "rref"),
    "exterior.wedge": (exterior.Form, "wedge"),
    "exterior.star": (exterior.Form, "star"),
    "scalar.mul": (scalar.Scalar, "__mul__"),
    "scalar.subs": (scalar.Scalar, "subs"),
    "scalar.prem": (scalar, "prem"),
    "curvature.wedge_trace": (curvature, "wedge_trace"),
    "curvature.instanton_obstruction": (curvature, "instanton_obstruction"),
    "bianchi.residual": (bianchi, "residual"),
    "bianchi.verify_branch": (bianchi, "verify_branch"),
}
for _suite in ("3ad", "su3", "spinor", "heisenberg", "bianchi"):
    SPANS[f"cli.suite.{_suite}"] = (cli, f"suite_{_suite}")

# spans whose calls are also keyed, to count calls that repeat an earlier
# call of the same process
REPEAT_KEYS = {
    "spinor.build_rep": lambda m: m,
    "bianchi.residual": lambda geometry, lam1, lam2, ring=None: (
        geometry, str(lam1), str(lam2), id(ring)),
}

MODULES = (bianchi, cli, curvature, exterior, heisenberg, linsolve, scalar,
           spinor, structures)

spans: list = []      # [name, start_ns, end_ns, parent index or -1]
stack: list = []
counters: dict = {}
seen_keys: dict = {}


def _span(name, fn):
    key = REPEAT_KEYS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if key is not None:
            k = key(*args, **kwargs)
            keys = seen_keys.setdefault(name, set())
            if k in keys:
                counters[f"{name}.repeats"] = counters.get(
                    f"{name}.repeats", 0) + 1
            keys.add(k)
        idx = len(spans)
        spans.append([name, 0, 0, stack[-1] if stack else -1])
        stack.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[idx][1] = start
            spans[idx][2] = end
    return wrapper


def _replace(owner, attr, new):
    """Patch ``owner.attr`` and every alias or imported copy of it."""
    old = getattr(owner, attr)
    if isinstance(owner, type):
        for k, v in list(vars(owner).items()):
            if v is old:
                setattr(owner, k, new)
        return
    for mod in MODULES:
        for k, v in list(vars(mod).items()):
            if v is old:
                setattr(mod, k, new)
            elif isinstance(v, dict):
                for dk, dv in list(v.items()):
                    if dv is old:
                        v[dk] = new


def _gq_mul(fn):
    GQ = spinor.GQ

    def is_zero(x):
        return x.re == 0 and x.im == 0 if isinstance(x, GQ) else x == 0

    @functools.wraps(fn)
    def wrapper(self, other):
        counters["spinor.gq_mul.calls"] = counters.get(
            "spinor.gq_mul.calls", 0) + 1
        if is_zero(self) or is_zero(other):
            counters["spinor.gq_mul.zero"] = counters.get(
                "spinor.gq_mul.zero", 0) + 1
        return fn(self, other)
    return wrapper


def install() -> None:
    for name, (owner, attr) in SPANS.items():
        _replace(owner, attr, _span(name, getattr(owner, attr)))
    _replace(spinor.GQ, "__mul__", _gq_mul(spinor.GQ.__mul__))
    fraction_new = fractions.Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        counters["base.fraction_new.calls"] += 1
        return fraction_new(cls, *args, **kwargs)
    counters["base.fraction_new.calls"] = 0
    fractions.Fraction.__new__ = counted_new


def main(argv) -> int:
    install()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = _span("cli.main", cli.main)(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    with open("trace.json", "w") as fh:
        json.dump({"rc": rc, "stdout": out.getvalue(),
                   "stderr": err.getvalue(), "spans": spans,
                   "counters": counters}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
