"""Tests of the benchmark's own oracles and output checkers.

Each checker must accept a well-formed output and reject a tampered one.
The outputs here are synthesised from the checked properties, not copied
from the program.
"""

import json
from fractions import Fraction
from pathlib import Path

import checks
import run

F = Fraction


def _report(suite, statuses, params=None):
    recs = [{"check_id": cid, "claim": "", "status": st, "lhs": "", "rhs": "",
             "parameters": dict(params.get(cid, {})) if params else {},
             "notes": ""} for cid, st in statuses]
    summary = {"pass": 0, "fail": 0, "flagged": 0}
    for _, st in statuses:
        summary[st] += 1
    return json.dumps({"version": "0.1.0", "suite": suite, "records": recs,
                       "summary": summary}).encode()


def _all_statuses():
    st = [(f"check.{i}", "pass") for i in range(checks.SUITE_ALL_RECORDS - 2)]
    return st + [(checks.FLAGGED_ID, "flagged"), (checks.EXACT_ID, "pass")]


def test_sweep_oracle():
    assert checks.exact_solution_verdict(F(1), F(0), F(1, 12)) == "pass"
    assert checks.exact_solution_verdict(F(2), F(0), F(1, 48)) == "pass"
    assert checks.exact_solution_verdict(F(1), F(1), F(1, 12)) == "fail"
    assert checks.exact_solution_verdict(F(0), F(0), F(1, 12)) == "fail"


def test_verify_all_checker_rejects_flipped_status():
    good = _all_statuses()
    assert checks.check_verify("all", 0, _report("all", good)) == []
    flipped = [(cid, "fail" if cid == "check.3" else st) for cid, st in good]
    assert checks.check_verify("all", 1, _report("all", flipped))
    unflagged = [(cid, "pass") for cid, _ in good]
    assert checks.check_verify("all", 0, _report("all", unflagged))
    payload = json.loads(_report("all", good))
    payload["summary"]["pass"] += 1
    assert checks.check_verify("all", 0, json.dumps(payload).encode())
    assert checks.check_verify("all", 0, _report("all", good[1:]))
    assert checks.check_verify("all", 0, None)


def test_sweep_checker_rejects_wrong_verdict():
    point = {"alpha": F(2), "delta": F(0), "alphap": F(1, 48)}
    echo = {checks.EXACT_ID: {k: str(v) for k, v in point.items()}}

    def report(verdict):
        return _report("bianchi", [("bianchi.system.case-i", "pass"),
                                   (checks.EXACT_ID, verdict)], echo)
    assert checks.check_verify("bianchi", 0, report("pass"), point) == []
    assert checks.check_verify("bianchi", 1, report("fail"), point) == \
        run.LAM1_FAULT
    assert checks.check_verify("bianchi", 0, report("fail"), point)
    assert checks.check_verify("bianchi", 1, report("pass"), point)
    off = dict(point, delta=F(1, 3))
    assert checks.check_verify("bianchi", 0, report("pass"), off)


def _spinor_text(v):
    def gq(re_, im):
        if im == 0:
            return str(re_)
        if re_ == 0:
            return f"{im}i"
        return f"({re_}{'+' if im >= 0 else '-'}{abs(im)}i)"
    return "(" + ", ".join(gq(*x) for x in v) + ")"


def _majorana(k):
    """e_k + C e_k: fixed by the real structure C conj."""
    v = [(F(0), F(0))] * 8
    v[k] = (F(1), F(0))
    for r, row in enumerate(checks.CHARGE_CONJUGATION):
        c = row[k]
        v[r] = (v[r][0] + c[0], v[r][1] + c[1])
    return v


def test_spinor_checker_rejects_perturbed_entry():
    a, b = _majorana(0), _majorana(1)
    assert checks.is_majorana(a) and checks.is_majorana(b)
    outs = {"v1": (0, _spinor_text(a)), "v2": (0, _spinor_text(b))}
    assert checks.check_spinor_family("v", outs) == []
    b[4] = (b[4][0], F(1, 2))
    outs["v2"] = (0, _spinor_text(b))
    assert checks.parse_spinor(outs["v2"][1]) == b
    assert checks.check_spinor_family("v", outs)
    imag = [(F(0), x) for x, _ in a]
    assert not checks.is_majorana(imag)


def test_form_checker():
    good = ("-8*alpha + 2*delta : eta123; 2*alpha : eta1^Phi1; "
            "2*alpha : eta2^Phi2; 2*alpha : eta3^Phi3")
    assert checks.check_form("Tc.3ad", 0, good) == []
    assert checks.check_form("Tc.3ad", 0, good.replace("-8*", "-7*"))
    assert checks.check_form("x.3ad", 0, "1 : eta1; 1 : Phi1")
    assert checks.check_form("x.3ad", 0, "4/3*delta*s - alpha^2 : Om+") == []


def test_list_checker():
    out = "suites: 3ad\n  3ad: a.x\n  3ad: a.y\n"
    assert checks.check_list(0, out, ["a.x", "a.y"]) == []
    assert checks.check_list(0, out, ["a.y", "a.x"])


def test_layer_metrics_self_time():
    spans = [["cli.main", 0, 100, -1], ["bianchi.residual", 10, 60, 0],
             ["scalar.mul", 20, 30, 1], ["bianchi.residual", 40, 50, 1]]
    m = run.layer_metrics([{"spans": spans,
                            "counters": {"spinor.gq_mul.calls": 4,
                                         "spinor.gq_mul.zero": 1}}])
    assert m["bianchi.residual.calls"] == (2, "count")
    assert m["bianchi.residual.s"] == (50e-9, "s")   # outermost span only
    assert m["bianchi.self_s"] == (40e-9, "s")
    assert m["scalar.mul.calls"] == (1, "count")
    assert m["scalar.self_s"] == (10e-9, "s")
    assert m["cli.main.s"] == (100e-9, "s")
    assert m["spinor.gq_mul.zero_share"] == (0.25, "ratio")
    assert set(m) | {"host.ref_s"} == set(run.PER_LAYER)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"setup_s", "work_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
