"""Output checks for the command-line benchmark.

Every expected value here is computed by this module from the paper's
formulas or from properties the method must have; nothing is compared
against a stored copy of an earlier report.  Each checker returns a list of
problems; an empty list means the output is accepted.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

FLAGGED_ID = "su3.curvature.coefficient-discrepancy"
SUITE_ALL_RECORDS = 74
EXACT_ID = "bianchi.exact-solution"

SPINOR_NAME = re.compile(r"^(v\d+|u\([-,\d]+\)|psi\d\.sp1|Psi\.su3)$")
SPINOR_FAMILIES = {
    "v": re.compile(r"^v\d+$"),
    "u": re.compile(r"^u\([-,\d]+\)$"),
    "psi": re.compile(r"^psi\d\.sp1$"),
}


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def exact_solution_verdict(alpha: Fraction, delta: Fraction,
                           alphap: Fraction) -> str:
    """Expected status of ``bianchi.exact-solution`` at a parameter point.

    The degenerate exact-solution branch is delta = 0 with 12 a' alpha^2 = 1;
    alpha = 0 is not a structure at all, so it never passes.
    """
    on_branch = alpha != 0 and delta == 0 and 12 * alphap * alpha ** 2 == 1
    return "pass" if on_branch else "fail"


def tc_3ad_expected() -> dict:
    """T^c = 2(delta - 4 alpha) eta123 + 2 alpha sum_i eta_i ^ Phi_i."""
    two_alpha = {(("alpha", 1),): Fraction(2)}
    return {
        "eta123": {(("delta", 1),): Fraction(2), (("alpha", 1),): Fraction(-8)},
        "eta1^Phi1": two_alpha,
        "eta2^Phi2": two_alpha,
        "eta3^Phi3": two_alpha,
    }


# ---------------------------------------------------------------------------
# parsers of the program's text output
# ---------------------------------------------------------------------------

def parse_poly(text: str) -> dict:
    """``-8*alpha + 2*delta`` -> {(("alpha", 1),): -8, (("delta", 1),): 2}."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict = {}
    for sign, term in re.findall(r"(^-?|[+-] )([^ ]+)", text):
        factors = term.split("*")
        coef = Fraction(-1 if sign.strip() == "-" else 1)
        if re.fullmatch(r"\d+(/\d+)?", factors[0]):
            coef *= Fraction(factors.pop(0))
        mono = []
        for f in factors:
            name, _, exp = f.partition("^")
            if not re.fullmatch(r"[A-Za-z]\w*", name):
                raise ValueError(f"bad factor {f!r} in {text!r}")
            mono.append((name, int(exp) if exp else 1))
        key = tuple(sorted(mono))
        out[key] = out.get(key, 0) + coef
    return {k: v for k, v in out.items() if v}


def parse_genform(text: str) -> dict:
    """``c1 : mono1; c2 : mono2`` -> {mono: polynomial}."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for piece in text.split("; "):
        coef, sep, mono = piece.rpartition(" : ")
        if not sep:
            raise ValueError(f"term without ' : ' in {piece!r}")
        out[mono] = parse_poly(coef)
    return out


def mono_degree(label: str) -> int:
    """Degree of a generated-ring monomial label: ``eta12^Phi3``, ``Phi^2``."""
    deg = last = 0
    for f in label.split("^"):
        if f.isdigit():         # a power of the generator before it
            deg += (int(f) - 1) * last
            continue
        if m := re.fullmatch(r"eta(\d*)", f):
            last = max(1, len(m.group(1)))
        elif re.fullmatch(r"Phi\d*", f):
            last = 2
        elif f in ("Om+", "Om-"):
            last = 3
        else:
            raise ValueError(f"unknown generator {f!r} in {label!r}")
        deg += last
    return deg


def parse_gq(text: str) -> tuple:
    """A Gaussian rational as printed by the program -> (re, im)."""
    t = text.strip()
    if t.startswith("(") and t.endswith(")"):
        t = t[1:-1]
    if not t.endswith("i"):
        return Fraction(t), Fraction(0)
    m = re.fullmatch(r"(-?\d+(?:/\d+)?)([+-])(\d+(?:/\d+)?)i", t)
    if m:
        im = Fraction(m.group(3))
        return Fraction(m.group(1)), im if m.group(2) == "+" else -im
    return Fraction(0), Fraction(t[:-1])


def parse_spinor(text: str) -> list:
    t = text.strip()
    if not (t.startswith("(") and t.endswith(")")):
        raise ValueError(f"not a spinor tuple: {t[:40]!r}")
    return [parse_gq(x) for x in re.findall(r"\([^()]*\)|[^,() ]+", t[1:-1])]


def _kron(a: list, b: list) -> list:
    def mul(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]
    return [[mul(a[i][j], b[k][l]) for j in range(len(a)) for l in range(len(b))]
            for i in range(len(a)) for k in range(len(b))]


_ZERO, _ONE, _I = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), \
    (Fraction(0), Fraction(1))
_SIGMA_Y = [[_ZERO, (Fraction(0), Fraction(-1))], [_I, _ZERO]]
# charge conjugation of the m = 3 Kronecker representation: sigma_y x 1 x sigma_y
CHARGE_CONJUGATION = _kron(_kron(_SIGMA_Y, [[_ONE, _ZERO], [_ZERO, _ONE]]),
                           _SIGMA_Y)


def is_majorana(v: list) -> bool:
    """v is fixed by the real structure J(v) = C conj(v)."""
    for row, (vr, vi) in zip(CHARGE_CONJUGATION, v):
        re_ = sum(c * a + d * b for (c, d), (a, b) in zip(row, v))
        im_ = sum(d * a - c * b for (c, d), (a, b) in zip(row, v))
        if (re_, im_) != (vr, vi):
            return False
    return True


def herm(x: list, y: list) -> tuple:
    """sum conj(x_k) y_k."""
    re_ = sum(a * c + b * d for (a, b), (c, d) in zip(x, y))
    im_ = sum(a * d - b * c for (a, b), (c, d) in zip(x, y))
    return re_, im_


def list_ids(stdout: str) -> list:
    """Check ids from ``verify --list`` output (``  suite: id`` lines)."""
    ids = []
    for line in stdout.splitlines():
        if line.startswith("  ") and ": " in line:
            ids.append(line.split(": ", 1)[1].strip())
    return ids


def known_names(stderr: str) -> list:
    """Names from the refusal message of ``show --name <unknown>``."""
    _, sep, tail = stderr.strip().partition("; known: ")
    if not sep:
        raise ValueError("refusal message lists no known names")
    return [n.strip() for n in tail.split(", ") if n.strip()]


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def _load_report(report, suite: str, problems: list):
    if report is None:
        problems.append("no JSON report written")
        return None
    try:
        payload = json.loads(report)
    except ValueError as exc:
        problems.append(f"report is not JSON: {exc}")
        return None
    if payload.get("suite") != suite:
        problems.append(f"report suite {payload.get('suite')!r} != {suite!r}")
    recs = payload.get("records", [])
    tally = {"pass": 0, "fail": 0, "flagged": 0}
    for r in recs:
        if r.get("status") not in tally:
            problems.append(f"{r.get('check_id')}: unknown status "
                            f"{r.get('status')!r}")
            continue
        tally[r["status"]] += 1
    if payload.get("summary") != tally:
        problems.append(f"summary {payload.get('summary')} != tally {tally}")
    ids = [r.get("check_id") for r in recs]
    if len(set(ids)) != len(ids):
        problems.append("duplicate check ids")
    return payload


def _expect_statuses(recs, expected: dict, problems: list) -> None:
    """Every record passes unless ``expected`` names another status."""
    for r in recs:
        want = expected.get(r["check_id"], "pass")
        if r["status"] != want:
            problems.append(f"{r['check_id']}: {r['status']} "
                            f"(expected {want})")
    seen = {r["check_id"] for r in recs}
    for cid in expected:
        if cid not in seen:
            problems.append(f"{cid}: record missing")


def check_verify(suite: str, rc: int, report, params=None) -> list:
    """Check one ``verify --suite <suite> [--params ...] --json`` run."""
    problems: list = []
    payload = _load_report(report, suite, problems)
    if payload is None:
        return problems
    recs = payload["records"]
    expected = {}
    if suite in ("su3", "all"):
        expected[FLAGGED_ID] = "flagged"
    if suite in ("bianchi", "all"):
        p = params or {}
        alpha = p.get("alpha", Fraction(1))
        delta = p.get("delta", Fraction(0))
        alphap = p.get("alphap", Fraction(1, 12))
        expected[EXACT_ID] = exact_solution_verdict(alpha, delta, alphap)
        for r in recs:
            if r["check_id"] == EXACT_ID and params and r["parameters"] != {
                    "alpha": str(alpha), "delta": str(delta),
                    "alphap": str(alphap)}:
                problems.append(f"{EXACT_ID}: parameters {r['parameters']} "
                                "do not echo the supplied point")
    if suite == "all" and len(recs) != SUITE_ALL_RECORDS:
        problems.append(f"{len(recs)} records, expected {SUITE_ALL_RECORDS}")
    _expect_statuses(recs, expected, problems)
    failing = any(r["status"] == "fail" for r in recs)
    if rc != (1 if failing else 0):
        problems.append(f"exit code {rc} with "
                        f"{'a' if failing else 'no'} failing record")
    return problems


def check_list(rc: int, stdout: str, reference_ids: list) -> list:
    """``verify --list`` ids equal the ``--suite all`` report ids, in order."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    ids = list_ids(stdout)
    if ids != reference_ids:
        problems.append(f"--list gives {len(ids)} ids that differ from the "
                        f"{len(reference_ids)} report ids")
    return problems


# degrees of the named forms: eta_i 1-forms, Phi_i 2-forms, phi, T^c and
# Om 3-forms, psi = *phi a 4-form; a leading d raises the degree by one
FORM_DEGREES = {"eta": 1, "Phi": 2, "PhiH": 2, "phi": 3, "Tc": 3, "Om+": 3,
                "Om-": 3, "psi": 4}


def name_degree(name: str):
    stem = name.split(".")[0].rstrip("0123456789")
    if stem in FORM_DEGREES:
        return FORM_DEGREES[stem]
    if stem.startswith("d") and stem[1:] in FORM_DEGREES:
        return FORM_DEGREES[stem[1:]] + 1
    return None


def check_form(name: str, rc: int, stdout: str) -> list:
    """A named form has its name's degree; T^c on 3ad has the paper's value."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        terms = parse_genform(stdout)
        degrees = {mono_degree(m) for m in terms}
    except ValueError as exc:
        return [f"unparsable form: {exc}"]
    problems = []
    want = name_degree(name)
    if len(degrees) > 1 or (want is not None and degrees - {want}):
        problems.append(f"{name} has degrees {sorted(degrees)}, expected "
                        f"{want if want is not None else 'one degree'}")
    if name == "Tc.3ad" and terms != tc_3ad_expected():
        problems.append("Tc.3ad differs from "
                        "2(delta - 4 alpha) eta123 + 2 alpha sum eta_i Phi_i")
    return problems


def check_spinor_family(family: str, outputs: dict) -> list:
    """Shown members of one family: orthogonal, equal norms, v's Majorana."""
    problems = []
    vecs = {}
    for name, (rc, stdout) in outputs.items():
        if rc != 0:
            problems.append(f"{name}: exit code {rc}")
            continue
        try:
            vecs[name] = parse_spinor(stdout)
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
    names = sorted(vecs)
    for n in names:
        v = vecs[n]
        if len(v) != 8:
            problems.append(f"{n}: {len(v)} components, expected 8")
        if herm(v, v)[0] == 0:
            problems.append(f"{n}: zero spinor")
        if family == "v" and not is_majorana(v):
            problems.append(f"{n}: not real (C conj(v) != v)")
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if herm(vecs[a], vecs[b]) != (0, 0):
                problems.append(f"{a}, {b}: not orthogonal")
            if herm(vecs[a], vecs[a]) != herm(vecs[b], vecs[b]):
                problems.append(f"{a}, {b}: norms differ")
    return problems
