import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from hetg2 import SPINOR_LABELS, bianchi, cli, heisenberg, spinor, \
    structures, suites
from hetg2.cli import main, parse_params, render_json, report_payload, \
    run_suite
from hetg2.spinor import spinor_registry


ALL_REPORT_SHA256 = \
    "95120eb80e1491aa18e19a5bd4fb577fd6b99e0a7898900fe5a2e1d64090dfb4"
# the stdout of ``verify --list``, every suite's ids
LIST_SHA256 = \
    "8bbec8ae8449af738b4d02a3e4557fcc19b4f4061cbec0bbf122b01e790b47a9"

# sha256 of "<name>\n<stdout>" over every `show` name, in sorted order
SHOW_OUTPUTS_SHA256 = \
    "b5fa9da137201643d59331028b0c142644c69c587906265d74e5abaff083b556"

# clibench parses this message for the known names
UNKNOWN_NAME_ERR = (
    "error: unknown name 'no.such.name'; known: Om+.su3, Om-.su3, Phi.su3, "
    "PhiH1.3ad, PhiH2.3ad, PhiH3.3ad, Psi.su3, Tc.3ad, Tc.su3, dTc.3ad, "
    "dTc.su3, dphi.canonical.3ad, dphi.theta.su3, dpsi.canonical.3ad, "
    "eta.su3, eta1.3ad, eta2.3ad, eta3.3ad, phi.aux1.3ad, phi.aux2.3ad, "
    "phi.aux3.3ad, phi.canonical.3ad, phi.theta.su3, psi.canonical.3ad, "
    "psi.theta.su3, psi0.sp1, psi1.sp1, psi2.sp1, psi3.sp1, u(-1,-1,-1), "
    "u(-1,1,1), u(1,-1,1), u(1,1,-1), u(1,1,1), v1, v2, v3, v4, v5, v6, v7, "
    "v8\n")


# Runs --suite all in a fresh interpreter, so that no shared object is
# already cached, with the Scalar constructor and every maker of a GQ wrapped
# to record each GQ triple not in lowest terms and every stored coefficient or
# GQ part that is not an int or a non-integral Fraction.
STORED_COEFFICIENTS_SCRIPT = """
import json
from fractions import Fraction
from math import gcd
from hetg2 import cli, spinor
from hetg2.scalar import Scalar

seen = {"Scalar": 0, "GQ": 0, "float": 0, "bad": [], "made_by": {}}


def check(name, x, values, maker=None):
    seen[name] += 1
    if maker:
        seen["made_by"][maker] = seen["made_by"].get(maker, 0) + 1
    for c in values(x):
        seen["float"] += isinstance(c, float)
        if not (type(c) is int
                or (type(c) is Fraction and c.denominator != 1)):
            seen["bad"].append(repr(c))


def wrap(cls, values):
    init = cls.__init__

    def checked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        check(cls.__name__, self, values, cls.__name__ + ".__init__")
    cls.__init__ = checked


def gq_parts(x):
    # the stored triple is three ints in lowest terms with d > 0
    triple = (x.a, x.b, x.d)
    if not (all(type(n) is int for n in triple) and x.d > 0
            and gcd(*triple) == 1):
        seen["bad"].append(repr(triple))
    return x.re, x.im


def wrap_maker(name):
    # a GQ computed from others is made by these, not by GQ.__init__
    make = getattr(spinor, name)

    def checked(*args):
        x = make(*args)
        check("GQ", x, gq_parts, name)
        return x
    setattr(spinor, name, checked)


wrap(Scalar, lambda x: list(x._a.values()))
wrap(spinor.GQ, gq_parts)
wrap_maker("_reduced")
wrap_maker("_triple")
seen["records"] = len(cli.run_suite("all", {}))
print(json.dumps(seen))
"""


# Counts the Scalar constructions, Scalar products and form wedges of one
# in-process run of every suite, in a fresh interpreter (each alias of a
# wrapped method, such as __rmul__ and __xor__, is wrapped too).
WORK_COUNT_SCRIPT = """
import json
from hetg2 import cli, exterior, scalar

counts = {"Scalar": 0, "mul": 0, "wedge": 0}


def counted(owner, attr, key):
    old = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return old(*args, **kwargs)
    for name, value in list(vars(owner).items()):
        if value is old:
            setattr(owner, name, wrapper)


counted(scalar.Scalar, "__init__", "Scalar")
counted(scalar.Scalar, "__mul__", "mul")
counted(exterior.Form, "wedge", "wedge")
counts["records"] = len(cli.run_suite("all", {}))
print(json.dumps(counts))
"""


# Runs four commands in one fresh interpreter and prints the hetg2 modules,
# and the stdlib modules that only some commands need, loaded after each
# step.
IMPORT_HYGIENE_SCRIPT = """
import contextlib, io, sys


def loaded():
    return sorted(m for m in sys.modules if m.startswith("hetg2")
                  or m in ("dataclasses", "fractions", "inspect", "json"))


steps = {}
import hetg2.cli
steps["import"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    assert hetg2.cli.main(["verify", "--list"]) == 0
    steps["list"] = loaded()
    assert hetg2.cli.main(["show", "--name", "Tc.3ad"]) == 0
    steps["show"] = loaded()
    assert hetg2.cli.main(["verify", "--suite", "su3"]) == 0
    steps["verify"] = loaded()
from hetg2 import Scalar, Form, prem
steps["names"] = [Scalar.__module__, Form.__module__, prem.__module__]
import json
print(json.dumps(steps))
"""

# Shows one spinor in a fresh interpreter and prints the hetg2 modules loaded.
SPINOR_SHOW_SCRIPT = """
import contextlib, io, json, sys
import hetg2.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert hetg2.cli.main(["show", "--name", "v1"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("hetg2"))))
"""

# Runs the heisenberg suite in a fresh interpreter, so that no connection or
# array is already cached, counting the connections built per lam and the
# curvature arrays computed.
HEISENBERG_CALLS_SCRIPT = """
import json
from hetg2 import cli, heisenberg

connection_lambda = heisenberg.connection_lambda
curvature_fp = heisenberg.curvature_fp
calls = {"lams": [], "built": {}, "curvature_fp": []}


def counted_lambda(lam):
    conn = connection_lambda(lam)
    calls["lams"].append(str(lam))
    calls["built"].setdefault(str(lam), set()).add(id(conn))
    return conn


def counted_curvature(conn):
    calls["curvature_fp"].append(id(conn))
    return curvature_fp(conn)


heisenberg.connection_lambda = counted_lambda
heisenberg.curvature_fp = counted_curvature
records = cli.run_suite("heisenberg", {})
assert all(r.status == "pass" for r in records)
calls["built"] = {k: len(v) for k, v in calls["built"].items()}
print(json.dumps(calls))
"""


def run_script(script: str) -> dict:
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


@pytest.fixture(scope="module")
def all_records():
    return run_suite("all", {})


def listed_ids(capsys) -> list:
    assert main(["verify", "--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "suites: " + ", ".join(cli.SUITES)
    return [line.split(": ", 1)[1] for line in lines[1:]]


def boom(*args, **kwargs):
    raise ZeroDivisionError("boom")


class TestParams:
    def test_parse(self):
        from fractions import Fraction as F
        p = parse_params("alpha=1,delta=0,alphap=1/12")
        assert p == {"alpha": F(1), "delta": F(0), "alphap": F(1, 12)}

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            parse_params("zeta=1")

    def test_bad_syntax(self):
        with pytest.raises(ValueError):
            parse_params("alpha")

    def test_repeated_key_refused(self, capsys):
        # the first binding was silently dropped: the run passed at alpha = 2
        with pytest.raises(ValueError, match="'alpha' given twice"):
            parse_params("alpha=1,alpha=2,delta=0,alphap=1/48")
        assert main(["verify", "--suite", "bianchi", "--params",
                     "alpha=1,alpha=2,delta=0,alphap=1/48"]) == 2
        assert capsys.readouterr().err \
            == "error: parameter 'alpha' given twice\n"

    @pytest.mark.parametrize("binding, literal", [
        ("delta=1/0", "'1/0'"), ("alpha=abc", "'abc'")],
        ids=["zero-denominator", "not-a-number"])
    def test_bad_value_names_its_parameter(self, capsys, binding, literal):
        # the message was the bare Fraction error: 'Fraction(1, 0)' or
        # "Invalid literal for Fraction: 'abc'", naming no parameter
        key = binding.split("=")[0]
        message = f"parameter {key!r}: {literal} is not a rational number"
        with pytest.raises(ValueError, match=message):
            parse_params(binding)
        assert main(["verify", "--suite", "bianchi", "--params",
                     binding]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestSuites:
    def test_each_suite_green(self):
        for suite in ("3ad", "su3", "bianchi"):
            payload = report_payload(suite, run_suite(suite, {}))
            assert payload["summary"]["fail"] == 0, suite

    def test_identities_compare_by_equality(self):
        # a mismatched dict side used to raise TypeError: the judge negated
        # the right side to look for a sign flip
        assert suites.identities([("d", {"a": 1}, {"a": 2}),
                                  ("t", (1,), (1,))]) \
            == dict(ok=False, failed=["d"])
        # a refuted triple must not hold
        assert suites.identities([("d", {}, {}), ("t", 1, 2)],
                                 refuted={"d", "t"}) \
            == dict(ok=False, failed=["d"])

    def test_su3_has_exactly_one_flagged(self):
        payload = report_payload("su3", run_suite("su3", {}))
        assert payload["summary"]["flagged"] == 1
        flagged = [r for r in payload["records"] if r["status"] == "flagged"]
        assert flagged[0]["check_id"] == "su3.curvature.coefficient-discrepancy"

    def test_check_ids_unique(self, all_records, capsys):
        ids = [r.check_id for r in all_records]
        assert len(ids) == len(set(ids)) == 74
        # --list gives the report's ids in report order
        assert listed_ids(capsys) == ids
        # the default report is byte-stable: any change to it is deliberate
        text = render_json(report_payload("all", all_records))
        assert hashlib.sha256(text.encode()).hexdigest() == ALL_REPORT_SHA256

    def test_no_float_coefficient_stored(self):
        seen = run_script(STORED_COEFFICIENTS_SCRIPT)
        assert seen["records"] == 74
        # the GQ kernels build one GQ per result entry, so a run makes about
        # 9,400 of them; each of the three ways to make one is seen
        assert seen["Scalar"] > 1_000 and seen["GQ"] > 5_000
        assert set(seen["made_by"]) == {"Scalar.__init__", "GQ.__init__",
                                        "_reduced", "_triple"}
        assert all(n > 1_000 for n in seen["made_by"].values())
        assert seen["float"] == 0
        assert seen["bad"] == []

    def test_kernel_builds_each_coefficient_once(self):
        # the form kernel sums raw coefficient products and builds each
        # result coefficient once; building a Scalar per product and per
        # partial sum took 25,001 constructions and 7,892 products per run
        counts = run_script(WORK_COUNT_SCRIPT)
        assert counts["records"] == 74
        assert counts["Scalar"] <= 15_000
        assert counts["mul"] <= 4_000
        # the curvature arrays are wedged and traced without Form.wedge, and
        # each Leibniz term is one product of its factors (a prefix and a
        # suffix product per term, and hand-written relation lists at ring
        # construction, took 1,309; the Heisenberg model's own phi and T^c,
        # built by hand before it read them from the 3ad ring, took 1,149)
        assert counts["wedge"] == 1_146

    def test_heisenberg_arrays_int_exact(self):
        # the first-principles arrays hold plain rationals, outside Scalar
        # and GQ, under the same storage rule
        def stored(q):
            return type(q) is int or (type(q) is F and q.denominator != 1)
        lams = suites.SuiteHeisenberg({}).lams
        assert len(lams) == 7
        conns = [heisenberg.levi_civita(), heisenberg.canonical_connection()]
        conns += [heisenberg.connection_lambda(lam) for lam in lams]
        for conn in conns:
            assert all(stored(q) for mat in conn.L.values() for row in mat
                       for q in row)
            assert all(stored(q)
                       for q in heisenberg.curvature_fp(conn).values())

    def test_heisenberg_builds_each_array_once(self):
        calls = run_script(HEISENBERG_CALLS_SCRIPT)
        # the oracle's seven lams, then lam = 4 for flatness and the theorem
        assert len(calls["lams"]) == 9 and calls["lams"].count("4") == 3
        # one connection per distinct lam
        assert len(calls["built"]) == 7
        assert set(calls["built"].values()) == {1}
        # seven distinct arrays: lam = 0 is the canonical connection's
        assert len(calls["curvature_fp"]) == 7
        assert len(set(calls["curvature_fp"])) == 7

    def test_second_run_identical(self, all_records):
        # the shared builders' objects are cached for the process; a caller
        # that mutated one would change the second report
        assert render_json(report_payload("all", run_suite("all", {}))) \
            == render_json(report_payload("all", all_records))

    @pytest.mark.parametrize("builder,args", [
        (structures.get_ring, ("3ad",)), (structures.get_ring, ("su3",)),
        (structures.structure_torsion, (structures.get_ring("3ad"),)),
        (structures.structure_torsion, (structures.get_ring("su3"),)),
        (bianchi.constraint_system, (structures.get_ring("3ad"),)),
        (bianchi.constraint_system, (structures.get_ring("su3"),)),
        (heisenberg.heisenberg_model, ()), (heisenberg.levi_civita, ()),
        (heisenberg.canonical_connection, ()),
        (heisenberg.associative_torsion_classes, ()),
        (heisenberg._theorem_parts, ()), (spinor.build_rep, (3,)),
        (heisenberg.connection_lambda, (F(4),)),
    ])
    def test_shared_builders_cached(self, builder, args):
        assert builder(*args) is builder(*args)

    def test_raising_check_fails_alone(self, all_records, monkeypatch,
                                       tmp_path, capsys):
        idx = next(i for i, c in enumerate(suites.Suite3ad.checks)
                   if c.check_id == "3ad.torsion.inner")
        checks = list(suites.Suite3ad.checks)
        checks[idx] = checks[idx]._replace(fn=boom)
        monkeypatch.setattr(suites.Suite3ad, "checks", tuple(checks))
        path = tmp_path / "report.json"
        assert main(["verify", "--suite", "all", "--json", str(path)]) == 1
        assert "ZeroDivisionError: boom" in capsys.readouterr().err
        got = json.loads(path.read_text())["records"]
        want = report_payload("all", all_records)["records"]
        assert len(got) == len(want) == 74
        diff = [(g, w) for g, w in zip(got, want) if g != w]
        assert len(diff) == 1
        g, w = diff[0]
        assert g["check_id"] == w["check_id"] == "3ad.torsion.inner"
        assert g["status"] == "fail" and w["status"] == "pass"
        assert g["notes"] == "ZeroDivisionError: boom"

    @pytest.mark.parametrize("alpha,delta,alphap,status", [
        (F(2), F(0), F(1, 48), "pass"),
        (F(-1, 2), F(0), F(1, 3), "pass"),
        (F(5, 8), F(-1, 4), F(1, 6), "fail"),
        (F(1), F(1), F(1, 12), "fail"),
        (F(0), F(3), F(5), "fail"),
    ])
    def test_exact_solution_follows_parameters(self, alpha, delta, alphap,
                                               status):
        # on the branch iff delta = 0 and 12 a' alpha^2 = 1 with alpha != 0
        params = {"alpha": alpha, "delta": delta, "alphap": alphap}
        rec = next(r for r in run_suite("bianchi", params)
                   if r.check_id == "bianchi.exact-solution")
        assert rec.status == status
        assert rec.parameters == {k: str(v) for k, v in params.items()}


class TestDriver:
    def test_verify_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        assert main(["verify", "--suite", "bianchi",
                     "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["suite"] == "bianchi"
        assert payload["summary"]["fail"] == 0

    def test_json_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify", "--suite", "3ad", "--json", str(p1)])
        main(["verify", "--suite", "3ad", "--json", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_negative_control_exit_one(self, capsys):
        assert main(["verify", "--suite", "bianchi",
                     "--params", "alphap=1/10"]) == 1

    def test_bad_params_exit_two(self, capsys):
        assert main(["verify", "--suite", "3ad",
                     "--params", "bogus=1"]) == 2

    @pytest.mark.parametrize("binding", ["lam=5", "lam1=7", "lam2=3"])
    def test_unused_params_exit_two(self, capsys, binding):
        assert main(["verify", "--suite", "bianchi",
                     "--params", binding]) == 2
        assert "unknown parameter" in capsys.readouterr().err

    @pytest.mark.parametrize("suite,binding,key", [
        ("heisenberg", "alpha=2", "alpha"),
        ("heisenberg", "alphap=1/12,delta=1", "delta"),
        ("3ad", "alpha=2", "alpha"), ("su3", "alphap=1/12", "alphap"),
        ("spinor", "delta=0", "delta"),
    ])
    def test_unread_params_exit_two(self, capsys, monkeypatch, suite,
                                    binding, key):
        monkeypatch.setattr(cli, "run_suite", boom)
        assert main(["verify", "--suite", suite, "--params", binding]) == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("suite,binding", [
        ("all", "alpha=2"), ("heisenberg", "alphap=1/12"),
        ("bianchi", "alpha=2,delta=0,alphap=1/48"),
    ])
    def test_read_params_accepted(self, capsys, monkeypatch, suite,
                                  binding):
        monkeypatch.setattr(cli, "run_suite", lambda suite, params: [])
        assert main(["verify", "--suite", suite, "--params", binding]) == 0

    def test_list_refuses_params(self, capsys):
        assert main(["verify", "--list", "--params", "alpha=2"]) == 2
        assert capsys.readouterr().err \
            == "error: --list does not read parameter 'alpha'\n"

    @pytest.mark.parametrize("suite", ["3ad", "bianchi"])
    def test_list_reads_the_suite(self, capsys, suite):
        # the suite names, then the ids of the selected suite alone
        assert main(["verify", "--list", "--suite", suite]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "suites: " + ", ".join(cli.SUITES),
            *(f"  {suite}: {c.check_id}"
              for c in suites.SUITE_CLASSES[suite].checks)]

    @pytest.mark.parametrize("argv", [[], ["--suite", "all"]],
                             ids=["default", "all"])
    def test_list_of_all_suites_pinned(self, capsys, argv):
        assert main(["verify", "--list", *argv]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == LIST_SHA256

    def test_list_refuses_json(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        assert main(["verify", "--list", "--json", str(path)]) == 2
        assert capsys.readouterr().err \
            == "error: --list does not read --json\n"
        assert not path.exists()

    def test_unwritable_json_exits_two(self, capsys, monkeypatch, tmp_path):
        # the report is printed; the write fails as a usage error, not with
        # a traceback and the exit code of a failed check
        monkeypatch.setattr(cli, "run_suite", lambda suite, params: [])
        path = tmp_path / "missing" / "x.json"
        assert main(["verify", "--suite", "3ad", "--json", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "summary: 0 pass, 0 fail, 0 flagged\n"
        assert err == f"error: cannot write '{path}': " \
                      "No such file or directory\n"

    def test_missing_suite_exit_two(self, capsys):
        assert main(["verify"]) == 2

    def test_list(self, capsys, monkeypatch):
        # --list evaluates no check body and runs no suite
        for suite in suites.SUITE_CLASSES.values():
            monkeypatch.setattr(suite, "checks", tuple(
                c._replace(fn=boom) if isinstance(c, suites.Check)
                else (lambda c=c: [d._replace(fn=boom) for d in c()])
                for c in suite.checks))
        for name in cli.SUITE_FUNCS:
            monkeypatch.setitem(cli.SUITE_FUNCS, name, boom)
        ids = listed_ids(capsys)
        assert len(ids) == 74 and "3ad.torsion.classes" in ids

    def test_commands_import_only_what_they_use(self):
        steps = run_script(IMPORT_HYGIENE_SCRIPT)
        # the driver alone: no domain module, no check declaration, no
        # dataclasses, fractions or json
        assert steps["import"] == ["hetg2", "hetg2.cli"]
        # --list reads the declarations and imports nothing from the domain
        assert steps["list"] == ["fractions", "hetg2", "hetg2.cli",
                                 "hetg2.suites"]
        # a form needs structures (and what it imports), not spinor
        assert "hetg2.structures" in steps["show"]
        assert not {"hetg2.spinor", "hetg2.bianchi", "hetg2.curvature",
                    "dataclasses"} & set(steps["show"])
        # a suite runs no generated dataclass code
        assert not {"dataclasses", "inspect"} & set(steps["verify"])
        # the package's names are still served, from their modules
        assert steps["names"] == ["hetg2.scalar", "hetg2.exterior",
                                  "hetg2.scalar"]
        # a spinor needs spinor alone: not the form registry, its solver,
        # the declarations, the exterior algebra or the scalars
        assert run_script(SPINOR_SHOW_SCRIPT) \
            == ["hetg2", "hetg2.cli", "hetg2.spinor"]

    def test_importtime_logs_the_modules_a_suite_loads(self, tmp_path):
        # a suite imports its domain modules through the import statement's
        # machinery, which -X importtime logs
        src = str(Path(cli.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "hetg2.cli", "verify",
             "--suite", "su3"], env=dict(os.environ, PYTHONPATH=src),
            cwd=tmp_path, capture_output=True, text=True)
        assert out.returncode == 0
        logged = {line.rsplit("|", 1)[1].strip()
                  for line in out.stderr.splitlines()
                  if line.startswith("import time:")}
        assert {"hetg2.structures", "hetg2.curvature"} <= logged

    def test_branch_claims_follow_the_branch_data(self):
        rings = structures.get_ring("3ad"), structures.get_ring("su3")
        assert [b.branch_id for b in bianchi.branches(*rings)] \
            == list(suites.BRANCHES)

    def test_show(self, capsys):
        assert main(["show", "--name", "phi.canonical.3ad"]) == 0
        out = capsys.readouterr().out
        assert "eta123" in out
        assert main(["show", "--name", "u(1,1,1)"]) == 0
        assert main(["show", "--name", "missing"]) == 2

    @pytest.mark.parametrize("name,extractions", [
        ("v2", 0), ("PhiH2.3ad", 0), ("Tc.3ad", 1)])
    def test_show_builds_only_the_entry(self, capsys, monkeypatch, name,
                                        extractions):
        calls = []
        torsion_classes = structures.torsion_classes

        def counted(*args):
            calls.append(args)
            return torsion_classes(*args)
        monkeypatch.setattr(structures, "torsion_classes", counted)
        # an extraction made earlier in the process is cached
        structures.structure_torsion.cache_clear()
        assert main(["show", "--name", name]) == 0
        assert len(calls) == extractions

    def test_show_outputs_pinned(self, capsys):
        names = sorted([*structures.registry(), *spinor_registry()])
        assert len(names) == 42
        digest = hashlib.sha256()
        for name in names:
            assert main(["show", "--name", name]) == 0
            digest.update(f"{name}\n{capsys.readouterr().out}".encode())
        assert digest.hexdigest() == SHOW_OUTPUTS_SHA256

    def test_show_unknown_name(self, capsys):
        assert main(["show", "--name", "no.such.name"]) == 2
        assert capsys.readouterr().err == UNKNOWN_NAME_ERR
        # a name is looked up in one registry only
        assert not set(spinor_registry()) & set(structures.registry())

    def test_show_routes_spinor_labels(self, monkeypatch, capsys):
        # a spinor label goes straight to the spinor registry, and a form
        # name never does
        assert list(spinor_registry()) == list(SPINOR_LABELS)
        assert not set(structures.registry()) & set(SPINOR_LABELS)
        monkeypatch.setattr(structures, "registry", boom)
        for name in spinor_registry():
            assert main(["show", "--name", name]) == 0

    def test_render_stable_under_reconstruction(self):
        payload = report_payload("su3", run_suite("su3", {}))
        assert render_json(payload) == render_json(
            report_payload("su3", run_suite("su3", {})))
