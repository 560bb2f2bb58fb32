import hashlib
import json
from fractions import Fraction as F

import pytest

from hetg2.cli import main, parse_params, render_json, report_payload, \
    run_suite


ALL_REPORT_SHA256 = \
    "95120eb80e1491aa18e19a5bd4fb577fd6b99e0a7898900fe5a2e1d64090dfb4"


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


class TestSuites:
    def test_each_suite_green(self):
        for suite in ("3ad", "su3", "bianchi"):
            payload = report_payload(suite, run_suite(suite, {}))
            assert payload["summary"]["fail"] == 0, suite

    def test_su3_has_exactly_one_flagged(self):
        payload = report_payload("su3", run_suite("su3", {}))
        assert payload["summary"]["flagged"] == 1
        flagged = [r for r in payload["records"] if r["status"] == "flagged"]
        assert flagged[0]["check_id"] == "su3.curvature.coefficient-discrepancy"

    def test_check_ids_unique(self):
        records = run_suite("all", {})
        ids = [r.check_id for r in records]
        assert len(ids) == len(set(ids))
        # the default report is byte-stable: any change to it is deliberate
        text = render_json(report_payload("all", records))
        assert hashlib.sha256(text.encode()).hexdigest() == ALL_REPORT_SHA256

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

    def test_missing_suite_exit_two(self, capsys):
        assert main(["verify"]) == 2

    def test_list(self, capsys):
        assert main(["verify", "--list"]) == 0
        out = capsys.readouterr().out
        assert "3ad.torsion.classes" in out

    def test_show(self, capsys):
        assert main(["show", "--name", "phi.canonical.3ad"]) == 0
        out = capsys.readouterr().out
        assert "eta123" in out
        assert main(["show", "--name", "u(1,1,1)"]) == 0
        assert main(["show", "--name", "missing"]) == 2

    def test_render_stable_under_reconstruction(self):
        payload = report_payload("su3", run_suite("su3", {}))
        assert render_json(payload) == render_json(
            report_payload("su3", run_suite("su3", {})))
