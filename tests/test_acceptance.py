"""Acceptance suite: one check per promised result, all at zero tolerance.

Every criterion prints a single PASS line (or fails the test).  Run with
``pytest tests/test_acceptance.py -s`` to see the per-criterion output.
"""

import random
from fractions import Fraction as F

from hetg2 import heisenberg as hb
from hetg2 import spinor as sp
from hetg2.bianchi import (approx_order_report, branches, root_table,
                           sasaki_3alpha_impossibility, verify_branch)
from hetg2.curvature import curvature, instanton_obstruction, wedge_trace
from hetg2.cli import report_payload, run_suite
from hetg2.exterior import Coframe
from hetg2.scalar import SymbolTable
from hetg2.structures import (CYCLIC, get_ring, sp1_frame_forms,
                              su3_frame_forms, torsion_classes)
from hetg2.suites import identities, sign


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_torsion_classes_3ad():
    r = get_ring("3ad")
    t = r.table
    al, de = t.sym("alpha"), t.sym("delta")
    phi, psi = r.phi(), r.psi()
    tc = torsion_classes(phi.embed(), psi.embed(),
                         phi.d().embed(), psi.d().embed())
    assert tc.tau0 == F(12, 7) * (2 * al + de)
    assert tc.tau1.is_zero
    assert tc.tau2.is_zero
    assert tc.tau3 == (10 * al - 2 * de) * (r.eta(1, 2, 3).embed()
                                            - phi.embed() / 7)
    _report(1, "3-contact torsion classes extracted exactly as polynomials "
               "in (alpha, delta)")


def test_criterion_2_torsion_classes_su3():
    r = get_ring("su3")
    t = r.table
    al, de = t.sym("alpha"), t.sym("delta")
    s, c = t.sym("s"), t.sym("c")
    phi, psi = r.phi(), r.psi()
    tc = torsion_classes(phi.embed(), psi.embed(),
                         phi.d().embed(), psi.d().embed())
    assert tc.tau0 == -F(4, 7) * (3 * al + 4 * de)
    assert not (tc.tau0.support() & {"s", "c"})  # independent of the circle
    assert tc.tau1.is_zero and tc.tau2.is_zero
    expect = F(4, 7) * (al - de) * (
        4 * r.eta().wedge(r.Phi())
        + 3 * (s * r.Om("+") + c * r.Om("-"))).embed()
    assert tc.tau3 == expect
    assert tc.tau3.inner(phi.embed()).is_zero
    _report(2, "contact torsion classes exact modulo s^2 + c^2 = 1; tau0 "
               "is circle-independent (tau3 carries the sign forced by "
               "exactness: the quoted sign variant is not orthogonal to phi)")


def test_criterion_3_instanton_zero_sets():
    r3 = get_ring("3ad")
    t3 = r3.table
    lam = t3.sym("lam")
    beta = r3.beta
    ob = instanton_obstruction(curvature(r3, lam), r3.psi())
    pref = -(beta + lam) * lam
    assert pref.div_exact(lam, "lam").div_exact(beta + lam, "lam") \
        == t3.rat(-1)
    assert ob.norm_sq_natural == 9 * lam ** 2 * (beta + lam) ** 2
    assert instanton_obstruction(curvature(r3, t3.zero()),
                                 r3.psi()).is_zero
    assert instanton_obstruction(curvature(r3, -beta), r3.psi()).is_zero
    assert not instanton_obstruction(curvature(r3, t3.rat(1)),
                                     r3.psi()).is_zero
    rs = get_ring("su3")
    ts = rs.table
    lam_s = ts.sym("lam")
    k = rs.coefficient(lam_s)
    assert k.subs({"lam": F(4, 3) * (3 * ts.sym("alpha")
                                     - 2 * ts.sym("delta"))}).is_zero
    obs = instanton_obstruction(curvature(rs, lam_s), rs.psi())
    assert obs.norm_sq_natural == 54 * k ** 2
    _report(3, "instanton obstructions factor exactly; zero sets "
               "{0, -beta} and lam = (4/3)(3a - 2d)")


def test_criterion_4_trace_lemma():
    r3 = get_ring("3ad")
    t3 = r3.table
    lam = t3.sym("lam")
    tr = wedge_trace(curvature(r3, lam))
    assert tr == r3.trace_lemma_rhs(lam).embed()
    _report(4, "wedge-trace closed form exact; the remainder's trace is "
               "lambda-independent and cancels in differences")


def test_criterion_5_exact_solution_end_to_end():
    # the flux residual, both instantons, flatness and torsion classes
    assert identities(hb.theorem1_end_to_end(F(1, 12)))["ok"]
    neg = hb.theorem1_end_to_end(F(1, 10))
    assert identities(neg)["failed"] == [hb.FLUX]
    assert not neg[0][1].is_zero
    _report(5, "exact solution verified end-to-end from first-principles "
               "curvature; perturbed string parameter leaves a nonzero "
               "residual")


def test_criterion_6_oracle_equivalence():
    rng = random.Random(2026)
    lams = [F(0), F(4)] + [F(rng.randint(-12, 12), rng.randint(1, 7))
                           for _ in range(5)]
    for lam in lams:
        fp = hb.curvature_fp(hb.connection_lambda(lam))
        cl = hb.closed_form_curvature_array(lam)
        assert fp == cl, lam
    _report(6, f"closed-form curvature equals the first-principles "
               f"computation for lam in {[str(x) for x in lams]}")


def test_criterion_7_bianchi_branches():
    for branch in branches(get_ring("3ad"), get_ring("su3")):
        zero = branch.branch_id != "3ad.negative-control"
        reduced, samples, _ = verify_branch(branch)
        assert all(p.is_zero for p in reduced) == zero, branch.branch_id
        assert all(all(v.is_zero for v in vals) == zero
                   for _, vals in samples), branch.branch_id
    assert identities(sasaki_3alpha_impossibility(get_ring("3ad")))["ok"]
    _report(7, "all five solution branches verified by resubstitution "
               "modulo their defining relations; the equal-parameter case "
               "is unsatisfiable")


def test_criterion_8_approximate_orders():
    tt3 = root_table(3)
    t = tt3.sym("t")
    rep3 = approx_order_report(
        get_ring("3ad"), {"lam": 2 * t ** 5, "delta": t ** 5,
                          "alpha": t ** 5 - (tt3.sym("r") / 6) / t}, tt3)
    assert rep3.leading_order is not None and rep3.leading_order >= 8
    tt6 = root_table(6)
    t6 = tt6.sym("t")
    rep6 = approx_order_report(
        get_ring("su3"), {"lam": (2 * tt6.sym("r") / 3) / t6,
                          "alpha": t6 ** 5, "delta": F(3, 2) * t6 ** 5}, tt6)
    assert rep6.leading_order is not None and rep6.leading_order >= 8
    _report(8, f"squared obstruction norms have t-orders "
               f"{rep3.leading_order} and {rep6.leading_order} (>= 8) "
               f"under the stated scalings")


def test_criterion_9_spinor_suite():
    tab = SymbolTable(("alpha", "delta"))
    cf = Coframe(tab, 7)
    for m in (1, 2, 3):
        rep = sp.build_rep(m)  # relations checked at construction
        assert sp.volume_action(rep) == sp._minus_i_pow(m + 1) * sp.GQ(-1)
    rep = sp.build_rep(3)
    dec = sp.sigma_decompose(rep, sp.sigma_fundamental_form(cf, 3))
    assert dec.dims == [1, 3, 3, 1]
    f = su3_frame_forms(cf)
    psi = sp.canonical_su3_spinor(rep)
    bar = sp.vec_conj(psi)
    assert sp.rows_apply(rep.form_matrix(f["Om+"]), psi) \
        == sp.vec_scale(bar, sp.GQ(0, -4))
    assert sp.purity_dim(rep, sp.u_spinor(rep, (1, 1, 1))) == 3
    frame = sp1_frame_forms(cf)
    frame["sigma_form"] = sp.sigma_fundamental_form(cf, 3)
    signs = {name: sign(lhs, rhs)
             for name, lhs, rhs in sp.sp1_spinor_suite(rep, frame)}
    assert len(signs) == 28 and all(signs.values())
    flips = sorted(name for name, v in signs.items() if v == -1)
    assert flips == ["psi0 = -xi3 psi3", "xi3 psi0 = psi3",
                     "xi3 psi1 = psi2"]
    phi = cf.e(1, 2, 3)
    for i in (1, 2, 3):
        phi = phi + (frame["eta"][i] ^ frame["PhiH"][i])
    psi0 = sp.sp1_spinors(rep)[0]
    rec = sp.form_from_spinor(rep, psi0, 3, cf)
    assert rec == phi  # all 35 components
    assert len([idx for idx in rec.terms]) == 7
    _report(9, "Clifford relations and volume scalar for m in {1,2,3}; "
               "eigenspace table; Om+ constants; purity 3; the 28 "
               "distinguished-spinor identities (3 with the recorded "
               "chirality flip); canonical 3-form reproduced componentwise")


def test_criterion_10_consistency_flag():
    rs = get_ring("su3")
    ts = rs.table
    lam = ts.sym("lam")
    al, de = ts.sym("alpha"), ts.sym("delta")
    threshold = {"lam": F(4, 3) * (3 * al - 2 * de)}
    derived = rs.coefficient(lam)
    printed = rs.coefficient(lam, "printed")
    assert derived == al * (4 * al - F(8, 3) * de - lam)
    assert derived.subs(threshold).is_zero
    assert not printed.subs(threshold).is_zero
    payload = report_payload("su3", run_suite("su3", {}))
    assert payload["summary"]["flagged"] == 1
    flagged = [r for r in payload["records"] if r["status"] == "flagged"]
    assert flagged[0]["check_id"] == "su3.curvature.coefficient-discrepancy"
    assert payload["summary"]["fail"] == 0
    _report(10, "derived coefficient a(4a - 8d/3 - l) matches the "
                "instanton threshold, the quoted variant does not, and "
                "the suite emits exactly one flagged record for it")
