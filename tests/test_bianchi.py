from fractions import Fraction as F

import pytest

from hetg2 import suites
from hetg2.bianchi import (_conditional_identity_reduce, approx_order_report,
                           branches, extract_constraints, residual,
                           root_table, sasaki_3alpha_impossibility,
                           verify_branch)
from hetg2.scalar import AlgebraError, SymbolTable, prem
from hetg2.structures import NotInSpanError, get_ring, structure_torsion
from test_curvature import doubled, failed, named_failures, records, with_leg

R3 = get_ring("3ad")
RS = get_ring("su3")
T3 = R3.table
AL, DE, AP = T3.sym("alpha"), T3.sym("delta"), T3.sym("alphap")
L1, L2 = T3.sym("lam1"), T3.sym("lam2")
BETA = 2 * (DE - 2 * AL)


class TestResidual:
    def test_rho2_cancels(self):
        # at equal lambdas the traces cancel, the remainder's with them,
        # and the residual is d T^c
        res = residual(R3, L1, L1)
        assert res.form == structure_torsion(R3).characteristic.d().embed()

    def test_flux_source_is_characteristic_torsion(self):
        tcg = structure_torsion(R3).characteristic
        expect = 2 * (DE - 4 * AL) * R3.eta(1, 2, 3)
        for i in (1, 2, 3):
            expect = expect + 2 * AL * R3.eta(i).wedge(R3.Phi(i))
        assert tcg == expect

    def test_case_i_generic_system(self):
        sysm = extract_constraints(residual(R3, -BETA, L2))
        assert sysm.polynomials[1] == 4 * AL ** 2 \
            - 3 * AP * AL ** 2 * (BETA + L2) ** 2
        assert sysm.polynomials[0] == 4 * AL * BETA \
            - 3 * AP * AL * (BETA + L2) ** 2 * (L2 - 4 * AL)

    def test_exact_solution_system(self):
        sysm = extract_constraints(residual(R3, -BETA, T3.zero()))
        at0 = [p.subs({"delta": 0}) for p in sysm.polynomials]
        # {4a^2 = 3a^2 b^2 a', 4ab = -12 a^2 b^2 a'} at b = -4a
        assert at0[1] == 4 * AL ** 2 - 48 * AP * AL ** 4
        assert at0[0] == -16 * AL ** 2 + 192 * AP * AL ** 4
        vals = [p.subs({"alpha": 1, "delta": 0, "alphap": F(1, 12)})
                for p in sysm.polynomials]
        assert all(v.is_zero for v in vals)
        bad = [p.subs({"alpha": 1, "delta": 0, "alphap": F(1, 10)})
               for p in sysm.polynomials]
        assert any(not v.is_zero for v in bad)

    def test_su3_eta_omega_coefficients(self):
        ts = RS.table
        sysm = extract_constraints(
            residual(RS, ts.sym("lam1"), ts.sym("lam2")))
        de, al = ts.sym("delta"), ts.sym("alpha")
        s, c = ts.sym("s"), ts.sym("c")
        by_monomial = dict(zip(["PhiPhi", "etaOm+", "etaOm-"],
                               sysm.polynomials))
        assert by_monomial["etaOm+"] == -c * 4 * de * (6 * al - 4 * de) / 3
        assert by_monomial["etaOm-"] == s * 4 * de * (6 * al - 4 * de) / 3
        # nonzero unless delta (3 alpha - 2 delta) = 0
        assert by_monomial["etaOm+"].subs({"delta": 0}).is_zero
        assert by_monomial["etaOm+"] \
            .subs({"delta": F(3, 2) * ts.sym("alpha")}).is_zero
        assert not by_monomial["etaOm+"].subs({"delta": 1}).is_zero

    def test_zero_residual_gives_satisfiable_system(self):
        res = residual(R3, -BETA, T3.zero())
        sysm = extract_constraints(res)
        vals = [p.subs({"alpha": 1, "delta": 0, "alphap": F(1, 12)})
                for p in sysm.polynomials]
        assert all(v.is_zero for v in vals)


def branch(branch_id):
    return [b for b in branches(R3, RS) if b.branch_id == branch_id][0]


class TestBranches:
    @pytest.mark.parametrize("branch", branches(R3, RS), ids=lambda b: b.branch_id)
    def test_branch(self, branch):
        # zero on each branch; nonzero on the negative control
        zero = branch.branch_id != "3ad.negative-control"
        reduced, samples, _ = verify_branch(branch)
        assert all(p.is_zero for p in reduced) == zero
        for point, vals in samples:
            assert all(v.is_zero for v in vals) == zero
            assert point["alphap"] > 0

    def test_branch_reports_residuals(self):
        reduced, _, _ = verify_branch(branch("3ad.negative-control"))
        assert any(not p.is_zero for p in reduced)

    def test_case_ii_conditional_identity_directly(self):
        # E2 reduced by the lam2 quadratic and the squared compatibility
        e1 = 4 * AL ** 2 + 3 * AL ** 2 * AP * (BETA ** 2 - (BETA + L2) ** 2)
        h1 = 3 * AP * (BETA + L2) ** 2 - 3 * AP * BETA ** 2 - 4
        assert (e1 + AL ** 2 * h1).is_zero

    def test_case_ii_reads_the_compatibility_relation(self):
        # with h2 + 1 in place of h2 the resultant no longer reduces to zero
        case = branch("3ad.case-ii")
        h2, var = case.conditional_pair
        reduced, _, _ = verify_branch(
            case._replace(conditional_pair=(h2 + 1, var)))
        assert any(not p.is_zero for p in reduced)

    def test_case_ii_keeps_a_lam2_free_residue(self):
        # the resultant of a nonzero constant b and h1 is b^2, not
        # prem(h1, b) = 0; a residue free of lam2 must vanish itself
        assert _conditional_identity_reduce(AL, branch("3ad.case-ii")) == AL


class TestImpossibility:
    def test_report(self):
        triples = sasaki_3alpha_impossibility(R3)
        assert failed(triples) == []
        (_, eliminant, _), (_, discriminant, _), (_, boundary, _) = triples
        assert eliminant == 12 * ((L2 - 2) ** 3 - (L1 - 2) ** 3)
        assert discriminant == -432 * (L1 - 2) ** 2
        assert boundary == 4

    def test_numeric_samples(self):
        # a = d = 1: no rational (lam1, lam2, a' > 0) zeroes both constraints
        sysm = extract_constraints(residual(R3, L1, L2))
        for l1 in (F(0), F(2), F(4), F(-1)):
            for l2 in (F(0), F(1), F(3), F(7, 2)):
                for ap in (F(1, 12), F(1, 3), F(2)):
                    vals = [p.subs({"alpha": 1, "delta": 1, "lam1": l1,
                                    "lam2": l2, "alphap": ap})
                            for p in sysm.polynomials]
                    assert any(not v.is_zero for v in vals)


class TestApproxOrders:
    def test_3ad_scaling(self):
        tt = root_table(3)
        t, r = tt.sym("t"), tt.sym("r")
        rep = approx_order_report(
            R3, {"lam": 2 * t ** 5, "delta": t ** 5,
                    "alpha": t ** 5 - (r / 6) / t}, tt)
        assert rep.leading_order == 8
        assert rep.norm_sq_text == "192*t^8"

    def test_su3_scaling(self):
        tt = root_table(6)
        t, r = tt.sym("t"), tt.sym("r")
        rep = approx_order_report(
            RS, {"lam": (2 * r / 3) / t, "alpha": t ** 5,
                    "delta": F(3, 2) * t ** 5}, tt)
        assert rep.leading_order == 8
        assert rep.norm_sq_text == "216*t^8"

    def test_root_table(self):
        # the scalings' radicals: r^2 = d, and r has no inverse
        tt = root_table(6)
        t, r = tt.sym("t"), tt.sym("r")
        assert r * r == 6 and (r * t) ** 3 == 6 * r * t ** 3
        with pytest.raises(AlgebraError, match="lead symbol"):
            t / r

    def test_subs_refuses_a_root_of_another_table(self):
        # r of r^2 = 3 used to land silently as sqrt(2) in an r^2 = 2 table
        r3, r2 = root_table(3), root_table(2)
        x = r3.sym("r") * r3.sym("t")
        with pytest.raises(AlgebraError, match="relations over r"):
            x.subs({}, table=r2)
        # a table with the same relation, or a bound r, is accepted
        same = root_table(3)
        assert x.subs({}, table=same) ** 2 == 3 * same.sym("t") ** 2
        assert x.subs({"r": r2.sym("r")}, table=r2) \
            == r2.sym("r") * r2.sym("t")

    def test_constant_scaling_fails(self):
        tt = SymbolTable(("t",))
        rep = approx_order_report(
            R3, {"lam": tt.rat(1), "delta": tt.rat(1),
                    "alpha": tt.rat(3)}, tt)
        assert rep.leading_order == 0


class TestBasisHandling:
    def test_basis_independence(self):
        res = residual(R3, T3.rat(4), T3.zero())
        s1 = extract_constraints(res)
        alt = [res.basis[0], res.basis[0] + res.basis[1]]
        s2 = extract_constraints(res, basis=alt)
        assert (s2.polynomials[0]
                - (s1.polynomials[0] - s1.polynomials[1])).is_zero
        assert (s2.polynomials[1] - s1.polynomials[1]).is_zero

    def test_leftover_detection(self):
        res = residual(R3, T3.rat(4), T3.zero())
        with pytest.raises(NotInSpanError):
            extract_constraints(res, basis=[res.basis[0]])

    def test_dependent_basis_refused(self):
        res = residual(R3, T3.rat(4), T3.zero())
        with pytest.raises(AlgebraError):
            extract_constraints(res, basis=[res.basis[0], res.basis[0]])


def test_branch_record_payload():
    cid = "bianchi.branch.3ad.case-i"
    rec = records(suites.SuiteBianchi, "bi", lambda m: m, (cid,))[cid]
    assert rec.status == "pass"
    assert rec.lhs == "0; 0"
    assert "lam2 = 2*delta" in rec.parameters["hypotheses"]


def with_sample(branches, branch_id, **values):
    """The branches by id, the first sample of ``branch_id`` updated."""
    b = branches[branch_id]
    return {**branches, branch_id: b._replace(
        samples=[{**b.samples[0], **values}, *b.samples[1:]])}


class TestRecordsReadTheirInputs:
    def test_branch_names_the_broken_sample(self):
        cid = "bianchi.branch.3ad.case-i"
        rec = records(suites.SuiteBianchi, "branches",
                      lambda bs: with_sample(bs, "3ad.case-i",
                                             alphap=F(-1, 48)),
                      (cid,))[cid]
        point = {**branch("3ad.case-i").samples[0], "alphap": F(-1, 48)}
        # a' < 0 leaves a nonzero constraint, and is refused on its own
        assert rec.status == "fail"
        assert rec.notes.startswith(f"sample {point} residuals ")
        assert rec.notes.endswith(f"; sample {point} violates alphap > 0")

    def test_branch_names_the_reduced_constraints(self):
        cid = "bianchi.branch.3ad.case-i"

        def moved(bs):
            b = bs["3ad.case-i"]
            return {**bs, "3ad.case-i": b._replace(
                bindings={**b.bindings, "lam2": 3 * DE})}
        rec = records(suites.SuiteBianchi, "branches", moved, (cid,))[cid]
        assert rec.status == "fail" and rec.lhs != "0; 0"
        assert rec.notes == "failed: reduced constraints"

    def test_negative_control_fails_when_it_vanishes(self):
        cid = "bianchi.branch.3ad.negative-control"
        rec = records(
            suites.SuiteBianchi, "branches",
            lambda bs: {**bs, "3ad.negative-control": bs["3ad.case-i"]},
            (cid,))[cid]
        assert rec.status == "fail"
        assert rec.notes.endswith("; failed: reduced constraints")
        assert "confirmed" not in rec.notes

    @pytest.mark.parametrize("leg", [
        "eliminant = 12((lam2-2)^3-(lam1-2)^3)",
        "the quadratic factor has discriminant -432(lam1-2)^2"])
    def test_impossibility_names_the_broken_triple(self, leg):
        assert named_failures(suites.SuiteBianchi, "imp",
                              lambda t: with_leg(t, leg, doubled),
                              "bianchi.impossibility.3-alpha") == [leg]
