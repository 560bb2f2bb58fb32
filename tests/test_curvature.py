from fractions import Fraction as F

import pytest

from hetg2.curvature import (NORM_SQ_CALIBRATION, antiselfdual_in_kernel,
                             array_transpose_equal, beta_of, contorsion_3ad,
                             curvature_3ad, curvature_su3,
                             instanton_obstruction, su3_coefficient,
                             torsion_lambda_3ad, trace_lemma_rhs_3ad,
                             trace_lemma_rhs_su3, wedge_trace)
from hetg2.scalar import AlgebraError, SymbolTable
from hetg2.structures import CYCLIC, Ring3ad, RingSU3, make_table

R3 = Ring3ad(make_table("3ad"))
RS = RingSU3(make_table("su3"))
T3 = R3.table
TS = RS.table
AL, DE, LAM = T3.sym("alpha"), T3.sym("delta"), T3.sym("lam")
BETA = beta_of(R3)


def skew_torsion_form(tl):
    """The torsion of ``tl`` as a generated 3-form; only the lam = 0 torsion
    is totally skew."""
    if not tl.is_skew():
        raise AlgebraError("deformed torsion is not totally skew")
    r = tl.ring
    out = tl.vertical_coeff * r.eta(1, 2, 3)
    for i in (1, 2, 3):
        out = out + tl.value_vertical_coeff * r.eta(i).wedge(r.Phi(i))
    return out


class TestTorsionLambda:
    def test_canonical_value(self):
        tl = torsion_lambda_3ad(R3, T3.zero())
        expect = 2 * (DE - 4 * AL) * R3.eta(1, 2, 3)
        for i in (1, 2, 3):
            expect = expect + 2 * AL * R3.eta(i).wedge(R3.Phi(i))
        assert skew_torsion_form(tl) == expect

    def test_vertical_shift(self):
        tl = torsion_lambda_3ad(R3, LAM)
        assert tl.vertical_coeff == 2 * (DE - 4 * AL) + 2 * LAM
        assert tl.arg_vertical_coeff == 2 * AL - LAM / 2
        assert tl.value_vertical_coeff == 2 * AL

    def test_parallel_family_matches_at_beta_zero(self):
        # at delta = 2 alpha the two instanton torsions coincide
        tl0 = torsion_lambda_3ad(R3, T3.zero())
        tlm = torsion_lambda_3ad(R3, -BETA)
        sub = {"delta": 2 * T3.sym("alpha")}
        assert tlm.vertical_coeff.subs(sub) == tl0.vertical_coeff.subs(sub)
        assert tlm.arg_vertical_coeff.subs(sub) \
            == tl0.arg_vertical_coeff.subs(sub)

    def test_not_skew_off_zero(self):
        assert torsion_lambda_3ad(R3, T3.zero()).is_skew()
        tl = torsion_lambda_3ad(R3, LAM)
        assert not tl.is_skew()
        with pytest.raises(AlgebraError):
            skew_torsion_form(tl)

    def test_contorsion_blocks(self):
        phi = R3.phi().embed()
        delta = contorsion_3ad(phi, F(2))
        assert delta[(1, 2, 3)] == 2  # lam * phi(123)
        assert delta[(4, 1, 5)] == -1  # -lam/2 * phi(4,1,5) = -1*(+1)
        assert (1, 4, 5) not in delta  # value-vertical slot is unshifted
        assert contorsion_3ad(phi, F(0)) == {}


class TestCurvature3ad:
    def test_blocks(self):
        R = curvature_3ad(R3, LAM)
        assert R.block("V", "V") == -(BETA + LAM) * (4 * AL - LAM)
        assert R.block("H", "V") == -(BETA + LAM) * 2 * AL
        assert R.block("V", "H") == -(BETA + LAM) * (2 * AL - LAM / 2)
        assert R.block("H", "H") == -(BETA + LAM) * AL

    def test_vvvv_sample(self):
        R = curvature_3ad(R3, T3.zero())
        assert R.block("V", "V").subs({"delta": 0, "alpha": 1}) == 16

    def test_parallel_family_explicit_part_vanishes(self):
        R = curvature_3ad(R3, -BETA)
        assert all(v.is_zero for v in R.blocks.values())
        assert R.has_r2

    def test_pair_symmetry_only_at_zero(self):
        assert array_transpose_equal(curvature_3ad(R3, T3.zero()))
        assert not array_transpose_equal(curvature_3ad(R3, T3.rat(3)))

    def test_asd_kernel(self):
        assert antiselfdual_in_kernel(curvature_3ad(R3, LAM))

    def test_hh_block_always_symmetric(self):
        arr = curvature_3ad(R3, LAM).to_array()
        for (I, J), v in arr.items():
            if min(I) >= 4 and min(J) >= 4:
                assert arr[(J, I)] == v


class TestObstruction3ad:
    def test_structure_and_factors(self):
        ob = instanton_obstruction(curvature_3ad(R3, LAM), R3.psi())
        assert ob.norm_sq_natural == 9 * LAM ** 2 * (BETA + LAM) ** 2
        assert ob.norm_sq == NORM_SQ_CALIBRATION["3ad"] * ob.norm_sq_natural
        assert [str(f) for f in ob.zero_factors] \
            == [str(LAM), str(BETA + LAM)]

    def test_zero_set(self):
        assert instanton_obstruction(curvature_3ad(R3, T3.zero()),
                                     R3.psi()).is_zero
        assert instanton_obstruction(curvature_3ad(R3, -BETA),
                                     R3.psi()).is_zero
        assert not instanton_obstruction(curvature_3ad(R3, T3.rat(1)),
                                         R3.psi()).is_zero

    def test_norm_at_case_i_slope(self):
        ob = instanton_obstruction(curvature_3ad(R3, LAM), R3.psi())
        val = ob.norm_sq.subs({"lam": 2 * T3.sym("delta")})
        assert val == (48 * (DE - AL) * DE) ** 2

    def test_geometry_mismatch(self):
        with pytest.raises(AlgebraError):
            instanton_obstruction(curvature_3ad(R3, LAM), RS.psi_theta())


class TestTrace3ad:
    def test_lemma(self):
        tr = wedge_trace(curvature_3ad(R3, LAM))
        assert tr.explicit == trace_lemma_rhs_3ad(R3, LAM)
        assert tr.rho2 == T3.one()

    def test_rho2_cancellation(self):
        t0 = wedge_trace(curvature_3ad(R3, T3.zero()))
        tm = wedge_trace(curvature_3ad(R3, -BETA))
        diff = tm - t0
        assert diff.rho2.is_zero
        b1, b2 = R3.zero(), R3.zero()
        for i, (j, k) in CYCLIC.items():
            b1 = b1 + R3.eta(j, k).wedge(R3.Phi(i))
            b2 = b2 + R3.Phi(i).wedge(R3.Phi(i))
        assert diff.explicit == -12 * AL * BETA ** 2 * (4 * AL * b1 - AL * b2)


class TestSU3:
    def test_coefficient_variants(self):
        lam = TS.sym("lam")
        al, de = TS.sym("alpha"), TS.sym("delta")
        k = su3_coefficient(RS, lam)
        threshold = {"lam": F(4, 3) * (3 * al - 2 * de)}
        assert k.subs(threshold).is_zero
        kp = su3_coefficient(RS, lam, "printed")
        assert not kp.subs(threshold).is_zero
        assert su3_coefficient(RS, TS.zero()) \
            .subs({"delta": F(3, 2) * al}).is_zero
        assert k.subs({"delta": 0}) == al * (4 * al - lam)
        assert k.subs({"delta": 0, "lam": 4 * al}).is_zero

    def test_array_is_k_phi_phi(self):
        # the explicit part K Phi (x) Phi over the three horizontal pairs;
        # e^23 is horizontal here, although it is vertical in the 3ad case
        lam = TS.sym("lam")
        k = su3_coefficient(RS, lam)
        phi = RS.Phi().embed()
        assert curvature_su3(RS, lam).to_array() == {
            (I, J): k * phi.coefficient(I) * phi.coefficient(J)
            for I in phi.terms for J in phi.terms}
        assert set(phi.terms) == {(2, 3), (4, 5), (6, 7)}

    def test_obstruction(self):
        lam = TS.sym("lam")
        k = su3_coefficient(RS, lam)
        ob = instanton_obstruction(curvature_su3(RS, lam), RS.psi_theta())
        assert ob.norm_sq_natural == 54 * k ** 2
        assert ob.norm_sq == 81 * k ** 2

    def test_norm_at_branch_b(self):
        lam = TS.sym("lam")
        ob = instanton_obstruction(curvature_su3(RS, lam), RS.psi_theta())
        ns = ob.norm_sq.subs({"lam": TS.sym("lam2"),
                              "delta": F(3, 2) * TS.sym("alpha")})
        tt = SymbolTable(TS.symbols)
        tt.add_relation(tt.sym("lam2") ** 2
                        - F(8, 3) * tt.monomial("alphap", -1))
        got = ns.subs({n: tt.sym(n) for n in ("alpha", "lam2")}, table=tt)
        assert got == 36 * tt.sym("alpha") ** 2 * 6 / tt.sym("alphap")

    def test_trace(self):
        lam = TS.sym("lam")
        tr = wedge_trace(curvature_su3(RS, lam))
        assert tr.explicit == trace_lemma_rhs_su3(RS, lam)
        l1, l2 = TS.sym("lam1"), TS.sym("lam2")
        same = wedge_trace(curvature_su3(RS, l1)) \
            - wedge_trace(curvature_su3(RS, l1))
        assert same.explicit.is_zero and same.rho2.is_zero
        diff = wedge_trace(curvature_su3(RS, l1)) \
            - wedge_trace(curvature_su3(RS, l2))
        assert diff.rho2.is_zero
