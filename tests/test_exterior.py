import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from hetg2.exterior import Coframe, DegreeError, basis_multi_indices, \
    contract_biform
from hetg2.scalar import AlgebraError, SymbolTable
from hetg2.structures import sp1_frame_forms, su3_frame_forms

TAB = SymbolTable(("alpha", "delta"))
CF = Coframe(TAB, 7)


@st.composite
def forms(draw, degree=None):
    k = degree if degree is not None else draw(st.integers(0, 7))
    idxs = basis_multi_indices(7, k)
    out = CF.zero()
    for idx in draw(st.lists(st.sampled_from(idxs), max_size=4)):
        coef = draw(st.fractions(min_value=-7, max_value=7, max_denominator=4))
        out = out + CF.form({idx: coef})
    return out


class TestWedge:
    def test_basis_product(self):
        assert (CF.e(1) ^ CF.e(2)) == CF.e(1, 2)

    def test_selfdual_orthogonality(self):
        f = sp1_frame_forms(CF)["PhiH"]
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                if i != j:
                    assert (f[i] ^ f[j]).is_zero
            assert (f[i] ^ f[i]) == 2 * CF.e(4, 5, 6, 7)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_graded_commutativity(self, ka, kb, data):
        a = data.draw(forms(degree=ka))
        b = data.draw(forms(degree=kb))
        sign = (-1) ** (ka * kb)
        assert (a ^ b) == sign * (b ^ a)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_associativity(self, data):
        a = data.draw(forms(degree=1))
        b = data.draw(forms(degree=2))
        c = data.draw(forms(degree=2))
        assert ((a ^ b) ^ c) == (a ^ (b ^ c))


class TestHodge:
    def test_one_form(self):
        assert CF.e(1).star() == CF.e(2, 3, 4, 5, 6, 7)

    def test_canonical_pair(self):
        frame = sp1_frame_forms(CF)
        phi = CF.e(1, 2, 3)
        for i in (1, 2, 3):
            phi = phi + (frame["eta"][i] ^ frame["PhiH"][i])
        psi = CF.zero()
        for i, (j, k) in ((1, (2, 3)), (2, (3, 1)), (3, (1, 2))):
            psi = psi + (frame["PhiH"][i] ^ frame["eta"][j] ^ frame["eta"][k])
        for i in (1, 2, 3):
            psi = psi + (frame["PhiH"][i] ^ frame["PhiH"][i]) / 6
        assert phi.star() == psi
        assert (phi ^ psi) == 7 * CF.vol()

    @settings(max_examples=30, deadline=None)
    @given(forms())
    def test_double_star_is_identity(self, a):
        try:
            a.degree()
        except DegreeError:
            return
        assert a.star().star() == a

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 7), st.data())
    def test_star_isometry(self, k, data):
        a = data.draw(forms(degree=k))
        b = data.draw(forms(degree=k))
        assert a.star().inner(b.star()) == a.inner(b)

    def test_mixed_degree_rejected(self):
        with pytest.raises(DegreeError):
            (CF.e(1) + CF.e(1, 2)).star()

    def test_star_oracle_by_pairing(self):
        # independent route: b ^ *a = <a, b> vol for every complementary b
        random.seed(3)
        for k in (2, 3, 5):
            idxs = basis_multi_indices(7, k)
            a = CF.zero()
            for idx in random.sample(idxs, 3):
                a = a + CF.form({idx: F(random.randint(-4, 4), 1)})
            sa = a.star()
            for idx in idxs:
                b = CF.e(*idx)
                assert (b ^ sa) == b.inner(a) * CF.vol()


class TestScalarDivision:
    def test_float_divisor_refused(self):
        # a float used to divide silently by Fraction(0.1)
        f = TAB.sym("alpha") * CF.e(1, 2)
        for bad in (0.1, 2.0):
            with pytest.raises(TypeError):
                f * bad
            with pytest.raises(TypeError):
                f / bad
        assert f / 2 == F(1, 2) * f and f / F(2, 3) == F(3, 2) * f
        assert f / TAB.sym("alpha") == CF.e(1, 2)
        with pytest.raises(ZeroDivisionError):
            f / 0

    def test_zero_form_divided_by_zero_refused(self):
        # the zero form used to come back from / 0 unchanged
        for f in (CF.zero(), TAB.sym("alpha") * CF.e(1, 2)):
            for zero in (0, F(0)):
                with pytest.raises(ZeroDivisionError):
                    f / zero


class TestCoframeForm:
    def test_index_out_of_range_refused(self):
        # form({(8,): 1}) used to return e^{8}, whose star was a 7-form and
        # whose wedge with the volume form an 8-form
        for idx in ((8,), (0, 1), (1, 2, 9), (-1,)):
            with pytest.raises(AlgebraError):
                CF.form({idx: 1})
        with pytest.raises(AlgebraError):
            CF.e(8)

    def test_signs_and_repeats(self):
        assert CF.form({(2, 1): 1}) == -CF.e(1, 2)
        assert CF.form({(1, 1): 3}).is_zero
        assert CF.form({(1, 2): 1, (2, 1): 1}).is_zero


class TestInnerAndNorm:
    def test_basis_inner(self):
        assert CF.e(1, 2).inner(CF.e(1, 2)) == 1

    def test_phih_norm(self):
        phi = sp1_frame_forms(CF)["PhiH"][1]
        assert phi.inner(phi) == 2

    def test_degree_mismatch(self):
        with pytest.raises(DegreeError):
            CF.e(1).inner(CF.e(1, 2))


class TestContraction:
    def test_basis(self):
        assert CF.e(1, 2).contract(1) == CF.e(2)
        assert CF.e(1, 2, 3).contract(1) == CF.e(2, 3)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 7), forms())
    def test_leibniz_for_unit_vector(self, v, a):
        ev = CF.e(v)
        lhs = (ev ^ a).contract(v) + (ev ^ a.contract(v))
        assert lhs == a

    def test_lambda214_witnesses(self):
        frame = sp1_frame_forms(CF)
        phi = CF.e(1, 2, 3)
        for i in (1, 2, 3):
            phi = phi + (frame["eta"][i] ^ frame["PhiH"][i])
        psi = phi.star()
        b_in = CF.e(4, 5) - CF.e(6, 7)
        b_out = CF.e(4, 5) + CF.e(6, 7)
        assert (b_in ^ psi).is_zero
        assert not (b_out ^ psi).is_zero
        assert contract_biform(b_in, phi).is_zero
        assert not contract_biform(b_out, phi).is_zero


class TestSU3Frame:
    def test_volume_pairing(self):
        f = su3_frame_forms(CF)
        phi3 = f["Phi"] ^ f["Phi"] ^ f["Phi"]
        assert phi3 == -6 * CF.e(2, 3, 4, 5, 6, 7)
        assert (f["Om+"] ^ f["Om-"]) == F(2, 3) * phi3
        assert (f["Om+"] ^ f["Om+"]).is_zero
        assert (f["Phi"] ^ f["Om+"]).is_zero

    def test_text_dump(self):
        f = 2 * TAB.sym("alpha") * TAB.sym("delta") * CF.e(4, 5, 6, 7)
        assert f.text() == "2*alpha*delta : e^{4567}"
