from fractions import Fraction as F

import pytest

from hetg2.exterior import Form
from hetg2.scalar import AlgebraError
from hetg2.structures import (CYCLIC, ExtractionError, GenForm, NotInSpanError,
                              Ring3ad, RingSU3, characteristic_torsion,
                              h_homothety, is_g2_form,
                              lambda214_double_characterization, make_table,
                              registry, sp1_frame_forms, torsion_classes)
from hetg2.linsolve import rank

R3 = Ring3ad(make_table("3ad"))
RS = RingSU3(make_table("su3"))


def compose_endomorphisms(f: dict, g: dict) -> dict:
    """f o g for (1,1)-tensors stored as b -> {a: coefficient}."""
    out: dict[int, dict] = {}
    for b, col in g.items():
        acc: dict[int, F] = {}
        for mid, cg in col.items():
            for a, cf_ in f.get(mid, {}).items():
                acc[a] = acc.get(a, 0) + cf_ * cg
        out[b] = {a: v for a, v in acc.items() if v}
    return {b: col for b, col in out.items() if col}


def endomorphism_trace(f: dict, indices) -> F:
    return sum(F(f.get(i, {}).get(i, 0)) for i in indices)


class TestRing3ad:
    def test_structure_equation(self):
        t = R3.table
        al, de = t.sym("alpha"), t.sym("delta")
        for i, (j, k) in CYCLIC.items():
            assert R3.eta(i).d() == 2 * al * R3.Phi(i) - 2 * de * R3.eta(j, k)

    def test_d_squared_zero_everywhere(self):
        for k in range(8):
            for m in R3.monomials(k):
                assert R3.genform({m: 1}).d().d().is_zero

    def test_derived_phi_rule(self):
        t = R3.table
        de = t.sym("delta")
        for i, (j, k) in CYCLIC.items():
            expect = 2 * de * (R3.Phi(j).wedge(R3.eta(k))
                               - R3.eta(j).wedge(R3.Phi(k)))
            assert R3.Phi(i).d() == expect

    def test_embedding_round_trip(self):
        gf = R3.phi()
        assert R3.from_form(gf.embed()) == gf

    def test_from_form_rejects_outside_span(self):
        bad = R3.coframe.e(1, 4)  # eta ^ horizontal leg is not in the ring
        with pytest.raises(NotInSpanError):
            R3.from_form(bad)

    def test_star_in_ring(self):
        assert R3.star(R3.phi()) == R3.psi()


class TestRingSU3:
    def test_d_table(self):
        t = RS.table
        al, de = t.sym("alpha"), t.sym("delta")
        assert RS.eta().d() == 2 * al * RS.Phi()
        assert RS.Phi().d().is_zero
        assert RS.Om("+").d() == -4 * de * RS.eta().wedge(RS.Om("-"))
        assert RS.Om("-").d() == 4 * de * RS.eta().wedge(RS.Om("+"))

    def test_d_squared_uses_wedge_relations(self):
        assert RS.Om("+").d().d().is_zero

    def test_omega_pair_collapses(self):
        pair = RS.Om("+").wedge(RS.Om("-"))
        phi3 = RS.Phi().wedge(RS.Phi()).wedge(RS.Phi())
        assert pair == F(2, 3) * phi3
        assert RS.Om("-").wedge(RS.Om("+")) == -F(2, 3) * phi3

    def test_phi_kills_omega(self):
        assert RS.Phi().wedge(RS.Om("+")).is_zero

    def test_family_is_g2(self):
        assert is_g2_form(RS.phi_theta().embed(), RS.psi_theta().embed())

    def test_star_roundtrip(self):
        assert RS.star(RS.phi_theta()) == RS.psi_theta()


@pytest.fixture(scope="module")
def tc_3ad():
    phi, psi = R3.phi(), R3.psi()
    return torsion_classes(phi.embed(), psi.embed(),
                           phi.d().embed(), psi.d().embed())


@pytest.fixture(scope="module")
def tc_su3():
    phi, psi = RS.phi_theta(), RS.psi_theta()
    return torsion_classes(phi.embed(), psi.embed(),
                           phi.d().embed(), psi.d().embed())


class TestTorsionClasses3ad:
    @pytest.fixture
    def tc(self, tc_3ad):
        return tc_3ad

    def test_values(self, tc):
        t = R3.table
        al, de = t.sym("alpha"), t.sym("delta")
        assert tc.tau0 == F(12, 7) * (2 * al + de)
        assert tc.tau1.is_zero and tc.tau2.is_zero
        assert tc.tau3 == (10 * al - 2 * de) * (R3.eta(1, 2, 3).embed()
                                                - R3.phi().embed() / 7)

    def test_nearly_parallel_at_five_alpha(self, tc):
        sub = {"delta": 5 * R3.table.sym("alpha")}
        assert all(v.subs(sub).is_zero for v in tc.tau3.terms.values())

    def test_characteristic_torsion(self, tc):
        t = R3.table
        al, de = t.sym("alpha"), t.sym("delta")
        tcf = characteristic_torsion(tc, R3.phi().embed(), R3.psi().embed())
        got = R3.from_form(tcf)
        expect = 2 * (de - 4 * al) * R3.eta(1, 2, 3)
        for i in (1, 2, 3):
            expect = expect + 2 * al * R3.eta(i).wedge(R3.Phi(i))
        assert got == expect
        beta = 2 * (de - 2 * al)
        b1, b2 = R3.zero(), R3.zero()
        for i, (j, k) in CYCLIC.items():
            b1 = b1 + R3.Phi(i).wedge(R3.eta(j, k))
            b2 = b2 + R3.Phi(i).wedge(R3.Phi(i))
        assert got.d() == 4 * al * beta * b1 + 4 * al ** 2 * b2

    def test_inconsistent_inputs_raise(self):
        phi, psi = R3.phi().embed(), R3.psi().embed()
        bad = R3.phi().d().embed() + R3.coframe.e(1, 2, 4, 5)
        with pytest.raises(ExtractionError):
            torsion_classes(phi, psi, bad, R3.psi().d().embed())

    def test_non_g2_input_rejected(self):
        cf = R3.coframe
        with pytest.raises(ExtractionError):
            torsion_classes(cf.e(1, 2, 3), cf.e(4, 5, 6, 7),
                            cf.zero(), cf.zero())


class TestTorsionClassesSU3:
    @pytest.fixture
    def tc(self, tc_su3):
        return tc_su3

    def test_values(self, tc):
        t = RS.table
        al, de = t.sym("alpha"), t.sym("delta")
        s, c = t.sym("s"), t.sym("c")
        assert tc.tau0 == -F(4, 7) * (3 * al + 4 * de)
        assert not (tc.tau0.support() & {"s", "c"})
        assert tc.tau1.is_zero and tc.tau2.is_zero
        expect = F(4, 7) * (al - de) * (
            4 * RS.eta().wedge(RS.Phi())
            + 3 * (s * RS.Om("+") + c * RS.Om("-"))).embed()
        assert tc.tau3 == expect

    def test_tau3_orthogonal_to_phi(self, tc):
        assert tc.tau3.inner(RS.phi_theta().embed()).is_zero

    def test_quoted_sign_variant_is_not_orthogonal(self):
        t = RS.table
        al, de = t.sym("alpha"), t.sym("delta")
        s, c = t.sym("s"), t.sym("c")
        quoted = F(4, 7) * (al - de) * (
            4 * RS.eta().wedge(RS.Phi())
            - 3 * (s * RS.Om("+") + c * RS.Om("-"))).embed()
        val = quoted.inner(RS.phi_theta().embed())
        assert not val.is_zero

    def test_characteristic_torsion_branch_values(self, tc):
        t = RS.table
        al = t.sym("alpha")
        tcf = characteristic_torsion(tc, RS.phi_theta().embed(),
                                     RS.psi_theta().embed())
        tcg = RS.from_form(tcf)
        d_tc = tcg.d()
        pp = RS.Phi().wedge(RS.Phi())
        at0 = GenForm(RS, {m: v.subs({"delta": 0})
                           for m, v in d_tc.terms.items()})
        at32 = GenForm(RS, {m: v.subs({"delta": F(3, 2) * t.sym("alpha")})
                            for m, v in d_tc.terms.items()})
        assert at0 == -4 * al ** 2 * pp
        assert at32 == 4 * al ** 2 * pp


class TestMisc:
    def test_lambda214(self):
        phi, psi = R3.phi().embed(), R3.psi().embed()
        n1, n2 = lambda214_double_characterization(phi, psi)
        assert len(n1) == 14 and len(n2) == 14
        assert rank(n1 + n2) == 14

    def test_homothety(self):
        t = R3.table
        al, de = t.sym("alpha"), t.sym("delta")
        at, dt = h_homothety(al, de, F(2), F(3))
        assert at == F(3, 2) * al and dt == de / 3
        at, dt = h_homothety(t.one(), t.zero(), F(5), F(7))
        assert dt.is_zero  # degenerate stays degenerate
        at, dt = h_homothety(al, de, F(1), F(1))
        assert at == al and dt == de
        with pytest.raises(AlgebraError):
            h_homothety(al, de, F(0), F(1))

    def test_homothety_reparametrizes_deformation(self):
        t = R3.table
        al, de = t.sym("alpha"), t.sym("delta")
        beta = 2 * (de - 2 * al)
        for c in (F(1, 2), F(2, 3), F(3)):
            at, dt = h_homothety(al, de, F(1), c)
            lam = 4 * al * (1 - c * c)  # c = sqrt(1 - lam/(4a))
            assert c * 2 * (dt - 2 * at) == beta + lam

    def test_aux_structures(self):
        t = R3.table
        phi1 = R3.aux_phi(1)
        ph = phi1.embed()
        ps = ph.star()
        tc = torsion_classes(ph, ps, phi1.d().embed(),
                             R3.from_form(ps).d().embed())
        assert tc.tau1.is_zero and tc.tau2.is_zero
        sub = {"delta": t.sym("alpha")}
        assert all(v.subs(sub).is_zero for v in tc.tau3.terms.values())
        assert not tc.tau3.is_zero

    def test_registry(self):
        reg = registry()
        assert "phi.canonical.3ad" in reg and "psi.theta.su3" in reg
        # names map to builders over the registry's own tables; compare
        # canonical text
        assert reg["phi.canonical.3ad"]().embed().text() \
            == R3.phi().embed().text()
        assert reg["PhiH2.3ad"]().embed().text() == R3.Phi(2).embed().text()
        assert reg["Om-.su3"]().embed().text() == RS.Om("-").embed().text()


class TestAlmostContactCompatibility:
    """Algebraic relations of the three (1,1)-tensors in the adapted frame."""

    def setup_method(self):
        from hetg2.structures import endomorphism_from_form
        frame = sp1_frame_forms(R3.coframe)
        self.phi = {i: endomorphism_from_form(frame["Phi"][i])
                    for i in (1, 2, 3)}

    def test_phi_compose(self):
        # with Phi(X, Y) = g(X, phi Y) the adapted frame satisfies
        # phi_i phi_j = phi_k + eta_j (x) xi_i (the commonly quoted
        # compatibility carries a minus sign, which fails on the vertical
        # legs for these conventions; exercised by the "minus" assertion)
        for i, (j, k) in CYCLIC.items():
            got = compose_endomorphisms(self.phi[i], self.phi[j])
            want = {b: dict(col) for b, col in self.phi[k].items()}
            col = want.setdefault(j, {})
            col[i] = col.get(i, 0) + 1
            want = {b: {a: v for a, v in col.items() if v}
                    for b, col in want.items()}
            want = {b: col for b, col in want.items() if col}
            assert got == want, (i, j, k)
            minus = {b: dict(col) for b, col in self.phi[k].items()}
            mcol = minus.setdefault(j, {})
            mcol[i] = mcol.get(i, 0) - 1
            assert got != {b: {a: v for a, v in col.items() if v}
                           for b, col in minus.items() if col}

    def test_phi_squares(self):
        for i in (1, 2, 3):
            sq = compose_endomorphisms(self.phi[i], self.phi[i])
            # phi_i^2 = -Id + eta_i (x) xi_i
            for b in range(1, 8):
                want = {b: F(-1)} if b != i else {}
                assert sq.get(b, {}) == want

    def test_eta_compose(self):
        # eta_i(phi_j(e_b)) = eta_k(e_b)
        for i, (j, k) in CYCLIC.items():
            for b in range(1, 8):
                got = self.phi[j].get(b, {}).get(i, 0)
                assert got == (1 if b == k else 0)

    def test_block_traces(self):
        for i in (1, 2, 3):
            sq = compose_endomorphisms(self.phi[i], self.phi[i])
            assert endomorphism_trace(sq, (4, 5, 6, 7)) == -4
            assert endomorphism_trace(sq, (1, 2, 3)) == -2

    def test_registry_characteristic_torsion(self):
        reg = registry()
        assert "Tc.3ad" in reg and "dTc.su3" in reg
        tc = reg["Tc.3ad"]()
        phi, psi = R3.phi().embed(), R3.psi().embed()
        classes = torsion_classes(phi, psi, R3.phi().d().embed(),
                                  R3.psi().d().embed())
        assert tc.embed().text() \
            == characteristic_torsion(classes, phi, psi).text()
        assert reg["dTc.3ad"]().text() == tc.d().text()
