from fractions import Fraction as F

import pytest

from hetg2.exterior import (Form, basis_multi_indices, coefficient_matrix,
                            form_to_vector)
from hetg2.heisenberg import d_form, heisenberg_model
from hetg2.scalar import AlgebraError
from hetg2.structures import (CYCLIC, ExtractionError, GenForm, NotInSpanError,
                              Ring3ad, RingSU3, TorsionClasses,
                              characteristic_torsion, get_ring, gram_matrix,
                              h_homothety, is_g2_form,
                              lambda214_double_characterization, make_table,
                              registry, sp1_frame_forms, torsion_classes)
from hetg2.linsolve import nullspace, rank, solve_ring_rhs
from hetg2 import suites
from test_curvature import statuses

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


def reference_torsion_classes(phi, psi, dphi, dpsi) -> TorsionClasses:
    """The full 64-unknown linear solve, kept as a reference for the closed
    form projection (like the dense matmul of TestSparseKernels).

    phi and psi need rational coefficients; d phi and d psi may carry
    symbols.  Unknowns [tau0 | tau1 (7) | tau2 (21) | tau3 (35)]; equation
    rows d phi (35), d psi (21), tau2^psi (7), tau3^phi (7), tau3^psi (1).
    """
    cf = phi.space
    basis = {k: basis_multi_indices(7, k) for k in range(2, 8)}
    zero = cf.zero()

    def column(in_dphi, in_dpsi, t2_psi=zero, t3_phi=zero, t3_psi=zero):
        pieces = ((in_dphi, 4), (in_dpsi, 5), (t2_psi, 6), (t3_phi, 6),
                  (t3_psi, 7))
        return [x.as_fraction() for f, k in pieces
                for x in form_to_vector(f, basis[k])]

    cols = [column(psi, zero)]
    cols += [column(3 * (cf.e(j) ^ phi), 4 * (cf.e(j) ^ psi))
             for j in cf.indices]
    cols += [column(zero, cf.e(*i).star(), t2_psi=cf.e(*i) ^ psi)
             for i in basis[2]]
    cols += [column(cf.e(*i).star(), zero, t3_phi=cf.e(*i) ^ phi,
                    t3_psi=cf.e(*i) ^ psi) for i in basis[3]]
    matrix = [list(row) for row in zip(*cols)]
    rhs = (form_to_vector(dphi, basis[4]) + form_to_vector(dpsi, basis[5])
           + [cf.table.zero()] * 15)
    sol = solve_ring_rhs(matrix, rhs)
    return TorsionClasses(sol[0],
                          cf.form({(j,): sol[j] for j in cf.indices}),
                          cf.form(dict(zip(basis[2], sol[8:29]))),
                          cf.form(dict(zip(basis[3], sol[29:]))))


def same_classes(a: TorsionClasses, b: TorsionClasses) -> bool:
    return (a.tau0 == b.tau0 and a.tau1 == b.tau1 and a.tau2 == b.tau2
            and a.tau3 == b.tau3)


def at_circle_point(form: Form, s, c) -> Form:
    table = form.space.table
    sub = {"s": table.rat(s), "c": table.rat(c)}
    return Form(form.space, {k: v.subs(sub) for k, v in form.terms.items()})


CIRCLE_POINTS = [(F(0), F(1)), (F(1), F(0)), (F(3, 5), F(4, 5))]


def structure_inputs(geometry):
    """(phi, psi, d phi, d psi) of the distinguished structure, embedded."""
    ring = R3 if geometry == "3ad" else RS
    phi, psi = ring.phi(), ring.psi()
    return phi.embed(), psi.embed(), phi.d().embed(), psi.d().embed()


def aux_inputs(i):
    ph = R3.aux_phi(i).embed()
    ps = ph.star()
    return ph, ps, R3.aux_phi(i).d().embed(), R3.from_form(ps).d().embed()


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
        assert R3.from_form(R3.phi().embed().star()) == R3.psi()

    def test_float_divisor_refused(self):
        # a float used to divide silently by Fraction(0.1)
        gf = R3.phi()
        for bad in (0.1, 2.0):
            with pytest.raises(TypeError):
                gf * bad
            with pytest.raises(TypeError):
                gf / bad
        assert gf / 2 == F(1, 2) * gf
        assert gf / R3.table.sym("alpha") * R3.table.sym("alpha") == gf


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
        assert is_g2_form(RS.phi().embed(), RS.psi().embed())

    def test_star_roundtrip(self):
        assert RS.from_form(RS.phi().embed().star()) == RS.psi()


@pytest.mark.parametrize("ring, npairs", [(R3, 946), (RS, 84)],
                         ids=["3ad", "su3"])
def test_mono_mul_matches_embedding(ring, npairs):
    """Each hand-written mono_mul rule agrees with the wedge of the coframe
    embeddings on every monomial pair of total degree at most 7; since the
    embedding is injective in every degree, this pins the rules."""
    for k in range(8):
        monos = ring.monomials(k)
        basis = basis_multi_indices(7, k)
        assert rank(coefficient_matrix([ring.mono_embed(m) for m in monos],
                                       basis)) == len(monos)
    pairs = [(m1, m2) for k1 in range(8) for k2 in range(8 - k1)
             for m1 in ring.monomials(k1) for m2 in ring.monomials(k2)]
    assert len(pairs) == npairs
    zero = ring.coframe.zero()
    for m1, m2 in pairs:
        mono, c = ring.mono_mul(m1, m2)
        got = zero if mono is None else c * ring.mono_embed(mono)
        assert got == ring.mono_embed(m1) ^ ring.mono_embed(m2), (m1, m2)


@pytest.mark.parametrize("ring", [R3, RS], ids=["3ad", "su3"])
def test_factors_multiply_to_the_monomial(ring):
    """The derived d and embedding read each monomial as the product of its
    generator factors, in order, with coefficient 1."""
    for k in range(8):
        for m in ring.monomials(k):
            product = ring.one()
            for key in ring.factors(m):
                product = product.wedge(ring.gens[key].form)
            assert product == ring.genform({m: 1}), m


def test_su3_construction_refuses_a_wrong_eta_om_sign():
    # -2 in place of -1 where eta crosses Om used to leave the su3 report
    # byte-identical: the relation lists compared coframe forms only
    class EtaCrossesOmTwice(RingSU3):
        def mono_mul(self, m1, m2):
            mono, c = super().mono_mul(m1, m2)
            return mono, 2 * c if m2[0] and m1[2] else c
    with pytest.raises(AlgebraError, match=r"Om\+ \^ eta disagrees"):
        EtaCrossesOmTwice(make_table("su3"))


@pytest.mark.parametrize("i, j, c, match", [
    (1, 2, 1, r"d\^2 != 0"),
    (2, 2, 2, r"Phi2 \^ Phi2 disagrees"),
], ids=["Phi1-Phi2-nonzero", "Phi2-squared-doubled"])
def test_3ad_construction_refuses_a_wrong_phi_product(i, j, c, match):
    # Phi_i ^ Phi_j = c Phi_1^2, breaking Phi_1 ^ Phi_2 = 0 or
    # Phi_2^2 = Phi_1^2
    class WrongPhiProduct(Ring3ad):
        def mono_mul(self, m1, m2):
            if (m1, m2) == (((), (i,)), ((), (j,))):
                return ((), (1, 1)), c
            return super().mono_mul(m1, m2)
    with pytest.raises(AlgebraError, match=match):
        WrongPhiProduct(make_table("3ad"))


class DoubledOm(RingSU3):
    """Om+ and Om- doubled in the frame and in the generator table, with the
    product rule that mirrors it: Om+ ^ Om- = (8/3) Phi^3."""

    OM_PAIR = F(8, 3)

    def _setup(self):
        rows = super()._setup()
        oms = (self.Om("+"), self.Om("-"))
        self.frame.update({k: 2 * self.frame[k] for k in ("Om+", "Om-")})
        return [(g, 2 * cf if g in oms else cf, d) for g, cf, d in rows]


def test_su3_normalization_catches_what_construction_accepts():
    # the mirrored error passes ring construction (d^2 = 0 and every product
    # embeds as the coframe wedge); the normalization record fails on it,
    # and the pointwise G2 check with it.  Without OM_PAIR = 8/3 the ring
    # itself refuses the doubled Om.
    ids = ("su3.structure.normalization", "su3.g2.pointwise")
    assert statuses(suites.SuiteSU3, "r", lambda r: r, ids) \
        == dict.fromkeys(ids, "pass")
    assert statuses(suites.SuiteSU3, "r",
                    lambda _: DoubledOm(make_table("su3")), ids) \
        == dict.fromkeys(ids, "fail")


def test_ring_d_matches_the_lie_algebra_d():
    """At (alpha, delta) = (1, 0) the ring's structure equations and the
    nilpotent Lie algebra's de-table give one d on every ring monomial."""
    model = heisenberg_model()
    cf = model.coframe
    monos = [m for k in range(8) for m in R3.monomials(k)]
    assert len(monos) == 40
    for m in monos:
        gf = R3.genform({m: 1})
        ring_d = cf.form({k: v.subs({"alpha": 1, "delta": 0}).as_rat()
                          for k, v in gf.d().embed().terms.items()})
        embedded = cf.form({k: v.as_rat()
                            for k, v in gf.embed().terms.items()})
        assert ring_d == d_form(model, embedded), m


@pytest.fixture(scope="module")
def tc_3ad():
    phi, psi = R3.phi(), R3.psi()
    return torsion_classes(phi.embed(), psi.embed(),
                           phi.d().embed(), psi.d().embed())


@pytest.fixture(scope="module")
def tc_su3():
    phi, psi = RS.phi(), RS.psi()
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


class TestProjection:
    """The closed-form projection against the full linear solve, and the
    type conditions that make it an exact extraction."""

    @pytest.mark.parametrize("geometry", ["3ad", "su3"])
    def test_inconsistent_dphi_raises(self, geometry):
        phi, psi, dphi, dpsi = structure_inputs(geometry)
        extra = 3 * (phi.space.e(1) ^ phi)
        with pytest.raises(ExtractionError) as err:
            torsion_classes(phi, psi, dphi + extra, dpsi)
        assert str(err.value) == ("torsion classes fail the type condition: "
                                  "tau3^phi != 0")
        # the evidence is the failing form: tau3 picks up *(3 e1^phi)
        assert err.value.residual == extra.star() ^ phi
        assert not err.value.residual.is_zero

    @pytest.mark.parametrize("geometry", ["3ad", "su3"])
    def test_inconsistent_dpsi_raises(self, geometry):
        phi, psi, dphi, dpsi = structure_inputs(geometry)
        with pytest.raises(ExtractionError, match=r"tau3\^phi != 0"):
            torsion_classes(phi, psi, dphi,
                            dpsi + 4 * (phi.space.e(2) ^ psi))

    @pytest.mark.parametrize("geometry", ["3ad", "su3"])
    def test_consistent_shift_gives_tau1(self, geometry):
        phi, psi, dphi, dpsi = structure_inputs(geometry)
        e1 = phi.space.e(1)
        base = torsion_classes(phi, psi, dphi, dpsi)
        tc = torsion_classes(phi, psi, dphi + 3 * (e1 ^ phi),
                             dpsi + 4 * (e1 ^ psi))
        assert tc.tau1 == e1 and base.tau1.is_zero
        assert (tc.tau0, tc.tau2, tc.tau3) == (base.tau0, base.tau2,
                                               base.tau3)

    def test_psi_must_be_star_phi(self):
        phi, psi, dphi, dpsi = structure_inputs("3ad")
        bad_psi = psi + phi.space.e(1, 2, 3, 4)
        assert is_g2_form(phi, bad_psi)  # phi ^ e1234 = 0, same metric
        with pytest.raises(ExtractionError, match="not pointwise G2"):
            torsion_classes(phi, bad_psi, dphi, dpsi)

    def test_wrong_degree_rejected(self):
        phi, psi, dphi, dpsi = structure_inputs("3ad")
        with pytest.raises(ExtractionError, match="d phi is not a 4-form"):
            torsion_classes(phi, psi, dphi + phi, dpsi)

    def test_reference_3ad(self, tc_3ad):
        assert same_classes(tc_3ad,
                            reference_torsion_classes(*structure_inputs("3ad")))

    @pytest.mark.parametrize("s,c", CIRCLE_POINTS)
    def test_reference_su3_circle_points(self, tc_su3, s, c):
        inputs = [at_circle_point(f, s, c) for f in structure_inputs("su3")]
        ref = reference_torsion_classes(*inputs)
        assert same_classes(torsion_classes(*inputs), ref)
        sub = {"s": RS.table.rat(s), "c": RS.table.rat(c)}
        assert ref.tau0 == tc_su3.tau0.subs(sub)
        assert ref.tau3 == at_circle_point(tc_su3.tau3, s, c)

    def test_reference_heisenberg(self):
        model = heisenberg_model()
        phi = get_ring("3ad").phi().embed()
        psi = phi.star()
        inputs = (phi, psi, d_form(model, phi), d_form(model, psi))
        assert same_classes(torsion_classes(*inputs),
                            reference_torsion_classes(*inputs))

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_reference_aux_structures(self, i):
        inputs = aux_inputs(i)
        assert same_classes(torsion_classes(*inputs),
                            reference_torsion_classes(*inputs))

    @pytest.mark.parametrize("point", [None, (F(3, 5), F(4, 5))])
    def test_all_four_classes_recovered(self, point):
        """A synthetic d phi, d psi with every class nonzero and symbolic."""
        phi, psi, _, _ = structure_inputs("3ad" if point is None else "su3")
        if point is not None:
            phi, psi = at_circle_point(phi, *point), at_circle_point(psi, *point)
        cf = phi.space
        al, de = cf.table.sym("alpha"), cf.table.sym("delta")
        b2, b3 = basis_multi_indices(7, 2), basis_multi_indices(7, 3)
        b6, b7 = basis_multi_indices(7, 6), basis_multi_indices(7, 7)
        lam2_14 = lambda214_double_characterization(phi, psi)[0]
        rows = [[(cf.e(*g) ^ phi).coefficient(t).as_fraction() for g in b3]
                for t in b6]
        rows += [[(cf.e(*g) ^ psi).coefficient(t).as_fraction() for g in b3]
                 for t in b7]
        lam3_27 = nullspace(rows)
        assert (len(lam2_14), len(lam3_27)) == (14, 27)
        tau0 = 2 * al - de
        tau1 = cf.e(1) + de * cf.e(5)
        tau2 = (al * cf.form(dict(zip(b2, lam2_14[0])))
                + cf.form(dict(zip(b2, lam2_14[9]))))
        tau3 = (de * cf.form(dict(zip(b3, lam3_27[2])))
                - 3 * cf.form(dict(zip(b3, lam3_27[20]))))
        dphi = tau0 * psi + 3 * (tau1 ^ phi) + tau3.star()
        dpsi = 4 * (tau1 ^ psi) + tau2.star()
        tc = torsion_classes(phi, psi, dphi, dpsi)
        assert same_classes(tc, TorsionClasses(tau0, tau1, tau2, tau3))
        assert same_classes(tc, reference_torsion_classes(phi, psi, dphi,
                                                          dpsi))

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_gram_matrix(self, perturbed):
        phi = RS.phi().embed()
        cf = phi.space
        if perturbed:  # not G2: a full, symbolic Gram matrix
            phi = phi + cf.table.sym("alpha") * cf.e(1, 4, 5) \
                - 2 * cf.e(2, 3, 7)
        g = gram_matrix(phi)
        for x in cf.indices:
            for y in cf.indices:
                w = phi.contract(x) ^ phi.contract(y) ^ phi
                assert g[x - 1][y - 1] == w.coefficient(cf.indices) / 6
                assert g[x - 1][y - 1] == g[y - 1][x - 1]
        off = [g[x][y] for x in range(7) for y in range(7) if x != y]
        assert any(not v.is_zero for v in off) == perturbed


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
        assert tc.tau3.inner(RS.phi().embed()).is_zero

    def test_quoted_sign_variant_is_not_orthogonal(self):
        t = RS.table
        al, de = t.sym("alpha"), t.sym("delta")
        s, c = t.sym("s"), t.sym("c")
        quoted = F(4, 7) * (al - de) * (
            4 * RS.eta().wedge(RS.Phi())
            - 3 * (s * RS.Om("+") + c * RS.Om("-"))).embed()
        val = quoted.inner(RS.phi().embed())
        assert not val.is_zero

    def test_characteristic_torsion_branch_values(self, tc):
        t = RS.table
        al = t.sym("alpha")
        tcf = characteristic_torsion(tc, RS.phi().embed(),
                                     RS.psi().embed())
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
        tc = torsion_classes(*aux_inputs(1))
        assert tc.tau1.is_zero and tc.tau2.is_zero
        sub = {"delta": t.sym("alpha")}
        assert all(v.subs(sub).is_zero for v in tc.tau3.terms.values())
        assert not tc.tau3.is_zero

    def test_forms_of_different_rings_do_not_mix(self):
        # both rings over one table: only the space tells them apart
        t = make_table("su3")
        r3, rs = Ring3ad(t), RingSU3(t)
        with pytest.raises(AlgebraError):
            r3.eta(1) + rs.eta()
        with pytest.raises(AlgebraError):
            r3.Phi(1).wedge(rs.eta())
        with pytest.raises(AlgebraError):
            r3.eta(1) + r3.eta(1).embed()

    @pytest.mark.parametrize("method,call", [
        ("coefficient", lambda f: f.coefficient(next(iter(f.terms)))),
        ("star", lambda f: f.star()),
        ("contract", lambda f: f.contract(1)),
        ("inner", lambda f: f.inner(f)),
    ])
    @pytest.mark.parametrize("ring", [R3, RS])
    def test_coframe_methods_refuse_ring_forms(self, ring, method, call):
        # a ring monomial is not a multi-index: these used to read it as one
        # (coefficient returned 0, star raised AttributeError)
        with pytest.raises(AlgebraError, match=method):
            call(ring.phi())
        # the same methods on the embedded coframe form still work
        call(ring.phi().embed())

    def test_homogeneous_part_of_genform(self):
        mixed = R3.eta(1) + R3.phi()
        assert mixed.homogeneous_part(3) == R3.phi()
        assert mixed.homogeneous_part(1) == R3.eta(1)

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
