import itertools
import random
from fractions import Fraction as F

import pytest

import dense_clifford as dc
from hetg2 import spinor as sp
from hetg2 import suites
from hetg2.exterior import Coframe
from hetg2.scalar import AlgebraError, SymbolTable
from hetg2.structures import (RingSU3, get_ring, make_table,
                              sp1_frame_forms, su3_frame_forms)
from test_curvature import (doubled, failed, named_failures, records,
                            statuses, with_leg)

REP = sp.build_rep(3)
TAB = SymbolTable(("alpha", "delta"))
CF = Coframe(TAB, 7)


def shifted_rep():
    """The m = 3 representation in the basis relabelled by a cyclic shift."""
    shift = tuple(tuple(sp.GQ(int(j == (i + 1) % 8)) for j in range(8))
                  for i in range(8))
    return sp.CliffordRep(3, tuple(
        dc.word_of(dc.matmul(dc.matmul(shift, x), dc.transpose(shift)))
        for x in dc.generators(3)))


class TestRep:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_construction_checks(self, m):
        rep = sp.build_rep(m)  # relations verified at construction
        assert rep.dim == 2 ** m

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_relations_predicate(self, m):
        rep = sp.build_rep(m)
        assert sp.clifford_relations_hold(rep)
        g = rep.words
        times_i = (g[0][0], tuple((k + 1) % 4 for k in g[0][1]))
        negated = (g[0][0], tuple((k + 2) % 4 for k in g[0][1]))
        # i e_1 breaks e_1^2 = -1; a repeated generator breaks
        # e_1 e_2 + e_2 e_1 = 0; a negated one keeps the anticommutators
        # but flips the volume scalar
        for words in ((times_i,) + g[1:], (g[1],) + g[1:],
                      (negated,) + g[1:]):
            bad = sp.CliffordRep(rep.m, words)
            assert not sp.clifford_relations_hold(bad)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_volume_scalar(self, m):
        rep = sp.build_rep(m)
        assert sp.volume_action(rep) == sp._minus_i_pow(m + 1) * sp.GQ(-1)

    def test_e1_action(self):
        for eps in ((1, 1, 1), (1, -1, 1), (-1, -1, -1), (1, 1, -1)):
            u = sp.u_spinor(REP, eps)
            prod = eps[0] * eps[1] * eps[2]
            assert sp.word_apply(REP.words[0], u) \
                == sp.vec_scale(u, sp.GQ(0, -prod))

    def test_skew_adjointness(self):
        u1 = sp.u_spinor(REP, (1, 1, 1))
        u2 = sp.u_spinor(REP, (1, -1, 1))
        for mu in range(7):
            assert sp.herm(sp.word_apply(REP.words[mu], u1), u2) \
                == -sp.herm(u1, sp.word_apply(REP.words[mu], u2))

    def test_basis_orthogonal_and_conjugation(self):
        eps_list = [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (1, 1, -1)]
        for a in eps_list:
            for b in eps_list:
                h = sp.herm(sp.u_spinor(REP, a), sp.u_spinor(REP, b))
                assert h.is_zero if a != b else not h.is_zero
        assert sp.vec_conj(sp.u_spinor(REP, (1, -1, 1))) \
            == sp.u_spinor(REP, (-1, 1, -1))


def _dense_herm(x, y):
    return sum((a.conj() * b for a, b in zip(x, y)), sp.GQ(0))


def _random_gq_matrix(rng, rows, cols, zero_row=None, zero_col=None):
    """About half the entries zero; the named row and column all zero."""
    def entry(i, j):
        if i == zero_row or j == zero_col or rng.random() < 0.5:
            return sp.GQ(0)
        return sp.GQ(F(rng.randint(-5, 5), rng.randint(1, 4)),
                     F(rng.randint(-5, 5), rng.randint(1, 4)))
    return tuple(tuple(entry(i, j) for j in range(cols)) for i in range(rows))


class TestSparseKernels:
    """The sparse-row kernels agree with the dense products exactly."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matmul_matvec_herm_random(self, seed):
        rng = random.Random(seed)
        a = _random_gq_matrix(rng, 5, 6, zero_row=2)
        b = _random_gq_matrix(rng, 6, 4, zero_col=1)
        prod = sp.matmul(dc.rows_of(a), dc.rows_of(b))
        assert prod == dc.rows_of(dc.matmul(a, b))
        assert prod[2] == {}
        assert all(1 not in row for row in prod)
        for col in range(4):
            v = tuple(row[col] for row in b)
            assert sp.rows_apply(dc.rows_of(a), v) == dc.matvec(a, v)
        c = sp.GQ(F(2, 3), -1)
        assert sp.rows_scale(dc.rows_of(a), c) \
            == dc.rows_of(dc.mat_scale(a, c))
        x, y = a[0], a[1]
        assert sp.herm(x, y) == _dense_herm(x, y)
        assert sp.herm(a[2], y) == sp.GQ(0)

    def test_zero_operands(self):
        z = tuple(tuple(sp.GQ(0) for _ in range(3)) for _ in range(3))
        a = _random_gq_matrix(random.Random(9), 3, 3)
        zr, ar = dc.rows_of(z), dc.rows_of(a)
        assert zr == [{}, {}, {}]
        assert sp.matmul(zr, ar) == zr and sp.matmul(ar, zr) == zr
        assert sp.rows_scale(ar, 0) == zr
        assert sp.rows_apply(ar, z[0]) == z[0]
        assert sp.herm(z[0], a[0]) == sp.GQ(0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_word_herm_matches_dense(self, seed):
        # herm(x, W y) read off the word equals the hermitian product with
        # the dense product W y, for words of length 0 to 3
        rng = random.Random(seed)
        g = dc.generators(3)
        x, y = _random_gq_matrix(rng, 2, REP.dim)
        for length in range(4):
            for idx in itertools.combinations(range(1, 8), length):
                w = REP.word(idx)
                assert sp.word_herm(x, w, y) \
                    == _dense_herm(x, dc.matvec(dc.chain(g, idx), y)), idx
        assert sp.herm(x, y) == _dense_herm(x, y)

    def test_generator_products(self):
        g, w = dc.generators(3), REP.words
        rows = [sp.word_rows([(1, x)], REP.dim) for x in w]
        for mu in range(7):
            for nu in range(7):
                assert sp.matmul(rows[mu], rows[nu]) \
                    == dc.rows_of(dc.matmul(g[mu], g[nu]))
        u = sp.u_spinor(REP, (1, -1, 1))
        dense = dc.matmul(dc.matmul(g[1], g[4]), g[6])
        word = sp.matmul(sp.matmul(rows[1], rows[4]), rows[6])
        assert sp.rows_apply(word, u) == dc.matvec(dense, u)
        assert sp.herm(u, sp.rows_apply(word, u)) \
            == _dense_herm(u, dc.matvec(dense, u))

    def test_gq_keeps_fraction_arguments(self):
        # parts are exact: int when integral, Fraction otherwise, never float
        q = F(1, 3)
        x = sp.GQ(q, 2)
        assert type(x.re) is F and x.re == q
        assert type(x.im) is int and x.im == 2
        y = sp.GQ(F(4, 2), F(-3))
        assert (type(y.re), type(y.im)) == (int, int) and (y.re, y.im) == (2, -3)
        z = sp.GQ(1) / sp.GQ(0, 2)
        assert type(z.re) is int and z.re == 0
        assert type(z.im) is F and z.im == F(-1, 2)
        w = sp.GQ(2, 4) / 2
        assert (type(w.re), type(w.im)) == (int, int) and w == sp.GQ(1, 2)
        assert type((sp.GQ(F(1, 2)) * 2).re) is int
        for bad in ((0.5, 0), (1, 2.0)):
            with pytest.raises(TypeError):
                sp.GQ(*bad)

    def test_rep_is_cached_and_frozen(self):
        assert sp.build_rep(3) is sp.build_rep(3)
        with pytest.raises(AttributeError):
            sp.build_rep(3).words = ()
        assert len(sp.build_rep(3).words) == 7


def _dense_form_matrix(rep, form):
    """Clifford action of a form as a sum of scaled dense chains."""
    gens = dc.generators(rep.m)
    out = dc.mat_scale(dc.eye(rep.dim), sp.GQ(0))
    for idx, c in form.terms.items():
        out = dc.mat_add(out, dc.mat_scale(dc.chain(gens, idx),
                                           sp.GQ(c.as_fraction())))
    return out


def _fraction_projectors(rep, phi_form):
    """Eigenprojectors as the product of Fraction-scaled factors
    (A - e_s) / (e_r - e_s), each factor divided before multiplying."""
    m, n = rep.m, rep.dim
    a = _dense_form_matrix(rep, phi_form)
    eigs = [sp.GQ(0, -(2 * r - m)) for r in range(m + 1)]
    out = []
    for r in range(m + 1):
        p = dc.eye(n)
        for r2 in range(m + 1):
            if r2 != r:
                num = dc.mat_add(a, dc.mat_scale(dc.eye(n), -eigs[r2]))
                p = dc.matmul(p, dc.mat_scale(
                    num, sp.GQ(1) / (eigs[r] - eigs[r2])))
        out.append(p)
    return out


class TestWords:
    """Words (perm, phase) against the dense matrices they stand for."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_words_up_to_length_three(self, m):
        rep = sp.build_rep(m)
        gens = dc.generators(m)
        rng = random.Random(m)
        v = tuple(sp.GQ(F(rng.randint(-5, 5), rng.randint(1, 3)),
                        rng.randint(-5, 5)) for _ in range(rep.dim))
        for length in range(4):
            for idx in itertools.product(range(1, 2 * m + 2), repeat=length):
                w, dense = rep.word(idx), dc.chain(gens, idx)
                assert sp.word_apply(w, v) == dc.matvec(dense, v), idx
                assert sp.word_rows([(1, w)], rep.dim) \
                    == dc.rows_of(dense), idx
                assert dc.word_of(dense) == w

    def test_form_matrices_match_dense_chains(self):
        f = su3_frame_forms(CF)
        for form in (f["Om+"], f["Om-"], sp.sigma_fundamental_form(CF, 3),
                     F(1, 3) * f["Om+"] - sp.sigma_fundamental_form(CF, 3)):
            assert REP.form_matrix(form) \
                == dc.rows_of(_dense_form_matrix(REP, form))

    @pytest.mark.parametrize("m", [2, 3])
    def test_projectors_match_fraction_product(self, m):
        rep = sp.build_rep(m)
        form = sp.sigma_fundamental_form(Coframe(TAB, 2 * m + 1), m)
        dec = sp.sigma_decompose(rep, form)
        assert len(dec.projectors) == m + 1
        assert dec.projectors \
            == [dc.rows_of(p) for p in _fraction_projectors(rep, form)]

    def test_monomial_word_refuses_other_matrices(self):
        # the dense reference reads words only off monomial matrices
        g = dc.generators(3)
        for bad in (dc.mat_scale(g[0], sp.GQ(2)),
                    dc.mat_scale(g[0], sp.GQ(3, 4) / 5),
                    dc.mat_add(g[0], g[1]), dc.mat_scale(g[0], sp.GQ(0))):
            with pytest.raises(ValueError):
                dc.word_of(bad)


class TestSigma:
    def test_decomposition(self):
        dec = sp.sigma_decompose(REP, sp.sigma_fundamental_form(CF, 3))
        assert dec.dims == [1, 3, 3, 1]

    def test_decomposition_m2(self):
        rep2 = sp.build_rep(2)
        cf5 = Coframe(TAB, 5)
        dec = sp.sigma_decompose(rep2, sp.sigma_fundamental_form(cf5, 2))
        assert dec.dims == [1, 2, 1]

    def test_wrong_inputs_refused(self):
        # 2 phi has eigenvalues -2i(2r - 3); -phi swaps Sigma_r with
        # Sigma_{3-r}, against the Reeb signs
        phi = sp.sigma_fundamental_form(CF, 3)
        for form, match in ((2 * phi, "eigenvalue check"),
                            (-phi, "Reeb eigenvalue")):
            with pytest.raises(AlgebraError, match=match):
                sp.sigma_decompose(REP, form)

    @pytest.mark.parametrize("r", [0, 2])
    def test_eigenvalue_check_rejects_a_perturbed_numerator(self, monkeypatch,
                                                            r):
        # (A - e_r) N_r = 0 is the check that makes the P_r eigenprojectors;
        # adding 1 to one entry of N_r must break it
        numerators = sp.lagrange_numerators

        def perturbed(factors):
            out = numerators(factors)
            row = dict(out[r][0])
            row[0] = row.get(0, sp.GQ(0)) + 1
            out[r] = [row, *out[r][1:]]
            return out
        monkeypatch.setattr(sp, "lagrange_numerators", perturbed)
        with pytest.raises(AlgebraError,
                           match=f"eigenvalue check fails on Sigma_{r}"):
            sp.sigma_decompose(REP, sp.sigma_fundamental_form(CF, 3))

    def test_membership(self):
        triples = sp.sigma_membership(REP, sp.sigma_fundamental_form(CF, 3))
        assert len(triples) == 2 and failed(triples) == []
        # -phi swaps the extreme eigenspaces
        assert failed(sp.sigma_membership(
            REP, -sp.sigma_fundamental_form(CF, 3))) \
            == ["Psi lies in the lowest eigenspace",
                "Psi-bar lies in the highest eigenspace"]

    def test_sigma0_identity(self):
        psi = sp.canonical_su3_spinor(REP)
        m = REP.form_matrix(sp.sigma_fundamental_form(CF, 3))
        assert sp.rows_apply(m, psi) \
            == sp.vec_scale(sp.word_apply(REP.words[0], psi), sp.GQ(-3))


class TestOmegaAction:
    def test_plus_constants(self):
        f = su3_frame_forms(CF)
        psi = sp.canonical_su3_spinor(REP)
        bar = sp.vec_conj(psi)
        mp = REP.form_matrix(f["Om+"])
        assert sp.rows_apply(mp, psi) == sp.vec_scale(bar, sp.GQ(0, -4))
        assert sp.rows_apply(mp, bar) == sp.vec_scale(psi, sp.GQ(0, 4))

    def test_middle_annihilated(self):
        f = su3_frame_forms(CF)
        mp = REP.form_matrix(f["Om+"])
        mm = REP.form_matrix(f["Om-"])
        for eps in ((1, 1, -1), (1, -1, 1), (-1, 1, 1),
                    (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
            u = sp.u_spinor(REP, eps)
            assert all(x.is_zero for x in sp.rows_apply(mp, u))
            assert all(x.is_zero for x in sp.rows_apply(mm, u))

    def test_triples(self):
        f = su3_frame_forms(CF)
        assert failed(sp.su3_omega_action(REP, f["Om+"], f["Om-"])) == []
        # Om- in place of Om+ breaks the constants, not the middle
        assert failed(sp.su3_omega_action(REP, f["Om-"], f["Om-"])) \
            == ["Om+ Psi = -4i Psi-bar", "Om+ Psi-bar = 4i Psi"]

    def test_minus_constants_with_recorded_sign(self):
        f = su3_frame_forms(CF)
        psi = sp.canonical_su3_spinor(REP)
        bar = sp.vec_conj(psi)
        mm = REP.form_matrix(f["Om-"])
        assert sp.rows_apply(mm, psi) == sp.vec_scale(bar, sp.GQ(4))
        assert sp.rows_apply(mm, bar) == sp.vec_scale(psi, sp.GQ(4))


class TestReconstruction:
    def test_su3_forms(self):
        f = su3_frame_forms(CF)
        psi = sp.canonical_su3_spinor(REP)
        assert sp.form_from_spinor(REP, psi, 1, CF) == CF.e(1)
        assert sp.form_from_spinor(REP, psi, 2, CF) == f["Phi"]
        op, om = sp.holomorphic_volume_from_spinor(REP, psi, CF)
        assert op == f["Om+"] and om == f["Om-"]

    def test_scale_invariance(self):
        psi = sp.vec_scale(sp.canonical_su3_spinor(REP), sp.GQ(3, 1))
        assert sp.form_from_spinor(REP, psi, 1, CF) == CF.e(1)

    def test_zero_spinor_rejected(self):
        with pytest.raises(AlgebraError):
            sp.form_from_spinor(REP, (sp.GQ(0),) * 8, 3, CF)

    def test_canonical_g2_pair(self):
        frame = sp1_frame_forms(CF)
        phi = CF.e(1, 2, 3)
        for i in (1, 2, 3):
            phi = phi + (frame["eta"][i] ^ frame["PhiH"][i])
        psi0 = sp.sp1_spinors(REP)[0]
        assert sp.form_from_spinor(REP, psi0, 3, CF) == phi
        assert sp.form_from_spinor(REP, psi0, 4, CF) == phi.star()

    def test_family(self):
        rs = RingSU3(make_table("su3"))
        psi = sp.canonical_su3_spinor(REP)
        bar = sp.vec_conj(psi)
        plus = sp.vec_add(psi, bar)
        minus = sp.vec_scale(sp.vec_add(psi, sp.vec_scale(bar, -1)), -sp.I)
        fam3 = sp.majorana_family_form(REP, plus, minus, 3, rs.coframe)
        fam4 = sp.majorana_family_form(REP, plus, minus, 4, rs.coframe)
        assert fam3 == rs.phi().embed()
        assert fam4 == rs.psi().embed()
        sub = {"s": F(3, 5), "c": F(4, 5)}
        lhs = {k: v.subs(sub) for k, v in fam3.terms.items()}
        rhs = {k: v.subs(sub)
               for k, v in rs.phi().embed().terms.items()}
        assert lhs == rhs

    def test_stabilizer_dimension(self):
        v1 = sp.majorana_v_basis(REP)[0]
        phi = sp.form_from_spinor(REP, v1, 3, CF)
        assert sp.stabilizer_dimension(phi) == 14
        psi0 = sp.sp1_spinors(REP)[0]
        assert sp.stabilizer_dimension(
            sp.form_from_spinor(REP, psi0, 3, CF)) == 14


class TestPurity:
    def test_pure_canonical(self):
        assert sp.purity_dim(REP, sp.u_spinor(REP, (1, 1, 1))) == 3
        assert sp.purity_dim(REP, sp.vec_conj(sp.u_spinor(REP, (1, 1, 1)))) \
            == 3

    def test_non_pure_witness(self):
        mix = sp.vec_add(sp.u_spinor(REP, (1, 1, 1)),
                         sp.u_spinor(REP, (-1, -1, -1)))
        assert sp.purity_dim(REP, mix) < 3

    def test_m1_everything_pure(self):
        rep1 = sp.build_rep(1)
        for v in (sp.u_spinor(rep1, (1,)), sp.u_spinor(rep1, (-1,)),
                  sp.vec_add(sp.u_spinor(rep1, (1,)),
                             sp.vec_scale(sp.u_spinor(rep1, (-1,)),
                                          sp.GQ(2, 3)))):
            assert sp.purity_dim(rep1, v) == 1


@pytest.fixture(scope="module")
def sp1_checks():
    frame = sp1_frame_forms(CF)
    frame["sigma_form"] = sp.sigma_fundamental_form(CF, 3)
    return sp.sp1_spinor_suite(REP, frame)


class TestSp1Suite:
    @pytest.fixture
    def checks(self, sp1_checks):
        return sp1_checks

    def test_all_hold(self, checks):
        assert len(checks) == 28
        assert all(suites.sign(lhs, rhs) for _, lhs, rhs in checks)

    def test_recorded_sign_table(self, checks):
        flips = sorted(name for name, lhs, rhs in checks
                       if suites.sign(lhs, rhs) == -1)
        assert flips == ["psi0 = -xi3 psi3", "xi3 psi0 = psi3",
                         "xi3 psi1 = psi2"]

    def test_membership_and_quoted_signs(self, checks):
        quoted = [(lhs, rhs) for name, lhs, rhs in checks
                  if name.startswith("Phi") or " in E" in name]
        assert len(quoted) == 19
        assert all(suites.sign(lhs, rhs) == 1 for lhs, rhs in quoted)

    def test_sigma_form_required(self):
        with pytest.raises(KeyError):
            sp.sp1_spinor_suite(REP, sp1_frame_forms(CF))

    def test_plus_minus(self):
        frame = sp1_frame_forms(CF)
        pm = sp.plus_minus_relations(REP, frame)
        assert len(pm) == 3
        assert all(suites.sign(lhs, rhs) == 1 for _, lhs, rhs in pm)

    def test_negated_phi_breaks_the_contraction_legs(self):
        # the spinor-side phi(X) is X -| Phi: with every Phi_i negated, the
        # legs that read phi(X) fail, and the sp1 legs that act by the form
        # itself only flip sign, so the membership legs alone fail at both
        frame = sp1_frame_forms(CF)
        neg = {**frame, "Phi": {i: -f for i, f in frame["Phi"].items()}}
        assert failed(sp.plus_minus_relations(REP, neg)) \
            == ["X Psi+ = phi(X) Psi-", "xi X Psi+ = phi(X) Psi+"]
        neg["sigma_form"] = sp.sigma_fundamental_form(CF, 3)
        assert [name for name, lhs, rhs in sp.sp1_spinor_suite(REP, neg)
                if suites.sign(lhs, rhs) == 0] \
            == [f"psi{i} in E{j}" for i in (1, 2, 3) for j in (1, 2, 3)
                if i != j]

    def test_all_majorana(self):
        for v in sp.sp1_spinors(REP).values():
            assert sp.j_real_structure(REP, v) == v

    def test_majorana_pair_is_psi2_psi3(self):
        psi = sp.sp1_spinors(REP)
        assert sp.majorana_pair(REP) == (psi[2], psi[3])


class TestRealStructure:
    def test_charge_conjugation(self):
        c, g = dc.charge_conjugation(), dc.generators(3)
        assert dc.word_of(c) == sp.charge_conjugation(REP)
        assert dc.matmul(c, c) == dc.eye(8)
        assert c == dc.transpose(c) and all(x.im == 0 for r in c for x in r)
        for mu in range(7):
            assert dc.matmul(c, g[mu]) \
                == dc.mat_scale(dc.matmul(dc.transpose(g[mu]), c), -1)
        assert failed(sp.charge_conjugation_relations(REP)) == []
        # relabelling the basis by a cyclic shift keeps the relations but
        # not C rho = -rho^T C for the fixed C
        moved = shifted_rep()
        assert moved.words != REP.words
        assert sp.clifford_relations_hold(moved)
        assert failed(sp.charge_conjugation_relations(moved)) \
            == ["C rho(e_mu) = -rho(e_mu)^T C"]

    def test_charge_word_cached(self):
        # built once per representation, not on every j_real_structure call
        assert sp.charge_conjugation(REP) is sp.charge_conjugation(REP)

    def test_j_is_antilinear_involution(self):
        psi = sp.u_spinor(REP, (1, -1, 1))
        assert sp.j_real_structure(REP, sp.j_real_structure(REP, psi)) \
            == tuple(psi)
        scaled = sp.vec_scale(psi, sp.GQ(0, 1))
        assert sp.j_real_structure(REP, scaled) \
            == sp.vec_scale(sp.j_real_structure(REP, psi), sp.GQ(0, -1))

    def test_v_basis(self):
        vs = sp.majorana_v_basis(REP)
        assert all(sp.j_real_structure(REP, v) == v for v in vs)
        n = sp.herm(vs[0], vs[0])
        for i in range(8):
            assert sp.herm(vs[i], vs[i]) == n
            for j in range(i + 1, 8):
                assert sp.herm(vs[i], vs[j]).is_zero

    def test_real_rep_relations_and_dictionary(self):
        words = sp.real_rep7()
        assert len(words) == 7
        rr = [dc.dense_of(w) for w in words]
        assert all(x.im == 0 for r in rr for row in r for x in row)
        for mu in range(7):
            for nu in range(mu, 7):
                anti = dc.mat_add(dc.matmul(rr[mu], rr[nu]),
                                  dc.matmul(rr[nu], rr[mu]))
                want = -2 if mu == nu else 0
                assert anti == dc.mat_scale(dc.eye(8), sp.GQ(want))
        assert sp.clifford_relations_hold(sp.CliffordRep(3, words))
        assert sp.volume_action(sp.CliffordRep(3, words)) == -1
        vs = sp.majorana_v_basis(REP)
        for mu in range(7):
            for k in range(8):
                lhs = sp.word_apply(REP.words[mu], vs[k])
                rhs = (sp.GQ(0),) * 8
                for ell in range(8):
                    if not rr[mu][ell][k].is_zero:
                        rhs = sp.vec_add(rhs, sp.vec_scale(vs[ell],
                                                           rr[mu][ell][k]))
                assert lhs == rhs
        assert failed(sp.v_basis_dictionary(REP, words, vs)) == []


class TestRecordsReadTheirInputs:
    def test_dictionary_reads_the_real_words(self):
        def flipped(words):
            perm, phase = words[3]
            bad = (perm, ((phase[0] + 2) % 4,) + phase[1:])
            return words[:3] + (bad,) + words[4:]
        assert named_failures(suites.SuiteSpinor, "real", flipped,
                              "spinor.real.dictionary") \
            == ["rho(e4) acts on the v basis as real word 4"]

    def test_dictionary_reads_the_gram_matrix(self):
        # v2 + v1 in place of v2 breaks orthogonality (and, since only
        # multiples of the identity commute with the real representation,
        # every intertwining word); the Gram triple names it
        names = named_failures(suites.SuiteSpinor, "vs",
                               lambda vs: [vs[0], sp.vec_add(vs[0], vs[1]),
                                           *vs[2:]],
                               "spinor.real.dictionary")
        assert names == [f"rho(e{mu}) acts on the v basis as real word {mu}"
                         for mu in range(1, 8)] \
            + ["the v spinors are orthogonal with equal norms"]

    def test_charge_conjugation_reads_the_rep(self):
        assert named_failures(suites.SuiteSpinor, "rep",
                              lambda rep: shifted_rep(),
                              "spinor.real.charge-conjugation") \
            == ["C rho(e_mu) = -rho(e_mu)^T C"]

    def test_membership_reads_the_sigma_form(self):
        def moved(frame):
            return {**frame, "sigma_form": -frame["sigma_form"]}
        assert named_failures(suites.SuiteSpinor, "frame", moved,
                              "spinor.sigma.membership") \
            == ["Psi lies in the lowest eigenspace",
                "Psi-bar lies in the highest eigenspace"]

    def test_omega_action_reads_om_plus(self):
        def doubled_om(forms):
            return {**forms, "Om+": 2 * forms["Om+"]}
        assert named_failures(suites.SuiteSpinor, "su3f", doubled_om,
                              "spinor.omega.action") \
            == ["Om+ Psi = -4i Psi-bar", "Om+ Psi-bar = 4i Psi"]

    def test_family_reads_the_majorana_pair(self):
        ids = ("spinor.g2.family",)
        assert statuses(suites.SuiteSpinor, "pm", lambda pm: pm, ids) \
            == {"spinor.g2.family": "pass"}
        assert statuses(suites.SuiteSpinor, "pm",
                        lambda pm: (pm[0], sp.vec_scale(pm[1], -1)), ids) \
            == {"spinor.g2.family": "fail"}

    def test_su3_reconstruction_reads_psi(self):
        ids = ("spinor.su3.reconstruction",)
        other = sp.vec_scale(sp.u_spinor(REP, (1, 1, -1)), sp.GQ(1, 1))
        assert statuses(suites.SuiteSpinor, "Psi", lambda p: p, ids) \
            == {"spinor.su3.reconstruction": "pass"}
        assert statuses(suites.SuiteSpinor, "Psi", lambda p: other, ids) \
            == {"spinor.su3.reconstruction": "fail"}

    @pytest.mark.parametrize("name, check_id, leg", [
        ("sp1", "spinor.sp1.identities", "Phi2 psi0 = xi2 psi0"),
        ("sp1", "spinor.sp1.identities", "psi1 in E3"),
        ("pm_rel", "spinor.sp1.plus-minus", "X Psi+ = phi(X) Psi-"),
        ("killing", "spinor.killing.consequences",
         "metric dual of nabla xi = -phi(S) matches nabla eta = S -| Phi"),
    ], ids=["sp1-quoted", "sp1-membership", "plus-minus", "killing"])
    def test_a_perturbed_leg_fails_and_is_named(self, name, check_id, leg):
        def perturb(side):
            # a zero side (a membership leg) gains one nonzero entry
            if all(isinstance(x, sp.GQ) and x.is_zero for x in side):
                return (sp.GQ(1),) + side[1:]
            return doubled(side)
        kept = records(suites.SuiteSpinor, name, lambda t: t,
                       (check_id,))[check_id]
        assert kept.status == "pass" and "failed" not in kept.notes
        rec = records(suites.SuiteSpinor, name,
                      lambda t: with_leg(t, leg, perturb),
                      (check_id,))[check_id]
        assert rec.status == "fail"
        # the failing leg follows the record's notes
        assert rec.notes == "; ".join(
            filter(None, (kept.notes, "failed: " + leg)))

    @pytest.mark.parametrize("leg, flipped", [("xi1 psi0 = psi1", True),
                                              ("xi3 psi0 = psi3", False)],
                             ids=["quoted", "flipped"])
    def test_a_negated_sp1_leg_changes_the_flips(self, leg, flipped):
        def negated(triples):
            return with_leg(triples, leg, lambda v: sp.vec_scale(v, -1))
        rec = records(suites.SuiteSpinor, "sp1", negated,
                      ("spinor.sp1.identities",))["spinor.sp1.identities"]
        # every leg still holds at some sign, but the flip set moved
        assert rec.status == "fail" and "failed" not in rec.notes
        assert (leg in rec.notes.split(" (forced")[0]) == flipped


def test_killing_consequences():
    cons = sp.su3_killing_consequences(get_ring("su3"))
    assert len(cons) == 5
    assert all(suites.sign(lhs, rhs) == 1 for _, lhs, rhs in cons)


class TestDomains:
    def test_times_i_pow_refuses_unreduced_phase(self):
        one = sp.GQ(1)
        assert [sp.times_i_pow(one, k) for k in range(4)] \
            == [one, sp.GQ(0, 1), sp.GQ(-1), sp.GQ(0, -1)]
        # a phase 4 used to act as 3, giving -i
        for k in (4, -1, 7):
            with pytest.raises(AlgebraError):
                sp.times_i_pow(one, k)
        with pytest.raises(AlgebraError):
            sp.word_apply(((0,), (4,)), (one,))

    def test_rep_refuses_unreduced_phases(self):
        # build_rep(1)'s words with 4 added to every phase used to pass
        # clifford_relations_hold while word_apply refused them
        words = tuple((perm, tuple(k + 4 for k in phase))
                      for perm, phase in sp.build_rep(1).words)
        with pytest.raises(AlgebraError, match="reduced to 0..3"):
            sp.CliffordRep(1, words)

    def test_u_spinor_refuses_signs_other_than_one(self):
        # u(2, 1, -1) used to be u(-1, 1, -1)
        for eps in ((2, 1, -1), (0, 1, 1), (1, 1, -3)):
            with pytest.raises(AlgebraError):
                sp.u_spinor(REP, eps)
        assert sp.u_spinor(REP, (-1, 1, -1)) \
            == sp.vec_conj(sp.u_spinor(REP, (1, -1, 1)))


def test_registry_labels():
    reg = sp.spinor_registry()
    assert "psi0.sp1" in reg and "u(1,1,1)" in reg and "v1" in reg
    # each label maps to a builder of the spinor it names
    assert reg["u(1,-1,1)"]() == sp.u_spinor(REP, (1, -1, 1))
    assert reg["v8"]() == sp.majorana_v_basis(REP)[7]
    assert reg["psi2.sp1"]() == sp.sp1_spinors(REP)[2]
    assert reg["Psi.su3"]() == sp.canonical_su3_spinor(REP)
