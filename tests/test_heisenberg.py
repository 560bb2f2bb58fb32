import random
from fractions import Fraction as F

import pytest

from hetg2 import heisenberg as hb
from hetg2 import spinor as sp
from hetg2 import suites
from hetg2.curvature import contorsion
from hetg2.scalar import AlgebraError
from hetg2.structures import (CYCLIC, get_ring, sp1_frame_forms,
                              torsion_classes)
from test_curvature import (doubled, failed, holding, named_failures,
                            records, statuses, with_leg, with_result)

MODEL = hb.heisenberg_model()
CF = MODEL.coframe
FRAME = sp1_frame_forms(CF)
TORSION = "T(X; Y, Z) is the declared torsion"
INSTANTON = "R^0 ^ psi = 0 and R^4 ^ psi = 0"
FLAT = "R^4 = 0: the parallel family is flat"
TAU = "tau0 = 24/7 and tau1 = tau2 = 0"
PARALLEL = "nabla_X T = 0 for every frame vector X"


def altered(conn, y, x, z):
    """conn with g(e_x, nabla_y e_z) raised by 1."""
    L = {k: [row[:] for row in m] for k, m in conn.L.items()}
    L[y][x - 1][z - 1] += 1
    return hb.Connection(MODEL, L)


def with_curvature(conn, key, shift):
    """A connection with the coefficients of conn whose curvature array has
    ``shift`` added at ``key``."""
    arr = dict(conn.curvature)
    arr[key] = arr.get(key, 0) + shift
    out = hb.Connection(MODEL, conn.L)
    out.__dict__["curvature"] = arr  # the cached property's slot
    return out


def with_extra_entry(arrays):
    """A pair of arrays, the first with one more entry."""
    return ({**arrays[0], "extra": 1}, arrays[1])


def off_the_ring():
    """The model with de^1 moved by e^45 - e^67: still a Lie algebra, but no
    longer the 3ad ring at POINT."""
    de1 = MODEL.de[1] + CF.e(4, 5) - CF.e(6, 7)
    assert hb.d_form(MODEL, de1).is_zero
    return hb.LieModel(CF, {**MODEL.de, 1: de1}, MODEL.c)


def sigma_t_leg(v):
    return f"cyclic R(X, Y, Z, e_{v}) = cyclic g(T(X, Y), T(Z, e_{v}))"


class TestModel:
    def test_equations_predicate(self):
        assert hb.model_equations_hold(MODEL)
        # de^1 off the structure equation de^1 = 2 Phi_1^H
        bad = hb.LieModel(CF, {**MODEL.de, 1: 3 * MODEL.de[1]}, MODEL.c)
        assert not hb.model_equations_hold(bad)
        # de^4 = e^12 breaks d^2 = 0
        bad = hb.LieModel(CF, {**MODEL.de, 4: CF.e(1, 2)}, MODEL.c)
        assert not hb.model_equations_hold(bad)
        # de^1 + e^45 - e^67 keeps d^2 = 0 but not the ring's d eta_1
        assert not hb.model_equations_hold(off_the_ring())

    def test_jacobi(self):
        for mu in range(1, 8):
            assert hb.d_form(MODEL, MODEL.de[mu]).is_zero

    def test_structure_equations(self):
        for i in (1, 2, 3):
            assert MODEL.de[i] == 2 * FRAME["PhiH"][i]
        for r in (4, 5, 6, 7):
            assert MODEL.de[r].is_zero

    def test_brackets(self):
        assert MODEL.bracket(4, 5) == {1: F(2)}
        assert MODEL.bracket(5, 7) == {2: F(-2)}
        assert MODEL.bracket(1, 2) == {}  # abelian vertical part


class TestConnections:
    def test_levi_civita_reeb_derivatives(self):
        lc = hb.levi_civita()
        assert lc.nabla(4, 1) == {5: F(-1)}  # -phi_1(e_4) = -e_5
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                assert lc.nabla(i, j) == {}

    def test_has_torsion_reads_the_first_frame_triple(self):
        # one entry of L[1] moves T(e_1; e_1, e_2) and no other checked
        # component, so a loop that skips index 1 would miss it
        lc = hb.levi_civita()
        assert lc.has_torsion(CF.zero())
        L = {y: [row[:] for row in mat] for y, mat in lc.L.items()}
        L[1][0][1] += 1
        assert not hb.Connection(MODEL, L).has_torsion(CF.zero())

    def test_canonical_parallel_torsion(self):
        can = hb.canonical_connection()
        T = hb.canonical_torsion_form()
        for x in range(1, 8):
            assert hb.nabla_form(can, x, T).is_zero

    def test_parallel_torsion_predicate(self):
        T = hb.canonical_torsion_form()
        can = hb.canonical_connection()
        assert failed(hb.parallel_torsion(can, T)) == []
        assert TORSION in failed(hb.parallel_torsion(hb.levi_civita(), T))
        # one altered entry: g(e_1, nabla_4 e_2) changes the torsion;
        # g(e_4, nabla_1 e_1) keeps it but breaks nabla T = 0
        for y, x, z, torsion_kept in ((4, 1, 2, False), (1, 4, 1, True)):
            conn = altered(can, y, x, z)
            assert conn.has_torsion(T) == torsion_kept
            assert failed(hb.parallel_torsion(conn, T)) \
                == [TORSION, PARALLEL][torsion_kept:]

    def test_canonical_nabla_phi(self):
        can = hb.canonical_connection()
        for x in range(1, 8):
            for i, (j, k) in CYCLIC.items():
                got = hb.nabla_form(can, x, FRAME["Phi"][i])
                etak = F(1) if x == k else F(0)
                etaj = F(1) if x == j else F(0)
                want = -4 * (etak * FRAME["Phi"][j] - etaj * FRAME["Phi"][k])
                assert (got - want).is_zero

    def test_parallel_family_parallelizes(self):
        c4 = hb.connection_lambda(F(4))
        for x in range(1, 8):
            for i in (1, 2, 3):
                assert hb.nabla_form(c4, x, FRAME["Phi"][i]).is_zero

    def test_horizontal_lift_coefficient(self):
        # g(X, nabla^lam_Y Z) = (2a - lam/2) sum eta_i(Y) Phi_i(Z, X)
        for lam in (F(0), F(3), F(-1, 2)):
            conn = hb.connection_lambda(lam)
            for y in (1, 2, 3):
                for z in (4, 5, 6, 7):
                    for x in (4, 5, 6, 7):
                        want = (2 - lam / 2) * FRAME["Phi"][y] \
                            .coefficient((z, x)).as_fraction()
                        assert conn.L[y][x - 1][z - 1] == want


class TestCurvature:
    def test_oracle_equivalence(self):
        rng = random.Random(11)
        lams = [F(0), F(4)] + [F(rng.randint(-9, 9), rng.randint(1, 5))
                               for _ in range(5)]
        for lam in lams:
            fp = hb.curvature_fp(hb.connection_lambda(lam))
            cl = hb.closed_form_curvature_array(lam)
            assert fp == cl, lam

    def test_flatness_of_parallel_family(self):
        assert not hb.curvature_fp(hb.connection_lambda(F(4)))

    def test_sigma_t_bianchi(self):
        can = hb.canonical_connection()
        triples = hb.sigma_t_identity(can, hb.canonical_torsion_form())
        assert [n for n, _, _ in triples] == [sigma_t_leg(v)
                                              for v in range(1, 8)]
        assert failed(triples) == []

    def test_sigma_t_reads_the_first_frame_index_last(self):
        # adding 1 to R(e_1, e_2; e_1, e_3) breaks the cyclic sum only at
        # quadruples whose last index is 1, e.g. (2, 1, 3, 1)
        conn = with_curvature(hb.canonical_connection(), ((1, 2), (1, 3)), 1)
        assert failed(hb.sigma_t_identity(
            conn, hb.canonical_torsion_form())) == [sigma_t_leg(1)]

    @pytest.mark.parametrize("key", [((1, 2), (3, 4)), ((5, 6), (5, 7))])
    def test_sigma_t_fails_on_a_perturbed_entry(self, key):
        # the identity is checked on x < y < z only; a perturbed curvature
        # entry must still be seen
        conn = with_curvature(hb.canonical_connection(), key, F(1, 3))
        assert failed(hb.sigma_t_identity(
            conn, hb.canonical_torsion_form()))

    def test_connection_lambda_zero_is_canonical(self):
        # the difference tensor vanishes at lam = 0
        assert hb.connection_lambda(F(0)) is hb.canonical_connection()

    def test_connection_lambda_shifts_by_the_contorsion(self):
        # the connection at lam is the canonical one plus lam times the unit
        # contorsion
        can = hb.canonical_connection()
        for lam in (F(2), F(-1, 3)):
            want = {k: lam * v
                    for k, v in contorsion(get_ring("3ad")).items()}
            conn = hb.connection_lambda(lam)
            got = {(x, y, z): conn.L[y][x - 1][z - 1] - can.L[y][x - 1][z - 1]
                   for y in range(1, 8) for x in range(1, 8)
                   for z in range(1, 8)}
            assert {k: v for k, v in got.items() if v} == want

    def test_shifted_refuses_a_non_metric_tensor(self):
        with pytest.raises(AlgebraError):
            hb._shifted(hb.canonical_connection(), {(1, 2, 3): 1})

    def test_connection_lambda_keyed_by_value(self):
        # an int and an equal Fraction used to be two cache keys, so the
        # connection and its curvature array were built twice
        assert hb.connection_lambda(4) is hb.connection_lambda(F(4))
        assert hb.connection_lambda(F(8, 2)) is hb.connection_lambda(4)

    def test_connection_lambda_refuses_float(self):
        # Fraction(0.5) used to be accepted silently
        for bad in (0.5, 4.0):
            with pytest.raises(TypeError):
                hb.connection_lambda(bad)

    def test_pair_symmetry_canonical(self):
        arr = hb.curvature_fp(hb.canonical_connection())
        for (i, j), v in arr.items():
            assert arr.get((j, i), F(0)) == v

    def test_reeb_curvature_formula(self):
        # R(X,Y) xi_i = 2a(b+l)(Phi_k^H(X,Y) xi_j - Phi_j^H(X,Y) xi_k)
        #   - (b+l)(4a-l)(eta_ij(X,Y) xi_j - eta_ki(X,Y) xi_k)
        for lam in (F(0), F(1), F(-3, 2)):
            arr = hb.curvature_fp(hb.connection_lambda(lam))
            bl = -4 + lam

            def pairval(form, x, y):
                return form.coefficient((x, y)).as_fraction()

            for (x, y) in ((1, 2), (4, 5), (2, 6), (4, 7), (6, 7)):
                for i, (j, k) in CYCLIC.items():
                    want = {
                        j: 2 * bl * pairval(FRAME["PhiH"][k], x, y)
                        - bl * (4 - lam)
                        * pairval(CF.e(i) ^ CF.e(j), x, y),
                        k: -2 * bl * pairval(FRAME["PhiH"][j], x, y)
                        + bl * (4 - lam)
                        * pairval(CF.e(k) ^ CF.e(i), x, y),
                    }
                    for t in range(1, 8):
                        if t == i:
                            continue
                        zz, vv = (i, t) if i < t else (t, i)
                        sign = 1 if i < t else -1
                        got = sign * arr.get(((x, y), (zz, vv)), F(0))
                        assert got == want.get(t, F(0))


class TestSpinParts:
    def test_killing_checks(self):
        checks = hb.spin_killing_checks()
        assert len(checks) == 6
        for name, lhs, rhs in checks:
            assert suites.sign(lhs, rhs) == 1, name

    def test_leibniz_reads_the_first_frame_pair(self):
        lc = hb.levi_civita()
        rep = sp.build_rep(3)
        nabla = {x: hb.spin_connection_action(lc, rep, x) for x in range(1, 8)}
        _, lhs, rhs = hb._leibniz_compatible(lc, rep, nabla)
        assert lhs == rhs == ()
        # nabla_{e_1} e_1 gains an e_2 part: only the pair (x, z) = (1, 1)
        # changes, so a loop that skips index 1 would miss it
        L = {y: [row[:] for row in mat] for y, mat in lc.L.items()}
        L[1][1][0] += 1
        _, lhs, rhs = hb._leibniz_compatible(hb.Connection(MODEL, L), rep,
                                             nabla)
        assert suites.sign(lhs, rhs) == 0 and lhs

    @pytest.mark.parametrize("leg", [
        "nabla_{xi_i} psi_i = xi_i psi_i",
        "nabla_X psi0 = -(3/2) X psi0 for horizontal X"],
        ids=["reeb", "horizontal"])
    def test_a_perturbed_leg_fails_and_is_named(self, leg):
        cid = "heisenberg.spin-killing"
        kept = records(suites.SuiteHeisenberg, "spin_killing", lambda t: t,
                       (cid,))[cid]
        assert kept.status == "pass" and "failed" not in kept.notes
        rec = records(suites.SuiteHeisenberg, "spin_killing",
                      lambda t: with_leg(t, leg, doubled), (cid,))[cid]
        assert rec.status == "fail"
        assert rec.notes == kept.notes + "; failed: " + leg


class TestRecordsReadTheirInputs:
    def test_model_record_reads_the_ring(self):
        # model_equations_hold fails on a Lie algebra off the ring
        assert statuses(suites.SuiteHeisenberg, "model",
                        lambda _: off_the_ring(), ("heisenberg.model",)) \
            == {"heisenberg.model": "fail"}

    @pytest.mark.parametrize("shift", [2, -2])
    def test_canonical_connection_reads_the_torsion_classes(self, shift):
        # T^c with its e^123 coefficient moved, and the connection with that
        # skew torsion: the torsion matches, but it is not parallel
        T = hb.canonical_torsion_form() + shift * CF.e(1, 2, 3)
        suite = suites.SuiteHeisenberg({})
        suite.__dict__.update(T=T, can=hb.with_torsion(hb.levi_civita(), T))
        check, = [c for c in suite.checks
                  if c.check_id == "heisenberg.canonical-connection"]
        rec = suite.evaluate(check)
        assert rec.status == "fail" and rec.notes.endswith(
            "; failed: " + PARALLEL)

    def test_canonical_connection_names_nabla_t(self):
        # g(e_4, nabla_1 e_1) keeps the torsion but breaks nabla T = 0
        assert named_failures(suites.SuiteHeisenberg, "can",
                              lambda can: altered(can, 1, 4, 1),
                              "heisenberg.canonical-connection") == [PARALLEL]

    def test_sigma_t_names_the_broken_leg(self):
        assert named_failures(
            suites.SuiteHeisenberg, "can",
            lambda can: with_curvature(can, ((1, 2), (1, 3)), 1),
            "heisenberg.sigma-t") == [sigma_t_leg(1)]

    def test_oracle_names_the_broken_lambda(self):
        # only the closed form at l = 4 (the flat one, empty) gains an entry
        assert named_failures(
            suites.SuiteHeisenberg, "hb",
            lambda m: with_result(m, "closed_form_curvature_array",
                                  lambda arr: arr or {((1, 2), (1, 2)): 1}),
            "heisenberg.oracle-equivalence") \
            == ["first-principles = closed form at l = 4"]

    def test_exact_solution_names_the_broken_triple(self):
        assert named_failures(
            suites.SuiteHeisenberg, "thm",
            lambda t: with_leg(t, FLAT, lambda _: {((1, 2), (1, 2)): 1}),
            "heisenberg.exact-solution") == [FLAT]

    @pytest.mark.parametrize("change, leg", [
        # the a'-independent triples must still hold at a' = 1/10
        (lambda t: with_leg(t, INSTANTON, with_extra_entry), INSTANTON),
        (lambda t: with_leg(t, TAU, doubled), TAU),
        # and the flux triple must not
        (lambda t: holding(t, hb.FLUX), hb.FLUX),
    ], ids=["instanton", "torsion-classes", "flux"])
    def test_negative_control_names_the_broken_triple(self, change, leg):
        assert named_failures(
            suites.SuiteHeisenberg, "neg", change,
            "heisenberg.exact-solution.negative-control") == [leg]


class TestTheorem:
    def test_end_to_end(self):
        triples = hb.theorem1_end_to_end()
        # the flux residual, both instantons, flatness and torsion classes
        assert [n for n, _, _ in triples] == [hb.FLUX, INSTANTON, FLAT,
                                              TAU]
        assert failed(triples) == []

    def test_negative_control(self):
        triples = hb.theorem1_end_to_end(F(1, 10))
        assert failed(triples) == [hb.FLUX]
        assert not triples[0][1].is_zero

    def test_tau0_value(self):
        phi = CF.e(1, 2, 3)
        for i in (1, 2, 3):
            phi = phi + (FRAME["eta"][i] ^ FRAME["PhiH"][i])
        tc = torsion_classes(phi, phi.star(), hb.d_form(MODEL, phi),
                             hb.d_form(MODEL, phi.star()))
        assert tc.tau0 == CF.table.rat(F(24, 7))
