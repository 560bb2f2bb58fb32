import ast
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest

from hetg2 import bianchi
from hetg2 import curvature as cv
from hetg2 import suites
from hetg2.curvature import (CurvOp, antiselfdual_kernel, array_trace,
                             check_zero_factors, components, contorsion,
                             curvature, instanton_obstruction, pair_symmetry,
                             skew_part, torsion_lambda, wedge_trace)
from hetg2.scalar import AlgebraError, SymbolTable
from hetg2.structures import (CYCLIC, Ring3ad, RingSU3, get_ring, make_table,
                              structure_torsion)

R3 = Ring3ad(make_table("3ad"))
RS = RingSU3(make_table("su3"))
T3 = R3.table
TS = RS.table
AL, DE, LAM = T3.sym("alpha"), T3.sym("delta"), T3.sym("lam")
BETA = R3.beta


SLOTS = "T^l has the claimed slot coefficients"

# the shared 3ad ring, over whose table the characteristic torsion lives
G = get_ring("3ad")
TC = structure_torsion(G).characteristic
PHI = G.phi().embed()
GAL, GDE, GLAM = (G.table.sym(n) for n in ("alpha", "delta", "lam"))


# The quoted block rules, kept as the term-by-term reference that the
# obstruction and the traces derived from the curvature array must equal.

# traces of the squared hermitian endomorphisms on each block
TR_ENDO = {"V": F(-2), "H": F(-4)}
TR_ENDO_SU3 = F(-6)


def quoted_form_factor(R, i, eb):
    """2-form multiplying phi_i restricted to the block ``eb``."""
    r = R.ring
    if R.ring.geometry == "3ad":
        j, k = CYCLIC[i]
        return R.block("V", eb) * -r.eta(j, k) + R.block("H", eb) * r.Phi(i)
    return R.block("H", eb) * r.Phi()


def quoted_trace(R, Rp):
    """sum over the blocks of tr(phi_i|eb ^ 2) (form factor ^ form factor)."""
    r = R.ring
    if R.ring.geometry == "su3":
        return (TR_ENDO_SU3 * quoted_form_factor(R, 0, "H").wedge(
            quoted_form_factor(Rp, 0, "H"))).embed()
    out = r.zero()
    for i in (1, 2, 3):
        for eb in ("V", "H"):
            out = out + TR_ENDO[eb] * quoted_form_factor(R, i, eb).wedge(
                quoted_form_factor(Rp, i, eb))
    return out.embed()


def quoted_obstruction_3ad(R):
    """(terms, natural norm^2) of the quoted shape
    -(b+l)(l/2) Phi_i^2 eta_jk (x) (phi_i|V + 1/2 phi_i|H)."""
    r = R.ring
    # wedging the blocks with psi leaves sum_i (dvol ^ eta_jk) (x)
    # [a_v phi_i|V + a_h phi_i|H] with a_v = 2 c_HV - c_VV, a_h = 2 c_HH - c_VH
    a_v = 2 * R.block("H", "V") - R.block("V", "V")
    a_h = 2 * R.block("H", "H") - R.block("V", "H")
    pref = -(r.beta + R.lam) * R.lam
    assert a_v == pref and a_h == pref / 2
    coef = pref / 2
    terms, nat = {}, r.table.zero()
    for i, (j, k) in CYCLIC.items():
        form = (coef * r.Phi(i).wedge(r.Phi(i)).wedge(r.eta(j, k))).embed()
        for J, c in r.frame["Phi"][i].terms.items():
            endo = c if max(J) <= 3 else c / 2
            terms.update({(K, J): f * endo for K, f in form.terms.items()})
        # |Phi_i^2 eta_jk|^2 = 4 and tr(A^T A) = 2 + (1/4) 4 = 3 per term
        nat = nat + coef * coef * 4 * 3
    return terms, nat


def quoted_obstruction_su3(R):
    """(terms, natural norm^2) of (K/2) Phi^3 (x) phi: the contact case has
    Phi ^ psi(t) = Phi^3 / 2."""
    r = R.ring
    k = R.block("H", "H")
    form = ((k / 2) * r.Phi().wedge(r.Phi()).wedge(r.Phi())).embed()
    terms = {(K, J): f * c for K, f in form.terms.items()
             for J, c in r.frame["Phi"].terms.items()}
    # |Phi^3|^2 = 36, tr(phi^T phi) = 6
    return terms, (k * k / 4) * 36 * 6


class TestQuotedReference:
    def test_obstruction_3ad(self):
        for lam in (LAM, T3.rat(1), T3.zero()):
            R = curvature(R3, lam)
            ob = instanton_obstruction(R, R3.psi())
            terms, nat = quoted_obstruction_3ad(R)
            assert ob.terms == {key: v for key, v in terms.items()
                                if not v.is_zero}
            assert ob.norm_sq_natural == nat

    def test_obstruction_su3(self):
        R = curvature(RS, TS.sym("lam"))
        ob = instanton_obstruction(R, RS.psi())
        terms, nat = quoted_obstruction_su3(R)
        assert ob.terms == terms and len(terms) == 3
        assert ob.norm_sq_natural == nat

    def test_quoted_norm_constants(self):
        for i, (j, k) in CYCLIC.items():
            base = R3.Phi(i).wedge(R3.Phi(i)).wedge(R3.eta(j, k)).embed()
            assert base.inner(base) == 4
        phi3 = RS.Phi().wedge(RS.Phi()).wedge(RS.Phi()).embed()
        assert phi3.inner(phi3) == 36

    def test_traces(self):
        l1, l2 = T3.sym("lam1"), T3.sym("lam2")
        assert wedge_trace(curvature(R3, LAM)) \
            == quoted_trace(*[curvature(R3, LAM)] * 2)
        for lams in ((l1, l2), (T3.zero(), -BETA)):
            R, Rp = (curvature(R3, lam) for lam in lams)
            assert array_trace(R.array, Rp.array, R3.coframe) \
                == quoted_trace(R, Rp)
        l1, l2 = TS.sym("lam1"), TS.sym("lam2")
        R, Rp = curvature(RS, l1), curvature(RS, l2)
        assert array_trace(R.array, Rp.array, RS.coframe) \
            == quoted_trace(R, Rp)
        assert wedge_trace(R) == quoted_trace(R, R)


def records(cls, name, perturb, ids):
    """Records of the checks ``ids`` of a fresh suite whose cached input
    ``name`` is replaced by ``perturb`` of its value."""
    suite = cls({})
    suite.__dict__[name] = perturb(getattr(suite, name))
    return {c.check_id: suite.evaluate(c) for c in cls.checks
            if c.check_id in ids}


def with_leg(triples, leg, change):
    """A (name, lhs, rhs) list with the rhs of the triple named ``leg``
    replaced by ``change`` of it."""
    assert leg in [name for name, _, _ in triples]
    return [(n, lhs, change(rhs) if n == leg else rhs)
            for n, lhs, rhs in triples]


def doubled(side):
    """Twice a side: a value, or a tuple of sides."""
    return tuple(map(doubled, side)) if isinstance(side, tuple) else 2 * side


def holding(triples, leg):
    """A (name, lhs, rhs) list whose triple named ``leg`` holds: its rhs is
    its lhs."""
    assert leg in [name for name, _, _ in triples]
    return [(n, lhs, lhs if n == leg else rhs) for n, lhs, rhs in triples]


def failed(triples):
    """The names of the triples that do not hold, as the suites judge."""
    return suites.identities(triples)["failed"]


def with_result(module, fn, change):
    """A stand-in for a domain module, for a suite to read in its place:
    its function ``fn`` returns ``change`` of the module's result."""
    def wrapped(*args, **kwargs):
        return change(getattr(module, fn)(*args, **kwargs))
    return SimpleNamespace(**{**vars(module), fn: wrapped})


def named_failures(cls, name, perturb, check_id):
    """The identities that record ``check_id`` names as failed once its
    input ``name`` is perturbed.  The unperturbed record passes and names
    none; the perturbed one fails and keeps its notes before the names."""
    kept = records(cls, name, lambda x: x, (check_id,))[check_id]
    assert kept.status == "pass" and "failed: " not in kept.notes
    rec = records(cls, name, perturb, (check_id,))[check_id]
    assert rec.status == "fail"
    head, _, names = rec.notes.rpartition("failed: ")
    assert head == (kept.notes + "; " if kept.notes else "")
    return names.split("; ")


def statuses(cls, name, perturb, ids):
    """Statuses of ``records(cls, name, perturb, ids)``."""
    return {k: r.status for k, r in records(cls, name, perturb, ids).items()}


def with_contorsion(change):
    """A stand-in for the suite's (T^l, T^0), derived from ``change`` of the
    unit contorsion."""
    unit = change(contorsion(G))

    def derived(_):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(cv, "contorsion", lambda ring: unit)
            return [torsion_lambda(TC, lam) for lam in (GLAM, G.table.zero())]
    return derived


def with_block(R, key, shift):
    return CurvOp(R.ring, R.lam, {**R.blocks, key: R.block(*key) + shift},
                  R.zero_factors)


def with_entry(R, key, value):
    """R with the array entry ``key`` set to ``value``."""
    out = CurvOp(R.ring, R.lam, R.blocks, R.zero_factors)
    out.array = {**R.array, key: value}
    return out


def shifted_hh(ring, lam):
    """The 3ad blocks with the HH block shifted by 1."""
    blocks, factors = Ring3ad.curvature_blocks(ring, lam)
    return {**blocks, ("H", "H"): blocks[("H", "H")] + 1}, factors


def mixed_basis(ring):
    """The 3ad basis (b1, b2) replaced by (b1, b1 + b2)."""
    b1, b2 = Ring3ad.basis_4forms(ring)
    return [b1, b1 + b2]


def shifted_coefficient(ring, lam, variant="derived"):
    return RingSU3.coefficient(ring, lam, variant) + 1


class TestRecordsReadTheirInputs:
    INSTANTON_3AD = ("3ad.instanton.zero-set", "3ad.instanton.norm")
    INSTANTON_SU3 = ("su3.instanton.obstruction", "su3.instanton.norm")

    def test_instanton_records_read_psi(self):
        ids = self.INSTANTON_3AD
        assert statuses(suites.Suite3ad, "psi", lambda p: p, ids) \
            == dict.fromkeys(ids, "pass")
        assert statuses(suites.Suite3ad, "psi", lambda p: 2 * p, ids) \
            == dict.fromkeys(ids, "fail")
        ids = self.INSTANTON_SU3 + ("su3.instanton.threshold",)
        assert statuses(suites.SuiteSU3, "psi", lambda p: 2 * p, ids) == {
            **dict.fromkeys(self.INSTANTON_SU3, "fail"),
            "su3.instanton.threshold": "pass"}

    def test_asd_kernel_names_the_broken_slot(self):
        # an e45 (x) e12 entry: e45 - e67 no longer annihilates the form slot
        assert named_failures(
            suites.Suite3ad, "R",
            lambda R: with_entry(R, ((4, 5), (1, 2)), R.ring.table.one()),
            "3ad.curvature.asd-kernel") \
            == ["e45 - e67 is in the kernel of the form slot"]

    def test_pair_symmetry_names_the_broken_half(self):
        cid = "3ad.curvature.pair-symmetry"
        assert named_failures(
            suites.Suite3ad, "R0",
            lambda R: with_entry(R, ((1, 2), (4, 5)), R.ring.table.one()),
            cid) == ["the array at l = 0 equals its transpose"]
        # l = 3 must break the symmetry: a symmetric stand-in fails
        assert named_failures(
            suites.Suite3ad, "cv",
            lambda cv: with_result(cv, "pair_symmetry",
                                   lambda t: holding(t, t[0][0])), cid) \
            == ["the array at l = 3 equals its transpose"]

    @pytest.mark.parametrize("change, leg", [
        (lambda t: with_leg(t, "tau2(phi_2) = 0",
                            lambda zero: zero.space.e(4, 5)),
         "tau2(phi_2) = 0"),
        # tau3 must not vanish: a vanishing tau3 fails the record
        (lambda t: holding(t, "tau3(phi_1) = 0"), "tau3(phi_1) = 0"),
    ], ids=["coclosed", "tau3-nonzero"])
    def test_aux_structures_name_the_broken_class(self, change, leg):
        assert named_failures(
            suites.Suite3ad, "st",
            lambda st: with_result(st, "aux_torsion_classes", change),
            "3ad.aux-structures") == [leg]

    @pytest.mark.parametrize("change, legs", [
        (lambda d: {k: 2 * v if k[0] < 4 else v for k, v in d.items()},
         [SLOTS]),
        (lambda d: {k: 2 * v if k[0] > 3 else v for k, v in d.items()},
         [SLOTS]),
        (lambda d: {}, [SLOTS, "T^l is totally skew"]),
    ], ids=["vertical-doubled", "horizontal-doubled", "zero"])
    def test_torsion_lambda_reads_the_contorsion(self, change, legs):
        assert named_failures(suites.Suite3ad, "tl", with_contorsion(change),
                              "3ad.torsion.lambda") == legs

    @pytest.mark.parametrize("cls, name, ring_cls", [
        (suites.Suite3ad, "r", Ring3ad), (suites.SuiteSU3, "r", RingSU3),
        (suites.SuiteBianchi, "r", Ring3ad),
        (suites.SuiteBianchi, "rsu", RingSU3)],
        ids=["3ad", "su3", "bianchi-r", "bianchi-rsu"])
    def test_records_read_the_input_ring(self, cls, name, ring_cls):
        # an equal ring built apart from the shared one: every record,
        # torsion classes, T^c and the Bianchi systems included, reads the
        # suite's own ring
        ids = [c.check_id for c in cls.checks]
        fresh = records(
            cls, name, lambda _: ring_cls(make_table(ring_cls.geometry)), ids)
        assert {k: r.status for k, r in fresh.items()} == {
            k: "flagged" if k == "su3.curvature.coefficient-discrepancy"
            else "pass" for k in ids}

    @pytest.mark.parametrize("cls, name, ring_cls, facts, failing", [
        (suites.Suite3ad, "r", Ring3ad, dict(curvature_blocks=shifted_hh),
         {"3ad.curvature.blocks", "3ad.instanton.zero-set",
          "3ad.instanton.norm", "3ad.trace.lemma",
          "3ad.trace.rho2-cancellation"}),
        (suites.Suite3ad, "r", Ring3ad, dict(NORM_SQ_CALIBRATION=F(8)),
         {"3ad.instanton.norm"}),
        (suites.Suite3ad, "r", Ring3ad, dict(basis_4forms=mixed_basis),
         {"3ad.torsion.exterior-derivative",
          "3ad.trace.rho2-cancellation"}),
        (suites.SuiteSU3, "r", RingSU3, dict(coefficient=shifted_coefficient),
         {"su3.instanton.threshold", "su3.instanton.obstruction",
          "su3.instanton.norm", "su3.trace.lemma"}),
        (suites.SuiteSU3, "r", RingSU3, dict(NORM_SQ_CALIBRATION=F(3)),
         {"su3.instanton.obstruction", "su3.instanton.norm"}),
        (suites.SuiteBianchi, "r", Ring3ad, dict(curvature_blocks=shifted_hh),
         {"bianchi.system.case-i", "bianchi.exact-solution",
          "bianchi.branch.3ad.exact", "bianchi.branch.3ad.case-i",
          "bianchi.branch.3ad.case-ii", "bianchi.impossibility.3-alpha",
          "bianchi.approximate.orders"}),
        (suites.SuiteBianchi, "r", Ring3ad, dict(basis_4forms=mixed_basis),
         {"bianchi.system.case-i"}),
        (suites.SuiteBianchi, "rsu", RingSU3,
         dict(coefficient=shifted_coefficient),
         {"bianchi.branch.su3.case-a", "bianchi.branch.su3.case-b",
          "bianchi.approximate.orders"}),
    ], ids=["3ad-hh-block", "3ad-calibration", "3ad-basis",
            "su3-coefficient", "su3-calibration", "bianchi-hh-block",
            "bianchi-basis", "bianchi-su3-coefficient"])
    def test_records_read_the_stated_facts(self, cls, name, ring_cls, facts,
                                           failing):
        # a ring that states one fact of its lam-family otherwise: exactly
        # the records that read the fact fail
        ring = type(ring_cls.__name__, (ring_cls,), facts)(
            make_table(ring_cls.geometry))
        ids = [c.check_id for c in cls.checks]
        got = records(cls, name, lambda _: ring, ids)
        assert {k for k, r in got.items() if r.status == "fail"} == failing

    @pytest.mark.parametrize("name, perturb, failing", [
        ("p2", lambda p: p, set()),
        ("p2", lambda p: p[::-1], {"bianchi.basis-independence"}),
        ("p1", lambda p: p[::-1], {"bianchi.basis-independence",
                                   "bianchi.basis-leftover"}),
        ("res_thm", lambda f: f.space.zero(), {"bianchi.basis-leftover"}),
    ], ids=["unperturbed", "p2-swapped", "p1-swapped", "zero-residual"])
    def test_basis_records_read_their_inputs(self, name, perturb, failing):
        # the other basis must give the other coordinates, and only a
        # residual outside b1's span leaves a leftover, a multiple of its
        # b2 coordinate
        ids = [c.check_id for c in suites.SuiteBianchi.checks]
        assert statuses(suites.SuiteBianchi, name, perturb, ids) == {
            k: "fail" if k in failing else "pass" for k in ids}

    def test_trace_records_read_the_blocks(self):
        ids = ("3ad.trace.lemma",)
        assert statuses(suites.Suite3ad, "R",
                        lambda R: with_block(R, ("H", "H"), 1), ids) \
            == {"3ad.trace.lemma": "fail"}
        ids = ("su3.trace.lemma",)
        assert statuses(suites.SuiteSU3, "Rs",
                        lambda R: with_block(R, ("H", "H"), 1), ids) \
            == {"su3.trace.lemma": "fail"}
        # the difference of traces at l = -b and l = 0 reads Rb
        ids = ("3ad.trace.rho2-cancellation",)
        assert statuses(suites.Suite3ad, "Rb", lambda R: R, ids) \
            == dict.fromkeys(ids, "pass")
        assert statuses(suites.Suite3ad, "Rb",
                        lambda R: with_block(R, ("H", "H"), 1), ids) \
            == dict.fromkeys(ids, "fail")


class TestTorsionLambda:
    def test_canonical_value(self):
        expect = 2 * (GDE - 4 * GAL) * G.eta(1, 2, 3)
        for i in (1, 2, 3):
            expect = expect + 2 * GAL * G.eta(i).wedge(G.Phi(i))
        assert torsion_lambda(TC, G.table.zero()) == components(expect.embed())

    def test_vertical_shift(self):
        tl = torsion_lambda(TC, GLAM)
        # all vertical, value-vertical (X) and argument-vertical (Y, Z)
        for key, coeff in (((1, 2, 3), 2 * (GDE - 4 * GAL) + 2 * GLAM),
                           ((1, 4, 5), 2 * GAL),
                           ((4, 1, 5), 2 * GAL - GLAM / 2),
                           ((7, 3, 4), 2 * GAL - GLAM / 2)):
            assert tl[key] == coeff * PHI.coefficient(key)

    def test_parallel_family_matches_at_beta_zero(self):
        # at delta = 2 alpha the two instanton torsions coincide
        sub = {"delta": 2 * GAL}
        tl0, tlm = (torsion_lambda(TC, lam).items()
                    for lam in (G.table.zero(), -G.beta))
        assert {k: v.subs(sub) for k, v in tlm} \
            == {k: v.subs(sub) for k, v in tl0}

    def test_not_skew_off_zero(self):
        tl0 = torsion_lambda(TC, G.table.zero())
        assert skew_part(tl0, G.coframe) == tl0
        tl = torsion_lambda(TC, GLAM)
        skew = skew_part(tl, G.coframe)
        assert skew != tl
        # T(e4; e1, e5) - T(e1; e5, e4) = (2a - l/2) - 2a
        assert tl[(4, 1, 5)] - skew[(4, 1, 5)] == -GLAM / 2

    def test_contorsion_blocks(self):
        delta = {k: 2 * v for k, v in contorsion(G).items()}  # lam = 2
        assert delta[(1, 2, 3)] == 2  # lam * phi(123)
        assert delta[(4, 1, 5)] == -1  # -lam/2 * phi(4,1,5) = -1*(+1)
        assert (1, 4, 5) not in delta  # value-vertical slot is unshifted
        # Delta^0 = 0: the family adds nothing to T^c at lam = 0
        assert torsion_lambda(TC, G.table.zero()) == components(TC.embed())


class TestCurvature3ad:
    def test_blocks(self):
        R = curvature(R3, LAM)
        assert R.block("V", "V") == -(BETA + LAM) * (4 * AL - LAM)
        assert R.block("H", "V") == -(BETA + LAM) * 2 * AL
        assert R.block("V", "H") == -(BETA + LAM) * (2 * AL - LAM / 2)
        assert R.block("H", "H") == -(BETA + LAM) * AL

    def test_vvvv_sample(self):
        R = curvature(R3, T3.zero())
        assert R.block("V", "V").subs({"delta": 0, "alpha": 1}) == 16

    def test_parallel_family_explicit_part_vanishes(self):
        R = curvature(R3, -BETA)
        assert all(v.is_zero for v in R.blocks.values())

    def test_pair_symmetry_only_at_zero(self):
        (_, arr, transposed), = pair_symmetry(curvature(R3, T3.zero()))
        assert arr == transposed
        (_, arr, transposed), = pair_symmetry(curvature(R3, T3.rat(3)))
        assert arr != transposed

    def test_asd_kernel(self):
        triples = antiselfdual_kernel(curvature(R3, LAM))
        assert len(triples) == 6 and failed(triples) == []

    def test_hh_block_always_symmetric(self):
        arr = curvature(R3, LAM).array
        for (I, J), v in arr.items():
            if min(I) >= 4 and min(J) >= 4:
                assert arr[(J, I)] == v


class TestObstruction3ad:
    def test_structure_and_factors(self):
        ob = instanton_obstruction(curvature(R3, LAM), R3.psi())
        assert ob.norm_sq_natural == 9 * LAM ** 2 * (BETA + LAM) ** 2
        assert ob.norm_sq == Ring3ad.NORM_SQ_CALIBRATION * ob.norm_sq_natural
        assert [str(f) for f in ob.zero_factors] \
            == [str(LAM), str(BETA + LAM)]

    def test_zero_set(self):
        assert instanton_obstruction(curvature(R3, T3.zero()),
                                     R3.psi()).is_zero
        assert instanton_obstruction(curvature(R3, -BETA),
                                     R3.psi()).is_zero
        assert not instanton_obstruction(curvature(R3, T3.rat(1)),
                                         R3.psi()).is_zero

    def test_norm_at_case_i_slope(self):
        ob = instanton_obstruction(curvature(R3, LAM), R3.psi())
        val = ob.norm_sq.subs({"lam": 2 * T3.sym("delta")})
        assert val == (48 * (DE - AL) * DE) ** 2

    def test_geometry_mismatch(self):
        with pytest.raises(AlgebraError):
            instanton_obstruction(curvature(R3, LAM), RS.psi())

    def test_zero_factors_are_checked(self):
        R = curvature(R3, LAM)
        ob = instanton_obstruction(R, R3.psi())
        with pytest.raises(AlgebraError):
            check_zero_factors(ob.terms.values(), [LAM + 1])
        with pytest.raises(AlgebraError):
            check_zero_factors(ob.terms.values(), [LAM, LAM])
        # a perturbed block breaks the factorization the obstruction checks
        with pytest.raises(AlgebraError):
            instanton_obstruction(with_block(R, ("H", "H"), 1), R3.psi())


class TestTrace3ad:
    def test_lemma(self):
        tr = wedge_trace(curvature(R3, LAM))
        assert tr == R3.trace_lemma_rhs(LAM).embed()

    def test_rho2_cancellation(self):
        t0 = wedge_trace(curvature(R3, T3.zero()))
        tm = wedge_trace(curvature(R3, -BETA))
        diff = tm - t0
        b1, b2 = R3.zero(), R3.zero()
        for i, (j, k) in CYCLIC.items():
            b1 = b1 + R3.eta(j, k).wedge(R3.Phi(i))
            b2 = b2 + R3.Phi(i).wedge(R3.Phi(i))
        assert diff \
            == (-12 * AL * BETA ** 2 * (4 * AL * b1 - AL * b2)).embed()


class TestSU3:
    def test_coefficient_variants(self):
        lam = TS.sym("lam")
        al, de = TS.sym("alpha"), TS.sym("delta")
        k = RS.coefficient(lam)
        threshold = {"lam": F(4, 3) * (3 * al - 2 * de)}
        assert k.subs(threshold).is_zero
        kp = RS.coefficient(lam, "printed")
        assert not kp.subs(threshold).is_zero
        assert RS.coefficient(TS.zero()) \
            .subs({"delta": F(3, 2) * al}).is_zero
        assert k.subs({"delta": 0}) == al * (4 * al - lam)
        assert k.subs({"delta": 0, "lam": 4 * al}).is_zero

    def test_array_is_k_phi_phi(self):
        # the explicit part K Phi (x) Phi over the three horizontal pairs;
        # e^23 is horizontal here, although it is vertical in the 3ad case
        lam = TS.sym("lam")
        k = RS.coefficient(lam)
        phi = RS.Phi().embed()
        assert curvature(RS, lam).array == {
            (I, J): k * phi.coefficient(I) * phi.coefficient(J)
            for I in phi.terms for J in phi.terms}
        assert set(phi.terms) == {(2, 3), (4, 5), (6, 7)}

    def test_obstruction(self):
        lam = TS.sym("lam")
        k = RS.coefficient(lam)
        ob = instanton_obstruction(curvature(RS, lam), RS.psi())
        assert ob.norm_sq_natural == 54 * k ** 2
        assert ob.norm_sq == 81 * k ** 2

    def test_zero_factors_are_checked(self):
        lam = TS.sym("lam")
        R = curvature(RS, lam)
        ob = instanton_obstruction(R, RS.psi())
        assert [str(f) for f in ob.zero_factors] \
            == ["alpha", "12*alpha - 8*delta - 3*lam"]
        with pytest.raises(AlgebraError):
            check_zero_factors(ob.terms.values(), [TS.sym("delta")])
        with pytest.raises(AlgebraError):
            instanton_obstruction(with_block(R, ("H", "H"), 1),
                                  RS.psi())

    def test_norm_at_branch_b(self):
        lam = TS.sym("lam")
        ob = instanton_obstruction(curvature(RS, lam), RS.psi())
        ns = ob.norm_sq.subs({"lam": TS.sym("lam2"),
                              "delta": F(3, 2) * TS.sym("alpha")})
        tt = SymbolTable(TS.symbols)
        tt.add_relation(tt.sym("lam2") ** 2
                        - F(8, 3) * tt.monomial("alphap", -1))
        got = ns.subs({n: tt.sym(n) for n in ("alpha", "lam2")}, table=tt)
        assert got == 36 * tt.sym("alpha") ** 2 * 6 / tt.sym("alphap")

    def test_trace(self):
        lam = TS.sym("lam")
        tr = wedge_trace(curvature(RS, lam))
        assert tr == RS.trace_lemma_rhs(lam).embed()
        l1, l2 = TS.sym("lam1"), TS.sym("lam2")
        same = wedge_trace(curvature(RS, l1)) \
            - wedge_trace(curvature(RS, l1))
        assert same.is_zero
        diff = wedge_trace(curvature(RS, l1)) \
            - wedge_trace(curvature(RS, l2))
        assert diff == (RS.trace_lemma_rhs(l1)
                        - RS.trace_lemma_rhs(l2)).embed()

    def test_curvature_picks_the_closed_form(self):
        # the operator carries the blocks and zero factors its ring states
        for ring in (R3, RS):
            lam = ring.table.sym("lam")
            blocks, factors = ring.curvature_blocks(lam)
            R = curvature(ring, lam)
            assert R.ring is ring and R.lam == lam
            assert R.blocks == blocks and R.zero_factors == factors


def geometry_dispatch(source: str) -> list:
    """The places in ``source`` that pick behaviour by geometry: isinstance
    against a ring class, subscripts indexed by a ``.geometry``, and calls
    of ``get_ring``, which look a ring up by name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and "get_ring" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            found.append(ast.get_source_segment(source, node))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "isinstance" and len(node.args) == 2:
            names = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(node.args[1])
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if names & {"Ring3ad", "RingSU3"}:
                found.append(ast.get_source_segment(source, node))
        if isinstance(node, ast.Subscript) \
                and isinstance(node.slice, ast.Attribute) \
                and node.slice.attr == "geometry":
            found.append(ast.get_source_segment(source, node))
    return found


class TestNoGeometryDispatch:
    def test_the_guard_sees_dispatch(self):
        assert geometry_dispatch(
            "f = TABLE[ring.geometry]\n"
            "if isinstance(ring, (structures.RingSU3, int)): pass\n"
            "g = TABLE[ring.delta]; isinstance(ring, Form)\n"
            "h = get_ring('3ad').table; k = st.get_ring(name)\n"
            "get_rings(); ring.get_ring_name\n") \
            == ["TABLE[ring.geometry]",
                "isinstance(ring, (structures.RingSU3, int))",
                "st.get_ring(name)", "get_ring('3ad')"]

    @pytest.mark.parametrize("module", [cv, bianchi],
                             ids=["curvature", "bianchi"])
    def test_no_geometry_dispatch(self, module):
        # each ring states the facts of its own family; these modules read
        # them off the ring they are passed and do not pick it by geometry
        assert geometry_dispatch(Path(module.__file__).read_text()) == []


def callers(source: str, callee: str) -> list:
    """The functions in ``source`` that name ``callee``, as a plain name or
    an attribute, outside imports: the innermost enclosing def by its name,
    ``<lambda>`` or ``<module>``, once per reference."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif isinstance(node, ast.Lambda):
            where = "<lambda>"
        if callee in (getattr(node, "id", None), getattr(node, "attr", None)):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)
    visit(ast.parse(source), "<module>")
    return found


class TestOneSpanSolve:
    def test_the_guard_sees_callers(self):
        assert callers(
            "from .linsolve import solve_ring_rhs\n"
            "def f(m, b):\n"
            "    def g(): return ls.solve_ring_rhs(m, b)\n"
            "    return solve_ring_rhs\n"
            "h = lambda: solve_ring_rhs(1, 2)\n"
            "x = solve_ring_rhs_fast(1); solve = solve_ring_rhs\n",
            "solve_ring_rhs") == ["g", "f", "<lambda>", "<module>"]

    def test_coordinates_is_the_one_caller(self):
        # every coefficient read-off goes through one span solve
        src = Path(cv.__file__).parent
        assert [f"{path.stem}.{where}" for path in sorted(src.glob("*.py"))
                for where in callers(path.read_text(), "solve_ring_rhs")] \
            == ["structures.coordinates"]


def relative_imports(source: str) -> list:
    """The modules that ``source`` imports relative to its package, each
    once and sorted: "." for the package root, else the module's name."""
    return sorted({node.module or "." for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.ImportFrom) and node.level})


class TestSpinorLayering:
    def test_the_guard_sees_relative_imports(self):
        assert relative_imports(
            "from . import AlgebraError\n"
            "from .structures import f\n"
            "import structures; from hetg2.linsolve import g\n"
            "def h():\n"
            "    from .exterior import Form\n") \
            == [".", "exterior", "structures"]

    def test_spinor_imports_no_structures(self):
        # the spinor layer reads structure forms by contraction and sits
        # below the structures module
        path = Path(cv.__file__).parent / "spinor.py"
        assert relative_imports(path.read_text()) \
            == [".", "exterior", "linsolve"]
