"""Torsion and curvature of the one-parameter connection families.

The 3ad family is nabla^lam = nabla^c + lam Delta with one contorsion Delta
read off the ring's phi (``contorsion(ring)``); its torsion is derived from
Delta and the characteristic torsion, not quoted (``torsion_lambda``).

The curvature operators have a closed-form explicit part built from the
hermitian 2-forms (block coefficients over the vertical/horizontal splitting)
plus an opaque horizontal remainder R2.  Each ring states the closed forms of
its own family (``curvature_blocks``, ``trace_lemma_rhs``,
``NORM_SQ_CALIBRATION``); ``curvature`` builds the operator from them and
looks up nothing by geometry.  R2 enters only through stated rules:
R2 ^ psi = 0, tr(R1 ^ R2) = 0, and tr(R2 ^ R2) does not depend on lambda,
so it cancels in every difference of traces.  Every curvature operation
reads a Lambda^2 (x) Lambda^2 coefficient array, ``CurvOp.array`` here and
the first-principles arrays of the Heisenberg model alike: ``array_wedge``
(R ^ psi), ``array_trace`` (tr(R ^ R') as a coframe 4-form) and
``natural_norm_sq``.  On the Heisenberg model R2 = 0 and the closed forms
are checked against a first-principles computation.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import permutations

from .exterior import Coframe, Form, _merge, basis_multi_indices
from .scalar import (AlgebraError, Scalar, SymbolTable, _accumulate, _Sums,
                     exact)
from .structures import GenForm


@cache
def contorsion(ring) -> dict:
    """Unit difference tensor Delta(X; Y, Z) of the lam-family, read off the
    ring's phi: phi(X, Y, Z) when all three slots are vertical, -phi/2 when
    only Y is, zero elsewhere.  The family is linear in lam (Delta^lam =
    lam Delta), and the values are rationals, for any table."""
    vert, phi = ring.VERTICAL, ring.phi().embed()
    out = {}
    for idx in phi.terms:
        for x, y, z in permutations(idx):
            if y in vert and (x in vert) == (z in vert):
                val = phi.coefficient((x, y, z)).as_rat()
                out[(x, y, z)] = val if x in vert else exact(Fraction(-val, 2))
    return out


def components(form: Form) -> dict:
    """A 3-form as the tensor T(X; Y, Z), keyed (x, y, z) with y < z."""
    return {(x, y, z): form.coefficient((x, y, z)) for idx in form.terms
            for x, y, z in permutations(idx) if y < z}


def skew_part(tensor: dict, cf: Coframe) -> dict:
    """The skew tensor equal to ``tensor`` (keyed as by ``components``) on
    x < y < z; it is ``tensor`` iff T(X; Y, Z) - T(Y; Z, X) vanishes."""
    return components(cf.form({k: v for k, v in tensor.items()
                               if k[0] < k[1]}))


def torsion_lambda(torsion: GenForm, lam: Scalar) -> dict:
    """T^lam(X; Y, Z) = T(X; Y, Z) + lam (Delta(X; Y, Z) - Delta(X; Z, Y)) of
    the family through the skew torsion ``torsion``, a GenForm whose ring
    gives Delta, keyed as by ``components``; only nonzero entries kept."""
    out = components(torsion.embed())
    for (x, y, z), v in contorsion(torsion.space).items():
        key = (x, y, z) if y < z else (x, z, y)
        out[key] = out.get(key, 0) + lam * (v if y < z else -v)
    return {k: v for k, v in out.items() if not v.is_zero}


class CurvOp:
    """Curvature operator as block coefficients plus the opaque remainder.

    Block keys pair the 2-form slot with the endomorphism slot, each 'V' or
    'H' by the ring's VERTICAL legs; the operator is  sum_i coeff[fb, eb] *
    (Phi_i|fb) (x) (phi_i|eb) (+ R2) over the forms of ``ring.hermitian``,
    a single one in the contact case.  ``array`` holds the explicit part as
    a Lambda^2 (x) Lambda^2 coefficient array; ``zero_factors`` are the
    factors its closed form states of every coefficient of R ^ psi, checked
    by ``instanton_obstruction``.  ``curvature`` builds it from the blocks
    and factors that the ring states.
    """

    __slots__ = ("ring", "lam", "blocks", "zero_factors", "array")

    def __init__(self, ring, lam: Scalar, blocks: dict, zero_factors: list):
        self.ring = ring
        self.lam = lam
        self.blocks = blocks
        self.zero_factors = zero_factors
        arr = {}
        vert = ring.VERTICAL
        for form in ring.hermitian:
            comp = {I: c.as_rat() for I, c in form.terms.items()}
            for I, ci in comp.items():
                fb = "V" if set(I) <= vert else "H"
                for J, cj in comp.items():
                    eb = "V" if set(J) <= vert else "H"
                    term = self.block(fb, eb) * (ci * cj)
                    arr[(I, J)] = arr[(I, J)] + term if (I, J) in arr else term
        self.array = {key: v for key, v in arr.items() if not v.is_zero}

    def block(self, fb: str, eb: str) -> Scalar:
        return self.blocks.get((fb, eb), self.ring.table.zero())


def curvature(ring, lam: Scalar) -> CurvOp:
    """The closed-form curvature of the ring's lam-family."""
    return CurvOp(ring, lam, *ring.curvature_blocks(lam))


def array_wedge(arr: dict, form: Form) -> dict:
    """sum arr[I, J] (e^I ^ form) (x) e^J for a Lambda^2 (x) Lambda^2
    coefficient array and a coframe form, keyed (multi-index, J); zero
    coefficients are dropped."""
    cf = form._coframe("array_wedge")
    out = _Sums()
    for (I, J), c in arr.items():
        for idx, f in form.terms.items():
            key, q = _merge(I, idx)
            if key is not None:
                out.add((key, J), q, c, f)
    return {k: v for k, v in out.scalars(cf.table).items() if not v.is_zero}


def array_trace(arr: dict, arrp: dict, cf: Coframe) -> Form:
    """tr(R ^ R') = -2 sum_J arr[I1, J] arrp[I2, J] e^I1 ^ e^I2, since
    tr(A B) = -2 sum_{r<s} A_rs B_rs for skew endomorphisms A and B."""
    by_slot: dict = {}
    for (I, J), c in arrp.items():
        by_slot.setdefault(J, []).append((I, c))
    out = _Sums()
    for (I1, J), a in arr.items():
        for I2, b in by_slot.get(J, ()):
            key, q = _merge(I1, I2)
            if key is not None:
                out.add(key, -2 * q, a, b)
    return Form(cf, out.scalars(cf.table))


def natural_norm_sq(terms: dict, table: SymbolTable) -> Scalar:
    """2 sum c^2 over the coefficients of an endomorphism-valued form in the
    (e^K, e^J) basis: each e^J is a skew endomorphism of Frobenius norm^2 2."""
    a: dict = {}
    for c in terms.values():
        _accumulate(a, 2, c, c)
    return Scalar(table, a)


class Obstruction(namedtuple("Obstruction", "terms norm_sq norm_sq_natural "
                              "zero_factors")):
    """R ^ psi as an endomorphism-valued 6-form plus norms and factors.

    terms: the nonzero coefficients of ``array_wedge(R.array, psi)``,
    keyed (6-form multi-index, endomorphism slot J).
    """

    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return not self.terms


def check_zero_factors(coefficients, factors: list) -> None:
    """Divide each distinct coefficient (up to sign) by the factors in turn;
    AlgebraError when one does not divide."""
    seen: set = set()
    for c in coefficients:
        if c in seen or -c in seen:
            continue
        seen.add(c)
        quot = c
        for f in factors:
            quot = quot.div_exact(f)


def instanton_obstruction(R: CurvOp, psi: GenForm) -> Obstruction:
    """R ^ psi from the explicit array.  The opaque remainder is a stated
    rule, R2 ^ psi = 0: psi lies in (self-dual)^(self-dual) + (self-dual)^
    vertical (3-contact), and R2 is (1,1)-primitive (contact case).
    norm_sq_natural is the natural tensor norm^2 (form part times the
    Frobenius norm of the endomorphism part); norm_sq is it times the ring's
    ``NORM_SQ_CALIBRATION``, the scale the closed-form magnitudes use."""
    ring = R.ring
    if psi.space is not ring:
        raise AlgebraError("coassociative form from a different geometry ring")
    terms = array_wedge(R.array, psi.embed())
    # the stated zero factors, checked on the derived coefficients
    check_zero_factors(terms.values(), R.zero_factors)
    nat = natural_norm_sq(terms, ring.table)
    return Obstruction(terms, ring.NORM_SQ_CALIBRATION * nat, nat,
                       R.zero_factors)


def wedge_trace(R: CurvOp) -> Form:
    """tr(R ^ R) of the explicit part as a coframe 4-form.  The remainder
    enters by stated rules: tr(R1 ^ R2) = 0, and tr(R2 ^ R2) does not depend
    on lambda, so it cancels in every difference of traces."""
    return array_trace(R.array, R.array, R.ring.coframe)


def antiselfdual_kernel(R: CurvOp) -> list:
    """Anti-self-dual horizontal 2-forms annihilate the explicit part, in
    the form slot and in the endomorphism slot: per 2-form and slot, a
    (name, lhs, rhs) triple of the nonzero coefficients of the contraction
    and no coefficients."""
    arr = R.array
    zero = R.ring.table.zero()
    asd = {"e45 - e67": {(4, 5): 1, (6, 7): -1},
           "e46 + e57": {(4, 6): 1, (5, 7): 1},
           "e47 - e56": {(4, 7): 1, (5, 6): -1}}
    pairs = basis_multi_indices(7, 2)
    out = []
    for name, omega in asd.items():
        for side, slot in enumerate(("form", "endomorphism")):
            coeffs = {}
            for K in pairs:
                acc = zero
                for I, c in omega.items():
                    v = arr.get((I, K) if side == 0 else (K, I))
                    if v is not None:
                        acc = acc + c * v
                if not acc.is_zero:
                    coeffs[K] = acc
            out.append((f"{name} is in the kernel of the {slot} slot",
                        coeffs, {}))
    return out


def pair_symmetry(R: CurvOp) -> list:
    """The explicit array against its transpose R(J; I), as one (name, lhs,
    rhs) triple."""
    arr = R.array
    return [(f"the array at l = {R.lam} equals its transpose", arr,
             {(J, I): v for (I, J), v in arr.items()})]
