"""Adapted-frame structure forms and their finitely presented differential rings.

Two geometries are modelled on a fixed orthonormal 7-coframe:

* the 3-contact case, generated by eta_1..eta_3 (degree 1) and the horizontal
  hermitian forms Phi_1..Phi_3 (degree 2) with d eta_i = 2a Phi_i - 2d eta_jk,
* the contact case, generated by eta (degree 1), Phi (degree 2) and the real
  and imaginary parts Om+ / Om- of the complex volume form (degree 3) with
  d eta = 2a Phi, d Om+ = -4d eta Om-, d Om- = 4d eta Om+.

Each ring states its structure once, as a generator table: every generator
with its coframe form and its exterior derivative (the rule
d Phi_i = 2d (Phi_j eta_k - eta_j Phi_k) is forced by d^2 eta_i = 0).  A
monomial's d is the graded Leibniz sum over its generator factors and its
embedding the wedge of their coframe forms; construction verifies d^2 = 0 on
every generator and that the ring product of every ordered generator pair
embeds as the coframe wedge.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache, reduce
from operator import xor
from typing import Mapping, Union

from .exterior import (Coframe, Form, _merge, _sort_index, basis_multi_indices,
                       coefficient_matrix, form_to_vector, leibniz)
from .linsolve import InconsistentSystemError, nullspace, solve_ring_rhs
from .scalar import AlgebraError, Scalar, SymbolTable

CYCLIC = {1: (2, 3), 2: (3, 1), 3: (1, 2)}

SYMBOLS_3AD = ("alpha", "delta", "lam", "lam1", "lam2", "alphap")
SYMBOLS_SU3 = SYMBOLS_3AD + ("s", "c")


class NotInSpanError(AlgebraError):
    def __init__(self, message, leftover=None):
        super().__init__(message)
        self.leftover = leftover


def coordinates(form: Form, cols: list) -> list[Scalar]:
    """The coefficients c with sum c_i cols[i] = form, solved over the
    sorted union of the monomials of ``form`` and ``cols``.

    The columns must be independent; a form outside their span raises
    :class:`NotInSpanError` carrying the leftover entry.
    """
    space = form.space
    rows = sorted({m for f in cols for m in f.terms} | set(form.terms),
                  key=lambda m: (space.mono_degree(m), space.mono_label(m)))
    try:
        return solve_ring_rhs(coefficient_matrix(cols, rows),
                              form_to_vector(form, rows))
    except InconsistentSystemError as exc:
        raise NotInSpanError("form is not in the span of the columns",
                             exc.residual) from exc


def make_table(geometry: str) -> SymbolTable:
    """Master symbol table for one geometry ('3ad' or 'su3')."""
    if geometry == "3ad":
        return SymbolTable(SYMBOLS_3AD)
    if geometry == "su3":
        t = SymbolTable(SYMBOLS_SU3)
        t.add_relation(t.sym("s") ** 2 + t.sym("c") ** 2 - 1)
        return t
    raise AlgebraError(f"unknown geometry: {geometry}")


# Caching policy: an exact object shared by several checks is built by one
# function of the module that owns it, cached with functools.cache on a ring,
# by identity, or on value arguments (m or lam; only get_ring on a geometry
# name) for the life of the process; callers never mutate what it returns.

@cache
def get_ring(geometry: str) -> "_BaseRing":
    """The generated ring of one geometry ('3ad' or 'su3'), built once."""
    ring_cls = Ring3ad if geometry == "3ad" else RingSU3
    return ring_cls(make_table(geometry))


def sp1_frame_forms(cf: Coframe) -> dict:
    """Adapted-frame forms of the 3-contact structure (n = 1)."""
    eta = {i: cf.e(i) for i in (1, 2, 3)}
    phih = {
        1: -(cf.e(4, 5) + cf.e(6, 7)),
        2: -(cf.e(4, 6) - cf.e(5, 7)),
        3: -(cf.e(4, 7) + cf.e(5, 6)),
    }
    phi_full = {i: -(eta[j] ^ eta[k]) + phih[i]
                for i, (j, k) in CYCLIC.items()}
    return {"eta": eta, "PhiH": phih, "Phi": phi_full}


def su3_frame_forms(cf: Coframe) -> dict:
    """Adapted-frame forms of the SU(3)-structure (m = 3)."""
    eta = cf.e(1)
    phi2 = -(cf.e(2, 3) + cf.e(4, 5) + cf.e(6, 7))
    om_p = cf.form({(3, 5, 7): 1, (3, 4, 6): -1, (2, 5, 6): -1, (2, 4, 7): -1})
    om_m = cf.form({(3, 5, 6): 1, (3, 4, 7): 1, (2, 5, 7): 1, (2, 4, 6): -1})
    return {"eta": eta, "Phi": phi2, "Om+": om_p, "Om-": om_m}


class GenForm(Form):
    """Element of a generated graded ring, in normal form.

    Its space is the ring: the algebra is Form's over the ring's monomial
    table, and a GenForm adds only the exterior derivative and the
    embedding into the coframe.
    """

    __slots__ = ()

    def d(self) -> "GenForm":
        return GenForm.combination(self.space, self.terms, self.space.mono_d)

    def embed(self) -> Form:
        return Form.combination(self.space.coframe, self.terms,
                                self.space.mono_embed)


# One row of a ring's generator table: the generator, its coframe form and
# its exterior derivative.
Generator = namedtuple("Generator", "form coframe d")


class _BaseRing:
    """Shared machinery: the space of its GenForms, from_form, and everything
    derived from the generator table.

    A ring's ``_setup`` gives the rows of ``gens``, the generator table keyed
    by each generator's monomial, and ``factors(m)`` lists a monomial's
    generator keys in order, their product being the monomial with
    coefficient 1.  From these, ``mono_d`` (the Leibniz sum) and
    ``mono_embed`` (the wedge of the coframe forms) are derived and memoized
    with functools.cache; besides the table and ``factors``, a ring supplies
    only its unit and its monomials with their product, degree and label.
    """

    def __init__(self, table: SymbolTable):
        self.table = table
        self.coframe = Coframe(table, 7)
        self.alpha, self.delta = table.sym("alpha"), table.sym("delta")
        # _setup returns the table's (GenForm, coframe form, d) rows
        self.gens = {next(iter(g.terms)): Generator(g, cf, d)
                     for g, cf, d in self._setup()}
        self._check_construction()

    @cache
    def mono_d(self, m) -> GenForm:
        gens = [self.gens[key] for key in self.factors(m)]
        return leibniz([g.form for g in gens], [g.d for g in gens],
                       self.zero())

    @cache
    def mono_embed(self, m) -> Form:
        return reduce(xor, (self.gens[key].coframe for key in self.factors(m)),
                      self.coframe.one())

    def zero(self) -> GenForm:
        return GenForm(self, {})

    def one(self) -> GenForm:
        return GenForm(self, {self.unit_mono(): self.table.one()})

    def genform(self, terms: Mapping[tuple, Union[Scalar, int, Fraction]]) -> GenForm:
        fixed = {}
        for m, c in terms.items():
            if not isinstance(c, Scalar):
                c = self.table.rat(c)
            fixed[m] = c
        return GenForm(self, fixed)

    def from_form(self, form: Form) -> GenForm:
        """Express a coframe form in ring generators (error if impossible):
        one solve over the ring's monomials in the degrees the form has."""
        monos = [m for k in sorted({len(i) for i in form.terms})
                 for m in self.monomials(k)]
        sol = coordinates(form, [self.mono_embed(m) for m in monos])
        return GenForm(self, dict(zip(monos, sol)))

    def _check_construction(self):
        for g in self.gens.values():
            dd = g.d.d()
            if not dd.is_zero:
                raise AlgebraError(f"d^2 != 0 on generator: {dd}")
        for a, g in self.gens.items():
            for b, h in self.gens.items():
                if (g.form ^ h.form).embed() != g.coframe ^ h.coframe:
                    raise AlgebraError(
                        f"{self.mono_label(a)} ^ {self.mono_label(b)} "
                        "disagrees with the coframe wedge")


class Ring3ad(_BaseRing):
    """Generated ring of the 3-contact geometry.

    Monomials are pairs (etas, phis): etas a strictly increasing subset of
    (1,2,3); phis one of (), (i,), (1,1).  The square Phi_i^2 is canonicalised
    to (1,1) since all three squares equal twice the horizontal volume.

    It also states the facts of its lam-family nabla^lam, with beta =
    2(d - 2a): curvature blocks, trace lemma, 4-form basis, norm calibration.
    """

    geometry = "3ad"
    VERTICAL = frozenset({1, 2, 3})  # the Reeb legs of the frame
    NORM_SQ_CALIBRATION = Fraction(4)  # see instanton_obstruction

    def _setup(self):
        self.frame = sp1_frame_forms(self.coframe)
        self.hermitian = list(self.frame["Phi"].values())  # Phi_1..Phi_3
        a, d, eta, Phi = self.alpha, self.delta, self.eta, self.Phi
        return [*((eta(i), self.frame["eta"][i],
                   2 * a * Phi(i) - 2 * d * eta(j, k))
                  for i, (j, k) in CYCLIC.items()),
                *((Phi(i), self.frame["PhiH"][i],
                   2 * d * (Phi(j).wedge(eta(k)) - eta(j).wedge(Phi(k))))
                  for i, (j, k) in CYCLIC.items())]

    def unit_mono(self):
        return ((), ())

    def factors(self, m) -> list:
        etas, phis = m
        return [((i,), ()) for i in etas] + [((), (i,)) for i in phis]

    def eta(self, *idx: int) -> GenForm:
        key, sign = _sort_index(tuple(idx))
        if key is None:
            return self.zero()
        return self.genform({(key, ()): sign})

    def Phi(self, i: int) -> GenForm:
        return self.genform({((), (i,)): 1})

    def mono_degree(self, m) -> int:
        etas, phis = m
        return len(etas) + 2 * len(phis)

    def mono_label(self, m) -> str:
        etas, phis = m
        bits = []
        if etas:
            bits.append("eta" + "".join(map(str, etas)))
        for i in phis:
            bits.append(f"Phi{i}")
        return "^".join(bits) if bits else "1"

    def monomials(self, k: int) -> list[tuple]:
        from itertools import combinations
        out = []
        for ne in range(0, 4):
            for etas in combinations((1, 2, 3), ne):
                for phis in ((), (1,), (2,), (3,), (1, 1)):
                    if len(etas) + 2 * len(phis) == k:
                        out.append((etas, phis))
        return out

    def mono_mul(self, m1, m2):
        e1, p1 = m1
        e2, p2 = m2
        etas, sign = _merge(e1, e2)
        if etas is None:
            return None, 0
        if not p1:
            phis = p2
        elif not p2:
            phis = p1
        elif len(p1) == 1 and len(p2) == 1:
            if p1[0] != p2[0]:
                return None, 0  # Phi_i ^ Phi_j = 0 for i != j
            phis = (1, 1)
        else:
            return None, 0  # horizontal degree would exceed 4
        return (etas, phis), sign

    # distinguished forms -------------------------------------------------
    def phi(self) -> GenForm:
        out = self.eta(1, 2, 3)
        for i in (1, 2, 3):
            out = out + self.eta(i).wedge(self.Phi(i))
        return out

    def psi(self) -> GenForm:
        out = self.zero()
        for i, (j, k) in CYCLIC.items():
            out = out + self.Phi(i).wedge(self.eta(j, k))
        for i in (1, 2, 3):
            out = out + Fraction(1, 6) * self.Phi(i).wedge(self.Phi(i))
        return out

    def aux_phi(self, i: int) -> GenForm:
        """Auxiliary 3-form eta123 + 2 eta_i Phi_i - sum eta_l Phi_l."""
        out = self.eta(1, 2, 3) + 2 * self.eta(i).wedge(self.Phi(i))
        for ell in (1, 2, 3):
            out = out - self.eta(ell).wedge(self.Phi(ell))
        return out

    # the lam-family -------------------------------------------------------
    @property
    def beta(self) -> Scalar:
        return 2 * (self.delta - 2 * self.alpha)

    def curvature_blocks(self, lam: Scalar) -> tuple:
        """Blocks -(b+l)(4a-l | 2a | 2a-l/2 | a) of the curvature, keyed as
        ``CurvOp.blocks``, and the zero factors [l, b+l] of R ^ psi."""
        a, b_l = self.alpha, self.beta + lam
        return {("V", "V"): -b_l * (4 * a - lam), ("H", "V"): -b_l * (2 * a),
                ("V", "H"): -b_l * (2 * a - lam / 2),
                ("H", "H"): -b_l * a}, [lam, b_l]

    def trace_lemma_rhs(self, lam: Scalar) -> GenForm:
        """tr(R ^ R) explicit part 12a(b+l)^2 sum_cyc((4a-l) eta_jk Phi_i
        - a Phi_i Phi_i)."""
        a, eta, Phi = self.alpha, self.eta, self.Phi
        pref = 12 * a * (self.beta + lam) ** 2
        out = self.zero()
        for i, (j, k) in CYCLIC.items():
            out = out + pref * ((4 * a - lam) * eta(j, k).wedge(Phi(i))
                                - a * Phi(i).wedge(Phi(i)))
        return out

    def basis_4forms(self) -> list:
        """(sum Phi_i eta_jk, sum Phi_i Phi_i), for coefficient matching."""
        b1 = b2 = self.zero()
        for i, (j, k) in CYCLIC.items():
            b1 = b1 + self.Phi(i).wedge(self.eta(j, k))
            b2 = b2 + self.Phi(i).wedge(self.Phi(i))
        return [b1, b2]


class RingSU3(_BaseRing):
    """Generated ring of the contact SU(3) geometry.

    Monomials are triples (e, p, w): e in {0,1} for eta, p in {0..3} for the
    Phi power, w in {'', '+', '-'} for a single Om factor.  Relations:
    eta^2 = 0, Phi^4 = 0, Phi^Om = 0, Om+^Om+ = Om-^Om- = 0 and
    Om+ ^ Om- = (2/3) Phi^3.

    It also states the facts of its lam-family (m = 3), R^lam = K Phi (x)
    phi + R2: K, curvature blocks, trace lemma, 4-form basis, calibration.
    """

    geometry = "su3"
    VERTICAL = frozenset({1})  # the Reeb leg of the frame
    OM_PAIR = Fraction(2, 3)
    NORM_SQ_CALIBRATION = Fraction(3, 2)  # see instanton_obstruction

    def _setup(self):
        self.frame = su3_frame_forms(self.coframe)
        self.hermitian = [self.frame["Phi"]]
        a, d, eta, Om = self.alpha, self.delta, self.eta(), self.Om
        return [(eta, self.frame["eta"], 2 * a * self.Phi()),
                (self.Phi(), self.frame["Phi"], self.zero()),
                (Om("+"), self.frame["Om+"], -4 * d * eta.wedge(Om("-"))),
                (Om("-"), self.frame["Om-"], 4 * d * eta.wedge(Om("+")))]

    def unit_mono(self):
        return (0, 0, "")

    def factors(self, m) -> list:
        e, p, w = m
        return [(1, 0, "")] * e + [(0, 1, "")] * p + [(0, 0, w)] * bool(w)

    def eta(self) -> GenForm:
        return self.genform({(1, 0, ""): 1})

    def Phi(self) -> GenForm:
        return self.genform({(0, 1, ""): 1})

    def Om(self, sign: str) -> GenForm:
        return self.genform({(0, 0, sign): 1})

    def mono_degree(self, m) -> int:
        e, p, w = m
        return e + 2 * p + (3 if w else 0)

    def mono_label(self, m) -> str:
        e, p, w = m
        bits = []
        if e:
            bits.append("eta")
        if p:
            bits.append("Phi" if p == 1 else f"Phi^{p}")
        if w:
            bits.append("Om" + w)
        return "^".join(bits) if bits else "1"

    def monomials(self, k: int) -> list[tuple]:
        out = []
        for e in (0, 1):
            for p in range(0, 4):
                for w in ("", "+", "-"):
                    if p and w:
                        continue
                    if e + 2 * p + (3 if w else 0) == k:
                        out.append((e, p, w))
        return out

    def mono_mul(self, m1, m2):
        e1, p1, w1 = m1
        e2, p2, w2 = m2
        if e1 and e2:
            return None, 0
        coeff = -1 if e2 and w1 else 1  # eta crosses Om (odd x odd)
        p = p1 + p2
        if w1 and w2:
            if w1 == w2:
                return None, 0
            coeff *= self.OM_PAIR if (w1, w2) == ("+", "-") else -self.OM_PAIR
            p += 3
            w = ""
        else:
            w = w1 or w2
        if p > 3 or (p and w):
            return None, 0
        return (e1 + e2, p, w), coeff

    # distinguished forms -------------------------------------------------
    def phi(self) -> GenForm:
        s, c = self.table.sym("s"), self.table.sym("c")
        return -self.eta().wedge(self.Phi()) + s * self.Om("+") + c * self.Om("-")

    def psi(self) -> GenForm:
        s, c = self.table.sym("s"), self.table.sym("c")
        half_pp = Fraction(1, 2) * self.Phi().wedge(self.Phi())
        return half_pp + s * self.eta().wedge(self.Om("-")) \
            - c * self.eta().wedge(self.Om("+"))

    # the lam-family -------------------------------------------------------
    def coefficient(self, lam: Scalar, variant: str = "derived") -> Scalar:
        """Explicit coefficient K with R^lam = K Phi (x) phi + R2.

        ``derived`` combines the horizontal-curvature comparison with the
        Kaehler-Einstein eigenvalue of the base (K = a(4a - 8/3 d - lam)),
        which reproduces the instanton threshold lam = (4/3)(3a - 2d).
        ``printed`` is the quoted variant a(4a - 2/3 d - lam), kept for the
        consistency report; it does not match the instanton threshold.
        """
        a, d = self.alpha, self.delta
        if variant == "derived":
            return a * (4 * a - Fraction(8, 3) * d - lam)
        if variant == "printed":
            return a * (4 * a - Fraction(2, 3) * d - lam)
        raise AlgebraError(f"unknown coefficient variant: {variant}")

    def curvature_blocks(self, lam: Scalar) -> tuple:
        """The one block K of the curvature, keyed as ``CurvOp.blocks``, and
        the zero factors [a, 4(3a - 2d) - 3l] of R ^ psi."""
        a, d = self.alpha, self.delta
        return ({("H", "H"): self.coefficient(lam)},
                [a, 4 * (3 * a - 2 * d) - 3 * lam])

    def trace_lemma_rhs(self, lam: Scalar) -> GenForm:
        """tr(R ^ R) explicit part -(2a^2/3)(4(3a-2d) - 3l)^2 Phi ^ Phi."""
        a, d = self.alpha, self.delta
        pref = -Fraction(2, 3) * a * a * (4 * (3 * a - 2 * d) - 3 * lam) ** 2
        return pref * self.Phi().wedge(self.Phi())

    def basis_4forms(self) -> list:
        """(Phi Phi, eta Om+, eta Om-), for coefficient matching."""
        return [self.Phi().wedge(self.Phi()), self.eta().wedge(self.Om("+")),
                self.eta().wedge(self.Om("-"))]


class TorsionClasses:
    """The four independent components of d(phi) and d(psi)."""

    def __init__(self, tau0: Scalar, tau1: Form, tau2: Form, tau3: Form):
        self.tau0 = tau0
        self.tau1 = tau1
        self.tau2 = tau2
        self.tau3 = tau3


class ExtractionError(AlgebraError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def gram_matrix(phi: Form) -> list[list[Scalar]]:
    """Metric induced by a 3-form via (X -| phi)^(Y -| phi)^phi = 6 g(X,Y) vol.

    Each row builds (X -| phi)^phi once and wedges it with Y -| phi, the same
    product since moving a 2-form past a 3-form has sign +1; the entries
    with Y < X are mirrored, not recomputed.
    """
    cf = phi.space
    zero = cf.table.zero()
    contractions = [phi.contract(x) for x in cf.indices]
    out = [[zero] * len(contractions) for _ in contractions]
    for x, ix in enumerate(contractions):
        ix_phi = ix ^ phi
        for y in range(x, len(contractions)):
            w = ix_phi ^ contractions[y]
            out[x][y] = out[y][x] = w.coefficient(cf.indices) / 6
    return out


def is_g2_form(phi: Form, psi: Form) -> bool:
    """Pointwise check: phi^psi = 7 vol and the induced metric is the identity."""
    cf = phi.space
    if (phi ^ psi) != 7 * cf.vol():
        return False
    g = gram_matrix(phi)
    one, zero = cf.table.one(), cf.table.zero()
    for i in range(7):
        for j in range(7):
            if g[i][j] != (one if i == j else zero):
                return False
    return True


def torsion_classes(phi: Form, psi: Form, dphi: Form, dpsi: Form) -> TorsionClasses:
    """Exact extraction of (tau0, tau1, tau2, tau3) from d(phi), d(psi).

    With d phi = tau0 psi + 3 tau1^phi + *tau3 and d psi = 4 tau1^psi + *tau2
    (tau2 in Lambda^2_14, tau3 in Lambda^3_27), the classes are the type
    projections, computed in closed form over the coefficient ring, so
    symbolic parameters, the circle family (s, c) included, need no sampling:

        tau0 = (d phi ^ phi)[vol] / 7,    tau1 = *(*d psi ^ psi) / 12,
        tau2 = *d psi - 4 *(tau1 ^ psi),  tau3 = *(d phi - tau0 psi - 3 tau1^phi).

    The input must be pointwise G2 (identity induced metric, psi = *phi).
    The type conditions tau2^psi = 0, tau3^phi = 0 and tau3^psi = 0 are then
    checked exactly; one fails when the Lambda^4_7 part of d phi disagrees
    with the Lambda^5_7 part of d psi, and the ExtractionError names it and
    carries the failing forms.
    """
    cf = phi.space
    if not is_g2_form(phi, psi) or psi != phi.star():
        raise ExtractionError("input 3-form is not pointwise G2 (phi^psi != "
                              "7 vol, metric != identity or psi != *phi)")
    for name, form, k in (("d phi", dphi, 4), ("d psi", dpsi, 5)):
        if any(len(idx) != k for idx in form.terms):
            raise ExtractionError(f"{name} is not a {k}-form", form)
    tau0 = (dphi ^ phi).coefficient(cf.indices) / 7
    star_dpsi = dpsi.star()
    tau1 = (star_dpsi ^ psi).star() / 12
    tau2 = star_dpsi - 4 * (tau1 ^ psi).star()
    tau3 = (dphi - tau0 * psi - 3 * (tau1 ^ phi)).star()
    for name, residual in (("tau2^psi", tau2 ^ psi), ("tau3^phi", tau3 ^ phi),
                           ("tau3^psi", tau3 ^ psi)):
        if not residual.is_zero:
            raise ExtractionError(
                f"torsion classes fail the type condition: {name} != 0",
                residual)
    return TorsionClasses(tau0, tau1, tau2, tau3)


def aux_torsion_classes(ring: "Ring3ad") -> list:
    """tau1, tau2, tau3 at delta = alpha and tau3 of the three auxiliary
    3-forms against zero, as (name, lhs, rhs) triples.  The forms are
    coclosed and nearly parallel exactly at delta = alpha when every triple
    holds but the last of each form."""
    cf = ring.coframe
    alpha = ring.table.sym("alpha")
    out = []
    for i in (1, 2, 3):
        ph = ring.aux_phi(i).embed()
        ps = ph.star()
        tc = torsion_classes(ph, ps, ring.aux_phi(i).d().embed(),
                             ring.from_form(ps).d().embed())
        at_alpha = Form(cf, {k: v.subs({"delta": alpha})
                             for k, v in tc.tau3.terms.items()})
        out += [(f"tau1(phi_{i}) = 0", tc.tau1, cf.zero()),
                (f"tau2(phi_{i}) = 0", tc.tau2, cf.zero()),
                (f"tau3(phi_{i}) = 0 at delta = alpha", at_alpha, cf.zero()),
                (f"tau3(phi_{i}) = 0", tc.tau3, cf.zero())]
    return out


def characteristic_torsion(tc: TorsionClasses, phi: Form, psi: Form) -> Form:
    """Torsion of the characteristic connection: (1/6) tau0 phi - tau1 -| psi - tau3."""
    return (tc.tau0 / 6) * phi - psi.contract(tc.tau1) - tc.tau3


Torsion = namedtuple("Torsion", "classes characteristic")


@cache
def structure_torsion(ring: _BaseRing) -> Torsion:
    """Torsion classes and characteristic torsion (as a GenForm) of the
    ring's G2 pair (ring.phi(), ring.psi()): the canonical pair on the 3ad
    ring, the circle family (phi(t), psi(t)) on the su3 ring.  Extracted
    once per ring."""
    phi, psi = ring.phi(), ring.psi()
    phi_f, psi_f = phi.embed(), psi.embed()
    tc = torsion_classes(phi_f, psi_f, phi.d().embed(), psi.d().embed())
    return Torsion(tc, ring.from_form(characteristic_torsion(tc, phi_f,
                                                             psi_f)))


def h_homothety(alpha: Scalar, delta: Scalar, a, c):
    """Parameter map of the fibre/base rescaling with invertible factors
    a and c: (alpha, delta) -> (c alpha / a, delta / c)."""
    table = alpha.table
    if not isinstance(a, Scalar):
        a = table.rat(a)
    if not isinstance(c, Scalar):
        c = table.rat(c)
    if a.is_zero or c.is_zero:
        raise AlgebraError("deformation parameters must be invertible")
    return (c * alpha / a, delta / c)


def lambda214_double_characterization(phi: Form, psi: Form):
    """Bases of {b : b^psi = 0} and {b : b -| phi = 0}; both 14-dimensional."""
    from .exterior import contract_biform
    b2 = [phi.space.e(*idx) for idx in basis_multi_indices(7, 2)]
    rows_w = coefficient_matrix([b ^ psi for b in b2],
                                basis_multi_indices(7, 6))
    rows_c = coefficient_matrix([contract_biform(b, phi) for b in b2],
                                basis_multi_indices(7, 1))
    return nullspace(rows_w), nullspace(rows_c)


def registry() -> dict:
    """Named forms addressable from the command line.

    Each name maps to a zero-argument builder that looks up its shared ring
    only when called, so looking a name up builds no ring and no form, and
    showing one builds only that one.
    """
    def built(geometry, method, *args, d=False):
        def build():
            form = getattr(get_ring(geometry), method)(*args)
            return form.d() if d else form
        return build

    reg = {
        "phi.canonical.3ad": built("3ad", "phi"),
        "psi.canonical.3ad": built("3ad", "psi"),
        "dphi.canonical.3ad": built("3ad", "phi", d=True),
        "dpsi.canonical.3ad": built("3ad", "psi", d=True),
        "phi.theta.su3": built("su3", "phi"),
        "psi.theta.su3": built("su3", "psi"),
        "dphi.theta.su3": built("su3", "phi", d=True),
        "Tc.3ad": lambda: structure_torsion(get_ring("3ad")).characteristic,
        "dTc.3ad": lambda: reg["Tc.3ad"]().d(),
        "Tc.su3": lambda: structure_torsion(get_ring("su3")).characteristic,
        "dTc.su3": lambda: reg["Tc.su3"]().d(),
        "eta.su3": built("su3", "eta"),
        "Phi.su3": built("su3", "Phi"),
        "Om+.su3": built("su3", "Om", "+"),
        "Om-.su3": built("su3", "Om", "-"),
    }
    for i in (1, 2, 3):
        reg[f"eta{i}.3ad"] = built("3ad", "eta", i)
        reg[f"PhiH{i}.3ad"] = built("3ad", "Phi", i)
        reg[f"phi.aux{i}.3ad"] = built("3ad", "aux_phi", i)
    return reg
