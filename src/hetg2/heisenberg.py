"""Concrete degenerate 3-contact model: the 7-dimensional nilpotent group.

The model lives on the 3ad ring's coframe at the parameter point ``POINT``,
(alpha, delta) = (1, 0).  Its Lie algebra is given by de^i = 2 Phi_i^H on
the three vertical legs and de^r = 0 on the horizontal ones; phi, the
characteristic torsion and the structure equations it is checked against
are the ring's, read at ``POINT`` (``at_point``).  Everything else is a
first-principles computation with rational structure constants: Koszul
formula for the Levi-Civita connection, curvature from commutators of the
connection matrices, the spin connection, and the end-to-end check of the
exact-solution theorem.  These results are the independent oracle for the
closed-form curvature module.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations

from .curvature import (array_trace, array_wedge, components,
                        contorsion, curvature)
from .exterior import (Coframe, Form, basis_multi_indices, derivation,
                       leibniz)
from .scalar import AlgebraError, Rat, exact
from .structures import (TorsionClasses, get_ring, structure_torsion,
                         torsion_classes)
from . import spinor as sp

VERT = (1, 2, 3)
HORIZ = (4, 5, 6, 7)

# the model's point of the 3ad parameters
POINT = {"alpha": 1, "delta": 0}


def at_point(form: Form) -> Form:
    """A coframe form of the 3ad ring with its coefficients read at POINT."""
    return Form(form.space, {k: v.subs(POINT) for k, v in form.terms.items()})


class LieModel:
    """Left-invariant frame data: coframe, de-table and structure constants."""

    __slots__ = ("coframe", "de", "c")

    def __init__(self, coframe: Coframe, de: dict, c: dict):
        self.coframe = coframe
        self.de = de  # index -> Form (exterior derivative of e^i)
        self.c = c    # (mu, nu) -> dict target -> rational, brackets

    def bracket(self, mu: int, nu: int) -> dict:
        return self.c.get((mu, nu), {})


@cache
def heisenberg_model() -> LieModel:
    """The model on the 3ad ring's coframe, built and checked once."""
    ring = get_ring("3ad")
    cf = ring.coframe
    de = {i: 2 * ring.frame["PhiH"][i] for i in VERT}
    de.update({r: cf.zero() for r in HORIZ})
    c: dict = {}
    for mu in range(1, 8):
        for nu in range(mu + 1, 8):
            out = {}
            for tgt in range(1, 8):
                # de^t(X, Y) = -e^t([X, Y])
                v = de[tgt].coefficient((mu, nu))
                if not v.is_zero:
                    out[tgt] = -v.as_rat()
            if out:
                c[(mu, nu)] = out
                c[(nu, mu)] = {k: -v for k, v in out.items()}
    model = LieModel(cf, de, c)
    if not model_equations_hold(model):
        raise AlgebraError("de-table violates the Jacobi identity or the "
                           "structure equations")
    return model


def _half(q):
    return exact(Fraction(q, 2))


def d_form(model: LieModel, form: Form) -> Form:
    """Exterior derivative of a left-invariant form with constant
    coefficients: the Leibniz sum over the coframe factors e^mu of each
    monomial, with d e^mu read off the de-table."""
    cf = model.coframe
    return Form.combination(cf, form.terms, lambda idx: leibniz(
        [cf.e(mu) for mu in idx], [model.de[mu] for mu in idx], cf.zero()))


def model_equations_hold(model: LieModel) -> bool:
    """Jacobi identity (d^2 = 0 on the coframe) and the 3ad ring's structure
    equations at POINT: the model's d of each generator's coframe form is the
    ring's d of the generator."""
    return (all(d_form(model, model.de[mu]).is_zero for mu in range(1, 8))
            and all(d_form(model, g.coframe) == at_point(g.d.embed())
                    for g in get_ring("3ad").gens.values()))


class Connection:
    """Left-invariant metric connection: L[y][x][z] = g(e_x, nabla_{e_y} e_z).

    Entries are stored as by ``scalar.exact``: ``int`` when integral, else
    ``Fraction``.
    """

    def __init__(self, model: LieModel, coeffs):
        self.model = model
        self.L = coeffs  # dict y -> 7x7 list of rationals

    @cached_property
    def curvature(self) -> dict:
        """The array ``curvature_fp(self)``, computed once per connection."""
        return curvature_fp(self)

    def nabla(self, y: int, z: int) -> dict:
        return {x: self.L[y][x - 1][z - 1] for x in range(1, 8)
                if self.L[y][x - 1][z - 1] != 0}

    def is_metric(self) -> bool:
        for y in range(1, 8):
            m = self.L[y]
            for x in range(7):
                for z in range(7):
                    if m[x][z] != -m[z][x]:
                        return False
        return True

    def torsion_component(self, x: int, y: int, z: int):
        """T(X; Y, Z) = g(X, nabla_Y Z - nabla_Z Y - [Y, Z])."""
        return (self.L[y][x - 1][z - 1] - self.L[z][x - 1][y - 1]
                - self.model.bracket(y, z).get(x, 0))

    def torsion_sides(self, torsion: Form) -> tuple:
        """T(X; Y, Z) and the coefficient of the 3-form ``torsion``, on every
        frame triple with Y < Z."""
        xyz = [(x, y, z) for x in range(1, 8) for y in range(1, 8)
               for z in range(y + 1, 8)]
        return (tuple(self.torsion_component(*t) for t in xyz),
                tuple(torsion.coefficient(t).as_rat() for t in xyz))

    def has_torsion(self, torsion: Form) -> bool:
        """The sides of ``torsion_sides`` agree."""
        lhs, rhs = self.torsion_sides(torsion)
        return lhs == rhs


@cache
def levi_civita() -> Connection:
    """Koszul formula for the orthonormal left-invariant frame of the model."""
    model = heisenberg_model()

    def cc(a, b, x):
        return model.bracket(a, b).get(x, 0)

    L = {}
    for y in range(1, 8):
        L[y] = [[_half(cc(y, z, x) - cc(z, x, y) + cc(x, y, z))
                 for z in range(1, 8)] for x in range(1, 8)]
    conn = Connection(model, L)
    if not conn.is_metric():
        raise AlgebraError("Koszul connection is not metric")
    if not conn.has_torsion(model.coframe.zero()):
        raise AlgebraError("Levi-Civita torsion does not vanish")
    return conn


def _shifted(base: Connection, tensor: dict) -> Connection:
    """base shifted by a difference tensor: tensor[(x, y, z)] is added to
    g(e_x, nabla_{e_y} e_z); AlgebraError if the result is not metric."""
    L = {y: [row[:] for row in mat] for y, mat in base.L.items()}
    for (x, y, z), v in tensor.items():
        L[y][x - 1][z - 1] = exact(L[y][x - 1][z - 1] + v)
    conn = Connection(base.model, L)
    if not conn.is_metric():
        raise AlgebraError("shifted connection is not metric")
    return conn


def with_torsion(lc: Connection, torsion: Form) -> Connection:
    """Metric connection with prescribed totally skew torsion 3-form."""
    half = {}
    for (x, y, z), t in components(torsion).items():
        half[(x, y, z)] = _half(t.as_rat())
        half[(x, z, y)] = _half(-t.as_rat())
    conn = _shifted(lc, half)
    if not conn.has_torsion(torsion):
        raise AlgebraError("recomputed torsion mismatch")
    return conn


@cache
def canonical_torsion_form() -> Form:
    """The characteristic torsion of the torsion classes, at POINT."""
    return at_point(structure_torsion(get_ring("3ad")).characteristic.embed())


@cache
def canonical_connection() -> Connection:
    """The characteristic connection of the model: skew torsion T."""
    return with_torsion(levi_civita(), canonical_torsion_form())


def nabla_form(conn: Connection, x: int, form: Form) -> Form:
    """Covariant derivative nabla_{e_x} of a form with constant coefficients."""
    return derivation(form, conn.L[x])


def parallel_torsion(conn: Connection, torsion: Form) -> list:
    """The torsion of conn against the 3-form ``torsion``, componentwise,
    and nabla_X torsion against zero for every frame vector X, as (name,
    lhs, rhs) triples."""
    zero = conn.model.coframe.zero()
    return [("T(X; Y, Z) is the declared torsion",
             *conn.torsion_sides(torsion)),
            ("nabla_X T = 0 for every frame vector X",
             tuple(nabla_form(conn, x, torsion) for x in range(1, 8)),
             (zero,) * 7)]


def connection_lambda(lam: Rat) -> Connection:
    """Canonical connection shifted by the closed-form difference tensor,
    built once per value of lam (4 and Fraction(4) give one connection; a
    float raises TypeError).  The tensor vanishes at lam = 0, where this is
    the canonical connection itself."""
    return _connection_lambda(exact(lam))


@cache
def _connection_lambda(lam: Rat) -> Connection:
    if not lam:
        return canonical_connection()
    return _shifted(canonical_connection(), {
        k: lam * v for k, v in contorsion(get_ring("3ad")).items()})


def curvature_fp(conn: Connection) -> dict:
    """First-principles curvature array R[(I, J)] = R(e_I; e_J), rational.

    R(X, Y, Z, V) = g(([nabla_X, nabla_Y] - nabla_[X,Y]) Z, V); the array key
    pairs the 2-form slot I = (x, y) with the endomorphism slot J = (z, v).
    """
    model = conn.model
    pairs = basis_multi_indices(7, 2)
    # nonzero entries of each connection matrix, row by row
    nz = {y: [[(k, v) for k, v in enumerate(row) if v] for row in conn.L[y]]
          for y in range(1, 8)}
    mats = {}
    for (x, y) in pairs:
        nx, ny = nz[x], nz[y]
        bracket = model.bracket(x, y).items()
        comm = [[0] * 7 for _ in range(7)]
        for i in range(7):
            row = comm[i]
            for k, a in nx[i]:
                for j, b in ny[k]:
                    row[j] += a * b
            for k, a in ny[i]:
                for j, b in nx[k]:
                    row[j] -= a * b
            for tgt, cv in bracket:
                for j, b in nz[tgt][i]:
                    row[j] -= cv * b
        mats[(x, y)] = comm
    out = {}
    for I in pairs:
        m = mats[I]
        for (z, v) in pairs:
            val = m[v - 1][z - 1]
            if val != 0:
                out[(I, (z, v))] = exact(val)
    return out


@cache
def _closed_form_in_lam() -> dict:
    """The closed-form array at POINT in the ring symbol lam: key -> {power
    of lam: rational coefficient}."""
    ring = get_ring("3ad")
    arr = curvature(ring, ring.table.sym("lam")).array
    out = {}
    for key, val in arr.items():
        v = val.subs(POINT)
        if not v.is_zero:
            out[key] = {k: c.as_rat() for k, c in v.coeffs_in("lam").items()}
    return out


def closed_form_curvature_array(lam: Fraction) -> dict:
    """The closed-form operator at (alpha, delta) = (1, 0) with R2 = 0."""
    lam = Fraction(lam)
    p, q = lam.numerator, lam.denominator
    out = {}
    for key, poly in _closed_form_in_lam().items():
        # sum c_k lam^k = sum c_k p^k q^(n-k) / q^n: int products and one
        # Fraction per entry
        n = max(poly)
        v = exact(Fraction(sum(c * p ** k * q ** (n - k)
                               for k, c in poly.items()), q ** n))
        if v:
            out[key] = v
    return out


def sigma_t_identity(conn: Connection, torsion: Form) -> list:
    """First Bianchi identity with parallel skew torsion.

    cyclic R(X,Y,Z,V) = cyclic g(T(X,Y), T(Z,V)) over (X, Y, Z), on every
    frame quadruple with X < Y < Z: one (name, lhs, rhs) triple per frame
    vector V, whose sides run over the triples X < Y < Z.
    """
    arr = conn.curvature

    def rc(x, y, z, v):
        sx = 1
        if x == y or z == v:
            return 0
        if x > y:
            x, y, sx = y, x, -sx
        if z > v:
            z, v, sx = v, z, -sx
        return sx * arr.get(((x, y), (z, v)), 0)

    tvec = defaultdict(dict)  # (x, y) -> {w: T(e_w; e_x, e_y)}, nonzero
    for (w, x, y), c in components(torsion).items():
        tvec[(x, y)][w], tvec[(y, x)][w] = c.as_rat(), -c.as_rat()

    def dot(a, b):
        return sum(p * b[w] for w, p in a.items() if w in b)

    # rc and T(X, Y) are antisymmetric in (x, y) and in (z, v), so each side
    # of the identity is alternating in (x, y, z): a transposition flips its
    # sign and a repeated index makes it vanish.  The quadruples with
    # x < y < z carry every equation; the others are their negatives or 0.
    xyz = list(combinations(range(1, 8), 3))
    return [(f"cyclic R(X, Y, Z, e_{v}) = cyclic g(T(X, Y), T(Z, e_{v}))",
             tuple(rc(x, y, z, v) + rc(y, z, x, v) + rc(z, x, y, v)
                   for x, y, z in xyz),
             tuple(dot(tvec[(x, y)], tvec[(z, v)])
                   + dot(tvec[(y, z)], tvec[(x, v)])
                   + dot(tvec[(z, x)], tvec[(y, v)]) for x, y, z in xyz))
            for v in range(1, 8)]


# ---------------------------------------------------------------------------
# spinor checks on the model
# ---------------------------------------------------------------------------

def spin_connection_action(conn: Connection, rep, x: int) -> list:
    """Spinor covariant derivative (1/2) sum_{n<r} G_{nr} e_n e_r, as its
    (rational coefficient, word) terms."""
    terms = []
    for n in range(1, 8):
        for r in range(n + 1, 8):
            # L[x][n][r] = g(e_n, nabla_x e_r); Gamma_{nr}(x) = g(nabla_x e_n, e_r)
            coef = conn.L[x][r - 1][n - 1]
            if coef:
                terms.append((_half(coef), rep.word((n, r))))
    return terms


# The Clifford action is only defined up to a global sign of all generator
# matrices.  The u-basis action formulas and the eigenspace table pin the
# +rho realization (which this package uses throughout); the quoted
# generalized-Killing factors belong to the -rho realization, so they hold
# here with one overall sign.  The spin connection itself is the canonical
# lift (it satisfies [Omega(X), rho(Z)] = rho(nabla_X Z) exactly).
CLIFFORD_REALIZATION_SIGN = -1


def spin_killing_checks() -> list:
    """Derivative rules of the four distinguished spinors at (1, 0), as
    (name, lhs, rhs) triples.

    With s = CLIFFORD_REALIZATION_SIGN: nabla^g_X psi_0 = -s (3/2) X psi_0 on
    the horizontal space, nabla^g_Y psi_0 = s Y psi_0 on the vertical one;
    the auxiliary spinors satisfy s(1/2) X psi_i, s((2a-d)/2) xi_i psi_i and
    s((3d-2a)/2) xi_j psi_i with (a, d) = (1, 0).
    """
    lc = levi_civita()
    rep = sp.build_rep(3)
    psi = sp.sp1_spinors(rep)
    nabla = {x: spin_connection_action(lc, rep, x) for x in range(1, 8)}
    rows = {x: sp.word_rows(terms, rep.dim) for x, terms in nabla.items()}
    s = CLIFFORD_REALIZATION_SIGN

    def rule(name, legs, factor):
        # legs: the (frame index, spinor index) pairs the rule covers
        return (name, tuple(sp.rows_apply(rows[x], psi[i]) for x, i in legs),
                tuple(sp.vec_scale(sp.word_apply(rep.words[x - 1], psi[i]),
                                   s * factor) for x, i in legs))

    return [
        rule("nabla_X psi0 = -(3/2) X psi0 for horizontal X",
             [(x, 0) for x in HORIZ], Fraction(-3, 2)),
        rule("nabla_Y psi0 = Y psi0 for vertical Y",
             [(y, 0) for y in VERT], Fraction(1)),
        rule("nabla_X psi_i = (1/2) X psi_i for horizontal X",
             [(x, i) for x in HORIZ for i in (1, 2, 3)], Fraction(1, 2)),
        rule("nabla_{xi_i} psi_i = xi_i psi_i",
             [(i, i) for i in (1, 2, 3)], Fraction(1)),
        rule("nabla_{xi_j} psi_i = -xi_j psi_i for j != i",
             [(j, i) for i in (1, 2, 3) for j in (1, 2, 3) if j != i],
             Fraction(-1)),
        _leibniz_compatible(lc, rep, nabla),
    ]


def _leibniz_compatible(conn: Connection, rep, nabla) -> tuple:
    """[Omega(X), rho(Z)] = rho(nabla_X Z) on every frame pair: the nonempty
    sparse rows of the word combinations [Omega(X), rho(Z)] - rho(nabla_X Z),
    compared with no rows."""
    defect = []
    for x in range(1, 8):
        for z in range(1, 8):
            g = rep.words[z - 1]
            comm = []
            for c, w in nabla[x]:
                wg, gw = sp.word_mul(w, g), sp.word_mul(g, w)
                if wg != gw:
                    comm += [(c, wg), (-c, gw)]
            # minus rho(nabla_X Z)
            comm += [(-conn.L[x][w - 1][z - 1], rep.words[w - 1])
                     for w in range(1, 8) if conn.L[x][w - 1][z - 1]]
            defect += filter(None, sp.word_rows(comm, rep.dim))
    return ("spin connection is the canonical lift ([Omega, rho(Z)] = "
            "rho(nabla Z))", tuple(defect), ())


# ---------------------------------------------------------------------------
# the end-to-end theorem check
# ---------------------------------------------------------------------------

# the name of the one triple of the exact-solution check that reads a'
FLUX = "dT - (a'/4)(tr R^4 ^ R^4 - tr R^0 ^ R^0) = 0"


@cache
def associative_torsion_classes() -> TorsionClasses:
    """Torsion classes of the associative form on the model."""
    model = heisenberg_model()
    phi = get_ring("3ad").phi().embed()
    psi = phi.star()
    return torsion_classes(phi, psi, d_form(model, phi), d_form(model, psi))


@cache
def _theorem_parts() -> tuple:
    """The a'-independent parts of the exact-solution check: (the triples
    that do not read a', dT, tr R^4 ^ R^4 - tr R^0 ^ R^0)."""
    model = heisenberg_model()
    cf = model.coframe
    psi = get_ring("3ad").phi().embed().star()
    # the arrays at lam = 0 and lam = 4 = -beta, lifted once to scalars
    arr0, arr4 = ({key: cf.table.rat(v) for key, v in conn.curvature.items()}
                  for conn in (canonical_connection(),
                               connection_lambda(Fraction(4))))
    dT = d_form(model, canonical_torsion_form())
    tr_diff = array_trace(arr4, arr4, cf) - array_trace(arr0, arr0, cf)
    tc = associative_torsion_classes()
    return ((("R^0 ^ psi = 0 and R^4 ^ psi = 0",
              (array_wedge(arr0, psi), array_wedge(arr4, psi)), ({}, {})),
             ("R^4 = 0: the parallel family is flat", arr4, {}),
             ("tau0 = 24/7 and tau1 = tau2 = 0", (tc.tau0, tc.tau1, tc.tau2),
              (cf.table.rat(Fraction(24, 7)), cf.zero(), cf.zero()))),
            dT, tr_diff)


def theorem1_end_to_end(alphap: Fraction = Fraction(1, 12)) -> list:
    """Exact-solution check from first principles at (alpha, delta) = (1, 0).

    (i) both gauge curvatures wedge the coassociative form to zero,
    (ii) dT - (a'/4)(tr R^{-b} ^ R^{-b} - tr R^0 ^ R^0) = 0 exactly,
    (iii) the torsion classes of the associative form take the stated values.
    The default a' = 1/12 satisfies 12 a' alpha^2 = 1; any other value must
    yield a nonzero residual.  Returned as (name, lhs, rhs) triples, the flux
    residual (named ``FLUX``) against zero first.
    """
    fixed, dT, tr_diff = _theorem_parts()
    residual = dT - Fraction(alphap, 4) * tr_diff
    return [(FLUX, residual, residual.space.zero()), *fixed]
