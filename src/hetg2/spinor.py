"""Clifford representations, spinor bases and bilinear form reconstruction.

Representations are built from Kronecker products of four 2x2 words over
the Gaussian rationals; all spinor computations are exact.  Basis spinors are
stored without the overall 1/sqrt(2)^m normalisation (bilinears divide by the
squared norm, so every reconstructed coefficient is rational).

A Gaussian rational ``GQ`` is (a + b i) / d held as three ints in lowest
terms (d > 0, gcd(a, b, d) = 1), so that arithmetic is integer arithmetic
with at most one gcd per result; ``re`` and ``im`` are derived, an int when
integral and a Fraction otherwise, never a float.  The kernels that sum
products (``word_herm``, ``herm``, ``rows_apply``, ``matmul``,
``word_rows``) add the integer parts over one running denominator and build
one ``GQ`` per result entry.

Every generator is a signed permutation matrix with unit phases, one entry
i^k per row, and so is every product of generators and the charge
conjugation C.  ``CliffordRep.words`` holds the generators as *words*: a pair
(perm, phase) with row r carrying i^phase[r] in column perm[r], phases taken
mod 4.  Words compose, take Kronecker products and act on spinors in O(dim)
by index lookups and part swaps, with no multiplication;
``clifford_relations_hold``, ``volume_action`` and the spinor bilinears work
on words, each bilinear herm(x, W y) read off the word by ``word_herm``
without building W y, and so is the real 8-dimensional representation
``real_rep7``.  ``CliffordRep.word`` builds the word of each product of
generators once, from the word of its prefix.  Every other operator (a
form's Clifford action, an eigenprojector) is held as sparse rows, one
{column: entry} dict per row: ``word_rows`` turns a combination of words
into sparse rows, and ``rows_apply``, ``rows_scale`` and ``matmul`` act on
them.  ``CliffordRep.terms`` is the one builder of a form's Clifford action,
as the (coefficient, word) pairs that ``word_rows`` reads.  ``build_rep`` is
cached per ``m``; the cached ``CliffordRep`` is frozen and shared by every
caller in the process.

Convention notes, fixed once and verified exhaustively by the test suite:

* the fundamental 2-form acting on spinors in the eigenspace decomposition is
  sum_a e^{2a} ^ e^{2a+1}, the negative of the structure-module convention
  Phi(X, Y) = g(X, phi Y);
* the spinor-side (1,1)-tensor of a 2-form Phi is phi(X) = X -| Phi, read
  by ``Form.contract``: the negative of the structure-module phi;
* the distinguished section of the lowest eigenspace carries a phase (1+i)
  relative to the plain basis spinor u(1,...,1) (this makes the holomorphic
  volume bilinear land exactly on the adapted-frame form);
* the degree-3 Majorana bilinear is taken with the sign that reproduces the
  canonical associative 3-form componentwise.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache, partial
from itertools import combinations, product, repeat
from math import comb, gcd
from typing import TYPE_CHECKING, Sequence

from . import SPINOR_LABELS, AlgebraError

if TYPE_CHECKING:
    from .exterior import Coframe, Form


class GQ:
    """Gaussian rational (a + b i) / d, held as three ints in lowest terms:
    d > 0 and gcd(a, b, d) == 1, so equal values have equal triples.

    ``re`` and ``im`` are derived, as ``scalar.exact`` stores a rational: an
    ``int`` when integral, else a ``Fraction``.  An operation makes at most
    one ``math.gcd`` call for its result, and none when its denominator is 1.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        (p, e), (q, f) = _rat_parts(re), _rat_parts(im)
        d = e * f // gcd(e, f)  # over the lcm the triple is in lowest terms
        self.a, self.b, self.d = p * (d // e), q * (d // f), d

    @property
    def re(self):
        return _exact(self.a, self.d)

    @property
    def im(self):
        return _exact(self.b, self.d)

    def __add__(self, o):
        if type(o) is not GQ:
            o = _gq(o)
        d, e = self.d, o.d
        if d == e:
            return _reduced(self.a + o.a, self.b + o.b, d)
        return _reduced(self.a * e + o.a * d, self.b * e + o.b * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _triple(-self.a, -self.b, self.d)

    def __sub__(self, o):
        if type(o) is not GQ:
            o = _gq(o)
        d, e = self.d, o.d
        if d == e:
            return _reduced(self.a - o.a, self.b - o.b, d)
        return _reduced(self.a * e - o.a * d, self.b * e - o.b * d, d * e)

    def __rsub__(self, o):
        return _gq(o) - self

    def __mul__(self, o):
        if type(o) is int:
            return _reduced(self.a * o, self.b * o, self.d)
        if type(o) is not GQ:
            o = _gq(o)
        a, b, c, e = self.a, self.b, o.a, o.b
        return _reduced(a * c - b * e, a * e + b * c, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if type(o) is not GQ:
            o = _gq(o)
        a, b, c, e = self.a, self.b, o.a, o.b
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("gaussian rational division by zero")
        # (a + b i)/d / ((c + e i)/f) = (a + b i)(c - e i) f / (d (c^2 + e^2))
        return _reduced((a * c + b * e) * o.d, (b * c - a * e) * o.d,
                        self.d * n)

    def conj(self):
        return _triple(self.a, -self.b, self.d)

    def __eq__(self, o):
        if type(o) is not GQ:
            o = _gq(o)
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        # a real value hashes as the equal int or Fraction
        if self.b:
            return hash((self.a, self.b, self.d))
        return hash(self.a if self.d == 1 else Fraction(self.a, self.d))

    @property
    def is_zero(self):
        return not (self.a or self.b)

    def __repr__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        return f"({re}{'+' if im >= 0 else '-'}{abs(im)}i)"


_new = object.__new__


def _triple(a: int, b: int, d: int) -> GQ:
    """The GQ of a triple already in lowest terms."""
    x = _new(GQ)
    x.a, x.b, x.d = a, b, d
    return x


def _reduced(a: int, b: int, d: int) -> GQ:
    """The GQ (a + b i) / d for d > 0, by one gcd when d != 1."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    x = _new(GQ)
    x.a, x.b, x.d = a, b, d
    return x


def _exact(n: int, d: int):
    """n / d as ``scalar.exact`` stores it: int when integral, else Fraction."""
    if d == 1:
        return n
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def _rat_parts(x) -> tuple:
    """(numerator, denominator) of an int or Fraction; anything else, a float
    included, is refused as ``scalar.exact`` refuses it."""
    if type(x) is int:
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"exact coefficient must be int or Fraction, "
                    f"not {type(x).__name__}")


def _gq(x) -> GQ:
    if isinstance(x, GQ):
        return x
    return GQ(x)


I = GQ(0, 1)
_ZERO = GQ(0)


def word_herm(x: Sequence[GQ], w, y: Sequence[GQ]) -> GQ:
    """herm(x, W y) for a word W = (perm, phase), read off the word without
    building W y: the sum of conj(x_r) i^phase[r] y[perm[r]], its parts
    summed as ints over one running denominator."""
    perm, phase = w
    re = im = 0
    den = 1
    for u, j, k in zip(x, perm, phase):
        v = y[j]
        a, b, c, e = u.a, u.b, v.a, v.b
        p, q = a * c + b * e, a * e - b * c  # conj(u) v, times u.d v.d
        if not (p or q):
            continue
        if k:  # times i^k
            p, q = (-q, p) if k == 1 else (-p, -q) if k == 2 else (q, -p)
        f = u.d * v.d
        if f == den:
            re, im = re + p, im + q
        else:
            re, im, den = re * f + p * den, im * f + q * den, den * f
    return _reduced(re, im, den)


def herm(x: Sequence[GQ], y: Sequence[GQ]) -> GQ:
    """Hermitian product, conjugate linear in the first slot."""
    return word_herm(x, (range(len(x)), repeat(0)), y)


def vec_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def vec_scale(x, c):
    c = _gq(c)
    return tuple(c * a for a in x)


def vec_conj(x):
    return tuple(a.conj() for a in x)


# ---------------------------------------------------------------------------
# words: signed permutation matrices with unit phases
# ---------------------------------------------------------------------------

_I_POWERS = (GQ(1), I, GQ(-1), GQ(0, -1))  # i^k for k = 0..3


def times_i_pow(x: GQ, k: int) -> GQ:
    """i^k x for k in 0..3, by swapping and negating parts; no other k."""
    if k == 0:
        return x
    a, b, d = x.a, x.b, x.d
    if k == 1:
        return _triple(-b, a, d)
    if k == 2:
        return _triple(-a, -b, d)
    if k == 3:
        return _triple(b, -a, d)
    raise AlgebraError(f"phase {k!r} is not in 0..3")


def word_mul(a: tuple, b: tuple) -> tuple:
    """The word of the matrix product a b."""
    (pa, ka), (pb, kb) = a, b
    return (tuple(pb[j] for j in pa),
            tuple((k + kb[j]) % 4 for j, k in zip(pa, ka)))


def word_apply(w: tuple, v) -> tuple:
    """The vector W v."""
    return tuple(times_i_pow(v[j], k) for j, k in zip(*w))


def _word_neg(w: tuple) -> tuple:
    return w[0], tuple((k + 2) % 4 for k in w[1])


def _word_transpose(w: tuple) -> tuple:
    """The word of the transpose; AlgebraError if perm is not a bijection."""
    perm, phase = w
    if sorted(perm) != list(range(len(perm))):
        raise AlgebraError("word is not invertible")
    tp, tk = [0] * len(perm), [0] * len(perm)
    for r, (j, k) in enumerate(zip(perm, phase)):
        tp[j], tk[j] = r, k
    return tuple(tp), tuple(tk)


def word_kron(*words) -> tuple:
    """The word of the Kronecker product of words: row i dim_b + k of a x b
    carries i^(ka[i] + kb[k]) in column pa[i] dim_b + pb[k]."""
    perm, phase = (0,), (0,)
    for pb, kb in words:
        d = len(pb)
        perm = tuple(p * d + q for p in perm for q in pb)
        phase = tuple((k + l) % 4 for k in phase for l in kb)
    return perm, phase


# the 2x2 words of build_rep, and the scalar i as a 1x1 word
_W_I = ((0,), (1,))
_W_G1 = ((0, 1), (1, 3))  # diag(i, -i)
_W_G2 = ((1, 0), (1, 1))  # [[0, i], [i, 0]]
_W_E = ((0, 1), (0, 0))   # the identity
_W_T = ((1, 0), (3, 1))   # [[0, -i], [i, 0]]


# ---------------------------------------------------------------------------
# sparse rows: every other operator, one {column: entry} dict per row
# ---------------------------------------------------------------------------

def _add_into(acc: dict, j, p: int, q: int, f: int) -> None:
    """acc[j] += (p + q i) / f, where acc[j] is a list [re, im, den] of ints
    over one running denominator."""
    t = acc.get(j)
    if t is None:
        acc[j] = [p, q, f]
    elif t[2] == f:
        t[0] += p
        t[1] += q
    else:
        t[0], t[1], t[2] = t[0] * f + p * t[2], t[1] * f + q * t[2], t[2] * f


def _row(acc: dict) -> dict:
    """The sparse row of parts summed by ``_add_into``, zero entries
    dropped."""
    return {j: _reduced(*t) for j, t in acc.items() if t[0] or t[1]}


def word_rows(terms, dim: int) -> list:
    """Sparse rows of sum c W over pairs (coefficient c, word W), zero
    entries dropped."""
    rows = [{} for _ in range(dim)]
    for c, (perm, phase) in terms:
        c = _gq(c)
        a, b, d = c.a, c.b, c.d
        turned = ((a, b), (-b, a), (-a, -b), (b, -a))  # i^k c for k = 0..3
        for acc, j, k in zip(rows, perm, phase):
            _add_into(acc, j, *turned[k], d)
    return [_row(acc) for acc in rows]


def rows_apply(rows: list, v) -> tuple:
    """Sparse rows applied to a vector, each entry summed as ints."""
    out = []
    for row in rows:
        acc = {}
        for j, x in row.items():
            y = v[j]
            _add_into(acc, 0, x.a * y.a - x.b * y.b, x.a * y.b + x.b * y.a,
                      x.d * y.d)
        out.append(_reduced(*acc[0]) if acc else _ZERO)
    return tuple(out)


def rows_scale(rows: list, c) -> list:
    """Sparse rows times a scalar c, zero entries dropped."""
    c = _gq(c)
    return [{j: y for j, x in row.items() if not (y := c * x).is_zero}
            for row in rows]


def matmul(a: list, b: list) -> list:
    """The product of two sparse-row operators, zero entries dropped."""
    out = []
    for row in a:
        acc = {}
        for k, x in row.items():
            xa, xb, xd = x.a, x.b, x.d
            for j, y in b[k].items():
                ya, yb = y.a, y.b
                _add_into(acc, j, xa * ya - xb * yb, xa * yb + xb * ya,
                          xd * y.d)
        out.append(_row(acc))
    return out


class CliffordRep:
    """Generator words of the 2^m-dimensional complex representation.

    ``volume_sign`` records the exact scalar by which the ordered product
    e_1 ... e_{2m+1} acts, relative to (-i)^{m+1}: with the quoted
    generator matrices (whose e_1 action on the u-basis is the quoted
    i (prod eps) (-1)^m) the product acts as -(-i)^{m+1}, i.e. the quoted
    volume normalisation and the quoted e_1 action differ by a global sign.
    The e_1 convention is kept; the sign is reported, not hidden.
    """

    __slots__ = ("m", "words")
    volume_sign = -1

    def __init__(self, m: int, words: tuple):
        # the phases read by word_apply, so that every check of the words
        # and the action agree on what a word is
        if any(k not in range(4) for _, phase in words for k in phase):
            raise AlgebraError("generator phases must be reduced to 0..3")
        # frozen: build_rep shares one representation per m
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "words", words)  # rho(e_mu) = words[mu-1]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def dim(self) -> int:
        return 2 ** self.m

    @cache
    def word(self, idx: tuple) -> tuple:
        """The word of the ordered product e_idx[0] ... e_idx[-1]; each
        product is built once, from the word of its prefix."""
        if not idx:
            return tuple(range(self.dim)), (0,) * self.dim
        return word_mul(self.word(idx[:-1]), self.words[idx[-1] - 1])

    def terms(self, form: Form) -> list:
        """The (coefficient, word) pairs of the Clifford action of a form
        with rational coefficients."""
        return [(c.as_rat(), self.word(idx)) for idx, c in form.terms.items()]

    def form_matrix(self, form: Form) -> list:
        """Sparse rows of the Clifford action of a form."""
        return word_rows(self.terms(form), self.dim)


@cache
def build_rep(m: int) -> CliffordRep:
    """Kronecker-product spin representation in dimension 2m+1.

    Built and checked once per ``m``; later calls return the same object.

    rho(e_1) = i T x...x T; the pair (e_2a, e_2a+1) acts by (g1, g2) in the
    (m+1-a)-th tensor slot with identities before it and T's after it.  The
    volume product e_1 ... e_{2m+1} acts as (-i)^{m+1}.
    """
    words = [word_kron(_W_I, *[_W_T] * m)]
    for a in range(1, m + 1):
        pre = [_W_E] * (m - a)
        post = [_W_T] * (a - 1)
        words.append(word_kron(*pre, _W_G1, *post))
        words.append(word_kron(*pre, _W_G2, *post))
    rep = CliffordRep(m, tuple(words))
    if not clifford_relations_hold(rep):
        raise AlgebraError(f"Clifford relations fail at m = {m}")
    return rep


def _minus_i_pow(k: int) -> GQ:
    return _I_POWERS[-k % 4]


def volume_action(rep: CliffordRep) -> GQ:
    """Exact scalar by which e_1 ... e_{2m+1} acts (the product is central)."""
    perm, phase = rep.word(tuple(range(1, 2 * rep.m + 2)))
    if perm != tuple(range(rep.dim)) or len(set(phase)) != 1:
        raise AlgebraError("volume element does not act by a scalar")
    return _I_POWERS[phase[0]]


def clifford_relations_hold(rep: CliffordRep) -> bool:
    """e_u e_v + e_v e_u = -2 delta_uv for all generators, and the volume
    product acts by volume_sign (-i)^(m+1), checked on the words."""
    words = rep.words
    ident = tuple(range(rep.dim))
    for mu, a in enumerate(words):
        p, k = word_mul(a, a)
        if p != ident or any(x != 2 for x in k):  # e_mu^2 = -1
            return False
        for b in words[mu + 1:]:
            (p1, k1), (p2, k2) = word_mul(a, b), word_mul(b, a)
            # two words cancel iff one permutation, phases apart by i^2
            if p1 != p2 or any((x - y) % 4 != 2 for x, y in zip(k1, k2)):
                return False
    return volume_action(rep) == _minus_i_pow(rep.m + 1) * rep.volume_sign


def u_spinor(rep: CliffordRep, eps: Sequence[int]):
    """Basis spinor u(eps_1..eps_m), scaled by sqrt(2)^m (Gaussian integers)."""
    if len(eps) != rep.m:
        raise AlgebraError("wrong number of signs")
    if any(e != 1 and e != -1 for e in eps):
        raise AlgebraError(f"signs {tuple(eps)!r} are not all +1 or -1")
    vecs = [(GQ(1), -I) if e == 1 else (GQ(1), I) for e in eps]
    out = vecs[0]
    for v in vecs[1:]:
        out = tuple(a * b for a in out for b in v)
    return out


def canonical_su3_spinor(rep: CliffordRep):
    """Distinguished lowest-eigenspace section, phase (1+i) times u(1,..,1)."""
    return vec_scale(u_spinor(rep, (1,) * rep.m), GQ(1, 1))


def su3_omega_action(rep: CliffordRep, om_plus: Form,
                     om_minus: Form) -> list:
    """Om+ Psi = -4i Psi-bar and Om+ Psi-bar = 4i Psi for the canonical
    section Psi; Om+ and Om- annihilate the six middle u spinors.  As (name,
    lhs, rhs) triples of vectors."""
    psi = canonical_su3_spinor(rep)
    bar = vec_conj(psi)
    mp, mm = rep.form_matrix(om_plus), rep.form_matrix(om_minus)
    middle = [u_spinor(rep, e) for e in ((1, 1, -1), (1, -1, 1), (-1, 1, 1),
                                         (1, -1, -1), (-1, 1, -1), (-1, -1, 1))]
    images = tuple(rows_apply(m, v) for v in middle for m in (mp, mm))
    return [("Om+ Psi = -4i Psi-bar", rows_apply(mp, psi),
             vec_scale(bar, GQ(0, -4))),
            ("Om+ Psi-bar = 4i Psi", rows_apply(mp, bar),
             vec_scale(psi, GQ(0, 4))),
            ("Om+ and Om- annihilate the middle u spinors", images,
             ((_ZERO,) * rep.dim,) * len(images))]


@cache
def charge_conjugation(rep: CliffordRep) -> tuple:
    """The word of C = T x E x T (m = 3); real symmetric, C^2 = 1,
    C rho = -rho^T C."""
    if rep.m != 3:
        raise AlgebraError("charge conjugation implemented for m = 3")
    return word_kron(_W_T, _W_E, _W_T)


def charge_conjugation_relations(rep: CliffordRep) -> list:
    """C^2 = 1, C symmetric, C real (even phases) and C rho(e_mu) =
    -rho(e_mu)^T C, as (name, lhs, rhs) triples of words and phases."""
    c = charge_conjugation(rep)
    tr = _word_transpose
    return [("C^2 = 1", word_mul(c, c), rep.word(())),
            ("C^T = C", tr(c), c),
            ("C is real", tuple(k % 2 for k in c[1]), (0,) * rep.dim),
            ("C rho(e_mu) = -rho(e_mu)^T C",
             tuple(word_mul(c, g) for g in rep.words),
             tuple(_word_neg(word_mul(tr(g), c)) for g in rep.words))]


def j_real_structure(rep: CliffordRep, psi):
    return word_apply(charge_conjugation(rep), vec_conj(psi))


def majorana_v_basis(rep: CliffordRep):
    """The eight real basis spinors (scaled; orthogonal, equal norms)."""
    if rep.m != 3:
        raise AlgebraError("v basis implemented for m = 3")
    us = {e: u_spinor(rep, e) for e in product((1, -1), repeat=3)}
    u = lambda *e: us[e]
    s = vec_scale
    vs = [
        vec_add(u(1, 1, 1), u(-1, -1, -1)),
        s(vec_add(u(1, 1, 1), s(u(-1, -1, -1), -1)), -I),
        vec_add(u(-1, 1, 1), s(u(1, -1, -1), -1)),
        s(vec_add(u(-1, 1, 1), u(1, -1, -1)), I),
        s(vec_add(u(1, -1, 1), u(-1, 1, -1)), -1),
        s(vec_add(u(1, -1, 1), s(u(-1, 1, -1), -1)), -I),
        vec_add(u(1, 1, -1), s(u(-1, -1, 1), -1)),
        s(vec_add(u(1, 1, -1), u(-1, -1, 1)), I),
    ]
    return vs


def real_rep7():
    """The eight-dimensional real representation by E_ij block matrices, as
    words: each ((i, j), sgn) puts -sgn at (i, j) and sgn at (j, i).

    These are the matrices forced by the complex representation through the
    v-basis dictionary (so relations and intertwining hold by construction).
    Relative to the quoted table they correspond to reversing the
    generator order e_2..e_7 and fixing one sign (the quoted -E_67 term
    does not anticommute with E_56 + E_78 and must be +E_67).
    """
    def word(pairs):
        perm, phase = [0] * 8, [0] * 8
        for (i, j), sgn in pairs:
            perm[i - 1], phase[i - 1] = j - 1, 1 + sgn  # -sgn = i^(1 + sgn)
            perm[j - 1], phase[j - 1] = i - 1, 1 - sgn
        return tuple(perm), tuple(phase)

    data = [
        [((1, 2), 1), ((3, 4), 1), ((5, 6), 1), ((7, 8), 1)],
        [((1, 8), 1), ((2, 7), 1), ((3, 6), 1), ((4, 5), 1)],
        [((1, 7), 1), ((2, 8), -1), ((3, 5), -1), ((4, 6), 1)],
        [((1, 6), 1), ((2, 5), 1), ((3, 8), -1), ((4, 7), -1)],
        [((1, 5), 1), ((2, 6), -1), ((3, 7), 1), ((4, 8), -1)],
        [((1, 4), 1), ((2, 3), 1), ((5, 8), 1), ((6, 7), 1)],
        [((1, 3), 1), ((2, 4), -1), ((5, 7), -1), ((6, 8), 1)],
    ]
    return tuple(word(d) for d in data)


def v_basis_dictionary(rep: CliffordRep, real: tuple, vs) -> list:
    """rho(e_mu) v_k = i^phase[l] v_l, where perm[l] = k, for each word
    (perm, phase) of the real representation ``real`` (``real_rep7()``),
    J v = v for the v spinors ``vs`` (Majorana), and their Hermitian Gram
    matrix n times the identity, n = herm(v_1, v_1), as (name, lhs, rhs)
    triples."""
    out = [(f"rho(e{mu}) acts on the v basis as real word {mu}",
            tuple(word_apply(g, vs[k]) for k in perm),
            tuple(tuple(times_i_pow(x, p) for x in v)
                  for v, p in zip(vs, phase)))
           for mu, (g, (perm, phase)) in enumerate(zip(rep.words, real), 1)]
    out.append(("the v spinors are Majorana",
                tuple(j_real_structure(rep, v) for v in vs), tuple(vs)))
    n = herm(vs[0], vs[0])
    out.append(("the v spinors are orthogonal with equal norms",
                tuple(tuple(herm(x, y) for y in vs) for x in vs),
                tuple(tuple(n if i == j else _ZERO for j in range(len(vs)))
                      for i in range(len(vs)))))
    return out


# ---------------------------------------------------------------------------
# bilinear reconstruction of differential forms
# ---------------------------------------------------------------------------

# empirical sign/prefactor conventions (see module docstring), as GQ
_FORM_PREFACTORS = {
    1: I,       # eta:  i (-1)^{m+1} <psi, e psi> at m odd
    2: I,       # fundamental 2-form, structure-module sign
    3: GQ(1),   # associative 3-form (Majorana bilinear)
    4: GQ(-1),  # coassociative 4-form
}


def _bilinears(rep: CliffordRep, pairs, degree: int, pref: GQ) -> dict:
    """idx -> pref sum herm(x, rho(e_idx) y) / |x_0|^2 over the spinor pairs
    (x, y), x_0 the first left spinor, for every increasing multi-index of
    the degree; zero values dropped.  A Hermitian norm is real, so |x_0|^2
    is a rational."""
    n = herm(pairs[0][0], pairs[0][0]).re
    if not n:
        raise AlgebraError("zero spinor")
    out = {}
    for idx in combinations(range(1, 2 * rep.m + 2), degree):
        w = rep.word(idx)
        c = pref * sum((word_herm(x, w, y) for x, y in pairs), _ZERO) / n
        if not c.is_zero:
            out[idx] = c
    return out


def form_from_spinor(rep: CliffordRep, psi, degree: int,
                     coframe: Coframe) -> Form:
    """Reconstruct a differential form from spinor bilinears.

    degree 1 and 2: almost-contact data of a lowest-eigenspace section;
    degree 3 and 4 with a Majorana spinor: the associated associative and
    coassociative forms.  Coefficients are rational; a zero spinor or a
    non-real coefficient is an error.
    """
    if degree not in _FORM_PREFACTORS:
        raise AlgebraError(f"unsupported degree: {degree}")
    terms = _bilinears(rep, [(psi, psi)], degree, _FORM_PREFACTORS[degree])
    for idx, c in terms.items():
        if c.im != 0:
            raise AlgebraError(f"non-real coefficient at {idx}: {c}")
    return coframe.form({idx: c.re for idx, c in terms.items()})


def holomorphic_volume_from_spinor(rep: CliffordRep, psi,
                                   coframe: Coframe) -> tuple[Form, Form]:
    """(real, imaginary) parts of the degree-m bilinear between psi-bar and psi."""
    terms = _bilinears(rep, [(vec_conj(psi), psi)], rep.m, I)
    return (coframe.form({idx: c.re for idx, c in terms.items() if c.re}),
            coframe.form({idx: c.im for idx, c in terms.items() if c.im}))


# ---------------------------------------------------------------------------
# eigenspace decomposition and purity
# ---------------------------------------------------------------------------

def sigma_fundamental_form(coframe: Coframe, m: int) -> Form:
    """Hermitian form in the eigenspace-decomposition sign convention."""
    terms = {}
    for a in range(1, m + 1):
        terms[(2 * a, 2 * a + 1)] = 1
    return coframe.form(terms)


SigmaDecomposition = namedtuple("SigmaDecomposition", "projectors dims")


def sigma_decompose(rep: CliffordRep, phi_form: Form) -> SigmaDecomposition:
    """Exact eigenprojectors of the fundamental-form Clifford action.

    Verifies the eigenvalues -i(2r - m) on Sigma_r, the eigenvalues
    i(-1)^r(-1)^m of the Reeb vector xi = e_1, the binomial dimensions and
    the membership equations for the extreme eigenspaces.
    """
    m = rep.m
    n = rep.dim
    terms = rep.terms(phi_form)
    eigs = [GQ(0, -(2 * r - m)) for r in range(m + 1)]
    factors = [word_rows(terms + [(-e, rep.word(()))], n)  # A - e
               for e in eigs]
    projectors, dims = [], []
    perm, phase = rep.words[0]  # the word of xi = e_1
    # P_r = N_r / prod_{s != r} (e_r - e_s); the numerators N_r have
    # Gaussian-integral entries and carry the checks.  (A - e_r) N_r = 0 for
    # every r makes the P_r the eigenprojectors; their sum is 1 for every A,
    # so it is not checked.
    for r, num in enumerate(lagrange_numerators(factors)):
        if any(matmul(factors[r], num)):  # (A - e_r) num = 0
            raise AlgebraError(f"eigenvalue check fails on Sigma_{r}")
        # the Reeb word permutes the rows of num and turns their phases
        xi_num = [{j: times_i_pow(x, k) for j, x in num[q].items()}
                  for q, k in zip(perm, phase)]
        if xi_num != rows_scale(num, GQ(0, (-1) ** r * (-1) ** m)):
            raise AlgebraError(f"Reeb eigenvalue check fails on Sigma_{r}")
        den = GQ(1)
        for e in eigs[:r] + eigs[r + 1:]:
            den = den * (eigs[r] - e)
        p = rows_scale(num, GQ(1) / den)
        tr = sum((p[i].get(i, _ZERO) for i in range(n)), _ZERO)
        if tr.b or tr.d != 1:
            raise AlgebraError("projector trace is not an integer")
        projectors.append(p)
        dims.append(tr.a)
    if dims != [comb(m, r) for r in range(m + 1)]:
        raise AlgebraError(f"eigenspace dimensions {dims} are wrong")
    return SigmaDecomposition(projectors, dims)


def lagrange_numerators(factors: list) -> list:
    """N_r = prod_{s != r} F_s for each r, as sparse rows, from the sparse
    rows of the factors F_s = A - e_s."""
    out = []
    for r in range(len(factors)):
        rest = factors[:r] + factors[r + 1:]
        num = rest[0]
        for f in rest[1:]:
            num = matmul(num, f)
        out.append(num)
    return out


def purity_dim(rep: CliffordRep, psi) -> int:
    """Complex dimension of the Clifford annihilator of psi in T^C.

    Also verifies that the annihilator is isotropic for the complex-bilinear
    extension of the metric.
    """
    if all(x.is_zero for x in psi):
        raise AlgebraError("zero spinor")
    cols = [word_apply(w, psi) for w in rep.words]
    matrix = [tuple(cols[mu][i] for mu in range(len(cols)))
              for i in range(rep.dim)]
    # imported on use, as structures is below: `show` of a spinor needs
    # neither module
    from .linsolve import nullspace
    kernel = nullspace(matrix)
    for v in kernel:
        for w in kernel:
            s = sum((a * b for a, b in zip(v, w)), GQ(0))
            if not s.is_zero:
                raise AlgebraError("annihilator is not isotropic")
    return len(kernel)


# ---------------------------------------------------------------------------
# the four distinguished spinors of the 3-contact geometry
# ---------------------------------------------------------------------------

def sp1_spinors(rep: CliffordRep) -> dict:
    """Canonical and auxiliary spinors in the adapted frame.

    Built from the distinguished section of the first almost contact
    structure: psi_2 = Psi_+, psi_3 = Psi_-, psi_1 = xi_2 Psi_-,
    psi_0 = -xi_2 Psi_+.  All four are Majorana.
    """
    if rep.m != 3:
        raise AlgebraError("the distinguished spinors live in dimension 7")
    plus, minus = majorana_pair(rep)
    xi2 = rep.words[1]
    return {
        0: vec_scale(word_apply(xi2, plus), -1),
        1: word_apply(xi2, minus),
        2: plus,
        3: minus,
    }


def majorana_pair(rep: CliffordRep) -> tuple:
    """The Majorana pair Psi+ = Psi + Psi-bar, Psi- = -i (Psi - Psi-bar) of
    the canonical section Psi."""
    psi = canonical_su3_spinor(rep)
    bar = vec_conj(psi)
    return vec_add(psi, bar), vec_scale(vec_add(psi, vec_scale(bar, -1)), -I)


def sp1_spinor_suite(rep: CliffordRep, frame: dict) -> list:
    """The distinguished-spinor identity list, as (name, lhs, rhs) triples.

    ``frame`` must provide the full hermitian 2-forms ``Phi[i]`` and the
    hermitian form ``sigma_form`` of the lowest eigenspace; the (1,1)-tensors
    are taken in the spinor-side convention (the negative of the
    structure-module fundamental form).  Each name is the quoted identity.
    """
    psi = sp1_spinors(rep)
    xi = lambda i: rep.words[i - 1]
    phi_spin = {i: rep.form_matrix(-frame["Phi"][i]) for i in (1, 2, 3)}
    checks = []
    for i in (1, 2, 3):
        checks += [
            (f"xi{i} psi0 = psi{i}", word_apply(xi(i), psi[0]), psi[i]),
            (f"psi0 = -xi{i} psi{i}",
             vec_scale(word_apply(xi(i), psi[i]), -1), psi[0]),
            (f"Phi{i} psi0 = xi{i} psi0",
             rows_apply(phi_spin[i], psi[0]), word_apply(xi(i), psi[0])),
            (f"Phi{i} psi{i} = xi{i} psi{i}",
             rows_apply(phi_spin[i], psi[i]), word_apply(xi(i), psi[i]))]
        checks += [(f"Phi{i} psi{j} = -3 xi{i} psi{j}",
                    rows_apply(phi_spin[i], psi[j]),
                    vec_scale(word_apply(xi(i), psi[j]), -3))
                   for j in (1, 2, 3) if j != i]
    checks += [(f"xi{i} psi{j} = psi{k}", word_apply(xi(i), psi[j]), psi[k])
               for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2))]
    # membership in the rank-2 bundles: psi_i solves the E_j equation, j != i
    checks += [_e_bundle_member(rep, frame["Phi"][j], j, i, psi[i])
               for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
    # lowest-eigenspace identity used in the Ricci argument
    sec = canonical_su3_spinor(rep)
    checks.append(("Phi Psi = -3 xi Psi (Sigma_0 section)",
                   rows_apply(rep.form_matrix(frame["sigma_form"]), sec),
                   vec_scale(word_apply(rep.words[0], sec), -3)))
    return checks


def _e_bundle_member(rep: CliffordRep, phi_j: Form, j: int, i: int,
                     psi) -> tuple:
    """psi_i in E_j: (-2 phi_j(X) + xi_j X - X xi_j) psi = 0 for every frame
    vector X, where the spinor-side phi_j(X) is X -| Phi_j for the form
    ``phi_j``; the left side is the seven vectors, flattened."""
    xi = rep.words[j - 1]
    g = rep.words
    lhs = []
    for x in range(1, 8):
        terms = [(1, word_mul(xi, g[x - 1])), (-1, word_mul(g[x - 1], xi)),
                 *rep.terms(-2 * phi_j.contract(x))]
        lhs += rows_apply(word_rows(terms, rep.dim), psi)
    return f"psi{i} in E{j}", tuple(lhs), (_ZERO,) * len(lhs)


def plus_minus_relations(rep: CliffordRep, frame: dict) -> list:
    """Reeb and horizontal Clifford relations of the +- spinor pair, as
    (name, lhs, rhs) triples.

    xi Psi_+ = Psi_-, X Psi_+ = phi(X) Psi_- and xi X Psi_+ = phi(X) Psi_+
    for the horizontal frame vectors X of structure 1, where the spinor-side
    phi(X) is X -| Phi_1.
    """
    plus, minus = majorana_pair(rep)
    g = rep.words
    phi_x = [rep.form_matrix(frame["Phi"][1].contract(x)) for x in range(2, 8)]
    return [("xi1 Psi+ = Psi-", word_apply(g[0], plus), minus),
            ("X Psi+ = phi(X) Psi-",
             tuple(word_apply(g[x - 1], plus) for x in range(2, 8)),
             tuple(rows_apply(p, minus) for p in phi_x)),
            ("xi X Psi+ = phi(X) Psi+",
             tuple(word_apply(word_mul(g[0], g[x - 1]), plus)
                   for x in range(2, 8)),
             tuple(rows_apply(p, plus) for p in phi_x))]


def sigma_membership(rep: CliffordRep, phi_form: Form) -> list:
    """Extreme-eigenspace membership equations for the canonical sections.

    phi(X) Psi + i X Psi + (-1)^m eta(X) Psi = 0 on the lowest eigenspace
    and the conjugated equation on the highest, where the spinor-side phi(X)
    is X -| Phi for the form ``phi_form``.  As two (name, lhs, rhs) triples:
    the left side at each frame vector X, and zeros.
    """
    m = rep.m
    psi = canonical_su3_spinor(rep)
    bar = vec_conj(psi)
    g = rep.words
    low, high = [], []
    for x in range(1, 2 * m + 2):
        phi_x = rep.terms(phi_form.contract(x))
        eta_x = [((-1) ** m, rep.word(()))] if x == 1 else []
        eta_bar = [(-1, rep.word(()))] if x == 1 else []
        low.append(rows_apply(word_rows([(I, g[x - 1]), *phi_x, *eta_x],
                                        rep.dim), psi))
        high.append(rows_apply(word_rows([(-I, g[x - 1]), *phi_x, *eta_bar],
                                         rep.dim), bar))
    zeros = ((_ZERO,) * rep.dim,) * len(low)
    return [("Psi lies in the lowest eigenspace", tuple(low), zeros),
            ("Psi-bar lies in the highest eigenspace", tuple(high), zeros)]


def stabilizer_dimension(phi: Form) -> int:
    """Dimension of the so(7) stabilizer of a 3-form (14 for a G2 form)."""
    from .exterior import basis_multi_indices, coefficient_matrix, derivation
    cols = []
    for a, b in basis_multi_indices(7, 2):
        rotation = [[0] * 7 for _ in range(7)]  # in the (a, b)-plane
        rotation[a - 1][b - 1], rotation[b - 1][a - 1] = 1, -1
        cols.append(derivation(phi, rotation))
    from .linsolve import nullspace
    return len(nullspace(coefficient_matrix(cols, basis_multi_indices(7, 3))))


def su3_killing_consequences(ring) -> list:
    """Frame-level consequences of the generalized Killing endomorphism on
    the su3 ring's coframe, as (name, lhs, rhs) triples.

    With S(xi) = -(3a - 4d) xi and S = a on the horizontal space, the stated
    covariant derivatives of (eta, Phi, Om) alternate into the structure
    equations: d eta = 2a Phi, d Phi = 0 and d Om = 4 i d eta ^ Om.
    """
    cf, frame, a, d = ring.coframe, ring.frame, ring.alpha, ring.delta
    # S(e_mu) = S[mu] e_mu
    S = {1: -(3 * a - 4 * d), **{mu: a for mu in range(2, 8)}}
    eta, phi = frame["eta"], frame["Phi"]
    # nabla eta = S(X) -| Phi on each frame leg; d eta = sum e^mu ^ nabla eta
    via_eta = tuple(S[mu] * phi.contract(mu) for mu in S)
    d_eta = sum((cf.e(mu) ^ via_eta[mu - 1] for mu in S), cf.zero())
    # d Phi = sum e^mu ^ (eta ^ S(e_mu)^flat) = 0
    d_phi = sum((cf.e(mu) ^ (eta ^ (S[mu] * cf.e(mu))) for mu in S), cf.zero())
    # d Om = i[(S xi)^flat ^ Om + eta ^ sum e^mu ^ (S e_mu -| Om)]
    om_p, om_m = frame["Om+"], frame["Om-"]
    contr_p, contr_m = (sum((cf.e(mu) ^ (a * om.contract(mu))
                             for mu in range(2, 8)), cf.zero())
                        for om in (om_p, om_m))
    # the two quoted derivative routes agree: the metric dual of
    # nabla xi = -phi(S(X)) equals nabla eta on every frame leg, with
    # phi(e_mu) = sum_y Phi(e_y, e_mu) e_y read off the coefficients
    dual = tuple(cf.form({(y,): -S[mu] * phi.coefficient((y, mu))
                          for y in cf.indices if y != mu}) for mu in S)
    return [
        ("alternation of nabla eta gives 2a Phi", d_eta, 2 * a * phi),
        ("alternation of nabla Phi vanishes", d_phi, cf.zero()),
        # real parts: d Om+ = -[S[1] eta ^ Om- + eta ^ (S -| Om)-part]
        ("alternation of nabla Om reproduces d Om+ = -4d eta Om-",
         -(S[1] * (eta ^ om_m)) - (eta ^ contr_m), -4 * d * (eta ^ om_m)),
        ("alternation of nabla Om reproduces d Om- = 4d eta Om+",
         (S[1] * (eta ^ om_p)) + (eta ^ contr_p), 4 * d * (eta ^ om_p)),
        ("metric dual of nabla xi = -phi(S) matches nabla eta = S -| Phi",
         via_eta, dual),
    ]


def spinor_registry() -> dict:
    """Spinors of the m = 3 representation addressable by label from the
    command line.

    Each label of ``SPINOR_LABELS`` maps to a zero-argument builder, so
    looking a label up builds neither the representation nor any spinor.
    """
    return {label: partial(_labelled_spinor, label)
            for label in SPINOR_LABELS}


def _labelled_spinor(label: str):
    rep = build_rep(3)
    if label.startswith("psi"):  # psi<i>.sp1
        return sp1_spinors(rep)[int(label[3])]
    if label.startswith("u("):  # u(e1,e2,e3)
        return u_spinor(rep, tuple(map(int, label[2:-1].split(","))))
    if label.startswith("v"):  # v1 .. v8
        return majorana_v_basis(rep)[int(label[1:]) - 1]
    return canonical_su3_spinor(rep)  # Psi.su3


def majorana_family_form(rep: CliffordRep, plus, minus, degree: int,
                         coframe: Coframe) -> Form:
    """Bilinear 3- or 4-form of the circle family of Majorana spinors.

    The family cos(t/2) Psi_+ - sin(t/2) Psi_- only enters bilinears through
    cos^2, sin^2 and sin cos, i.e. through ((1+c)/2, (1-c)/2, -s/2); the
    result is a Form with coefficients polynomial in the circle symbols
    ``c`` and ``s`` of ``coframe.table``.
    (In this realization the quoted circle of forms is traversed with the
    opposite parameter sense, i.e. Psi_- enters with a minus sign.)
    """
    if degree not in (3, 4):
        raise AlgebraError("family reconstruction supports degrees 3 and 4")
    if herm(plus, plus) != herm(minus, minus) or not herm(plus, minus).is_zero:
        raise AlgebraError("family spinors must be orthogonal of equal norm")
    pref = _FORM_PREFACTORS[degree]
    bpp = _bilinears(rep, [(plus, plus)], degree, pref)
    bmm = _bilinears(rep, [(minus, minus)], degree, pref)
    cross = _bilinears(rep, [(plus, minus), (minus, plus)], degree, pref)
    c, s = coframe.table.sym("c"), coframe.table.sym("s")
    w_pp, w_mm, w_cross = (1 + c) / 2, (1 - c) / 2, s / -2
    terms = {}
    for idx in sorted(bpp.keys() | bmm.keys() | cross.keys()):
        pp, mm, cr = (b.get(idx, _ZERO) for b in (bpp, bmm, cross))
        if pp.im != 0 or mm.im != 0 or cr.im != 0:
            raise AlgebraError("non-real family coefficient")
        coef = w_pp * pp.re + w_mm * mm.re + w_cross * cr.re
        if not coef.is_zero:
            terms[idx] = coef
    return coframe.form(terms)
