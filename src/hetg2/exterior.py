"""Exterior algebra on a fixed orthonormal coframe with Scalar coefficients.

``Form`` is the package's one sparse graded-form algebra: a coefficient per
monomial of its space.  On a ``Coframe`` the monomials are strictly
increasing multi-indices, with all antisymmetry signs absorbed into the
coefficients; the metric is the identity in this frame, the volume form is
e^{1...n} and vectors are identified with one-forms index-by-index.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from operator import xor
from typing import Iterable, Mapping, Optional, Sequence, Union

from .scalar import (AlgebraError, Scalar, SymbolTable, _accumulate, _Sums,
                     exact)


class DegreeError(AlgebraError):
    pass


def _sort_index(idx: tuple) -> tuple[Optional[tuple], int]:
    """Sort a multi-index, returning (sorted tuple, permutation sign)."""
    if len(set(idx)) != len(idx):
        return None, 0
    lst = list(idx)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    return tuple(lst), sign


@cache
def _merge(a: tuple, b: tuple) -> tuple[Optional[tuple], int]:
    """Concatenate and sort two increasing multi-indices with sign."""
    if set(a) & set(b):
        return None, 0
    out = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            sign *= (-1) ** (len(a) - i)
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), sign


def _drop(idx: tuple, i: int) -> tuple[tuple, int]:
    """The multi-index without its entry i, and the sign of moving i to the
    front."""
    pos = idx.index(i)
    return idx[:pos] + idx[pos + 1:], -1 if pos % 2 else 1


class Coframe:
    """The space of forms on an orthonormal coframe: monomials are strictly
    increasing multi-indices."""

    def __init__(self, table: SymbolTable, dim: int = 7):
        self.table = table
        self.dim = dim
        self.indices = tuple(range(1, dim + 1))

    mono_mul = staticmethod(_merge)
    mono_degree = staticmethod(len)

    @staticmethod
    def mono_label(idx: tuple) -> str:
        return f"e^{{{''.join(map(str, idx))}}}" if idx else "1"

    def zero(self) -> "Form":
        return Form(self, {})

    def one(self) -> "Form":
        return Form(self, {(): self.table.one()})

    def e(self, *idx: int) -> "Form":
        """Basis form e^{i1...ik} for strictly increasing indices."""
        if any(not 1 <= i <= self.dim for i in idx):
            raise AlgebraError(f"index out of range: {idx}")
        if len(set(idx)) != len(idx) or tuple(sorted(idx)) != tuple(idx):
            raise AlgebraError("basis indices must be strictly increasing")
        return Form(self, {tuple(idx): self.table.one()})

    def vol(self) -> "Form":
        return self.e(*self.indices)

    def form(self, terms: Mapping[tuple, Union[Scalar, int, Fraction]]) -> "Form":
        """Sum of c e^{idx}, each idx sorted with its sign, in range 1..dim."""
        out = _Sums()
        one = self.table.one()
        for idx, c in terms.items():
            if any(not 1 <= i <= self.dim for i in idx):
                raise AlgebraError(f"index out of range: {idx}")
            key, sign = _sort_index(tuple(idx))
            if key is None:
                continue
            if isinstance(c, Scalar):
                out.add(key, sign, c)
            else:
                out.add(key, sign * exact(c), one)
        return Form(self, out.scalars(self.table))


class Form:
    """Sparse graded form over a space; possibly inhomogeneous.

    The space supplies the coefficient ``table`` and its monomials:
    ``mono_mul(a, b)`` returns (product monomial or None, coefficient),
    ``mono_degree`` and ``mono_label``.  A Coframe is the space of coframe
    forms; a generated ring is the space of its GenForms.  ``coefficient``,
    ``contract`` and the metric operations read multi-indices, so they need
    a Coframe and raise AlgebraError over any other space.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space, terms: Mapping[tuple, Scalar]):
        self.space = space
        self.terms = {k: v for k, v in terms.items() if not v.is_zero}

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> Optional[int]:
        """Degree of a homogeneous form, None for the zero form."""
        degs = {self.space.mono_degree(m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise DegreeError(f"mixed-degree form: degrees {sorted(degs)}")
        return degs.pop()

    def homogeneous_part(self, k: int) -> "Form":
        deg = self.space.mono_degree
        return self.__class__(self.space, {m: c for m, c in self.terms.items()
                                           if deg(m) == k})

    def _coframe(self, method: str) -> Coframe:
        if not isinstance(self.space, Coframe):
            raise AlgebraError(f"{method} needs a coframe form, not a form "
                               f"over {type(self.space).__name__}")
        return self.space

    def coefficient(self, idx: tuple) -> Scalar:
        cf = self._coframe("coefficient")
        key, sign = _sort_index(tuple(idx))
        if key is None or key not in self.terms:
            return cf.table.zero()
        c = self.terms[key]
        return c if sign > 0 else -c

    # -- algebra -------------------------------------------------------------
    def _check(self, other: "Form"):
        if other.space is not self.space:
            raise AlgebraError("forms over different spaces")

    def __add__(self, other: "Form") -> "Form":
        self._check(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] + v if k in out else v
        return self.__class__(self.space, out)

    def __neg__(self) -> "Form":
        return self.__class__(self.space,
                              {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __mul__(self, c) -> "Form":
        if isinstance(c, Scalar):
            return self.__class__(self.space,
                                  {k: v * c for k, v in self.terms.items()})
        c = exact(c)  # a float raises TypeError
        return self.__class__(self.space,
                              {k: v._scale(c) for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, c) -> "Form":
        if isinstance(c, Scalar):
            return self * c.inverse()
        c = exact(c)  # a float divisor raises TypeError, as in __mul__
        if c == 0:  # refused even when the form is zero
            raise ZeroDivisionError("form division by zero")
        return self.__class__(self.space,
                              {k: v / c for k, v in self.terms.items()})

    def wedge(self, other: "Form") -> "Form":
        self._check(other)
        mono_mul = self.space.mono_mul
        out = _Sums()
        for i1, c1 in self.terms.items():
            for i2, c2 in other.terms.items():
                key, q = mono_mul(i1, i2)
                if key is not None:
                    out.add(key, q, c1, c2)
        return self.__class__(self.space, out.scalars(self.space.table))

    __xor__ = wedge

    @classmethod
    def combination(cls, space, coefficients: Mapping, image) -> "Form":
        """Sum of c * image(m) over the items (m, c) of ``coefficients``;
        each image is a form over ``space``."""
        out = _Sums()
        for m, c in coefficients.items():
            for k, v in image(m).terms.items():
                out.add(k, 1, c, v)
        return cls(space, out.scalars(space.table))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return self.space is other.space and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.space), frozenset(self.terms)))

    # -- metric operations -----------------------------------------------------
    def star(self) -> "Form":
        """Hodge star for the identity metric and volume e^{1...n}."""
        cf = self._coframe("star")
        self.degree()  # raises on mixed degree
        allidx = cf.indices
        out: dict[tuple, Scalar] = {}
        for idx, c in self.terms.items():
            comp = tuple(i for i in allidx if i not in idx)
            _, sign = _sort_index(idx + comp)
            out[comp] = c if sign > 0 else -c
        return Form(cf, out)

    def inner(self, other: "Form") -> Scalar:
        """Orthonormal-frame inner product (multi-index basis orthonormal)."""
        self._coframe("inner")
        self._check(other)
        d1, d2 = self.degree(), other.degree()
        if d1 is not None and d2 is not None and d1 != d2:
            raise DegreeError(f"inner product of degrees {d1} and {d2}")
        a: dict = {}
        for idx, c in self.terms.items():
            o = other.terms.get(idx)
            if o is not None:
                _accumulate(a, 1, c, o)
        return Scalar(self.space.table, a)

    def contract(self, v: Union[int, "Form"]) -> "Form":
        """Interior product with a frame vector (index) or a one-form."""
        cf = self._coframe("contract")
        if isinstance(v, Form):
            if v.degree() not in (None, 1):
                raise DegreeError("contraction vector must be a one-form")
            vector = [(i, c) for (i,), c in v.terms.items()]
        else:
            vector = [(v, None)]
        out = _Sums()
        for i, c in vector:
            for idx, w in self.terms.items():
                if i in idx:
                    key, sign = _drop(idx, i)
                    out.add(key, sign, w, c)
        return Form(cf, out.scalars(cf.table))

    # -- rendering ---------------------------------------------------------------
    def text(self) -> str:
        """Canonical dump: terms sorted by degree then monomial label."""
        if self.is_zero:
            return "0"
        sp = self.space
        keys = sorted(self.terms,
                      key=lambda m: (sp.mono_degree(m), sp.mono_label(m)))
        return "; ".join(f"{self.terms[m]} : {sp.mono_label(m)}"
                         for m in keys)

    def __str__(self) -> str:
        return self.text()

    __repr__ = __str__


def leibniz(factors: Sequence[Form], derivatives: Sequence[Form],
            zero: Form) -> Form:
    """d(f_1 ^ ... ^ f_n) by the graded Leibniz rule: the sum over i of
    (-1)^(deg f_1 + ... + deg f_(i-1)) f_1 ^ ... ^ d f_i ^ ... ^ f_n, where
    ``derivatives[i]`` is d ``factors[i]`` and ``zero`` is the zero form of
    their space.  Every exterior derivative of the package is this sum."""
    out, odd = zero, False
    for i, (f, df) in enumerate(zip(factors, derivatives)):
        term = reduce(xor, (*factors[:i], df, *factors[i + 1:]))
        out = out - term if odd else out + term
        odd = odd != (f.degree() % 2 == 1)
    return out


def contract_biform(beta: Form, omega: Form) -> Form:
    """Contraction of a 2-form into omega: sum beta_{mu<nu} e_mu-,(e_nu-,omega)."""
    cf = omega._coframe("contract_biform")
    out = _Sums()
    for (m, n), c in beta.terms.items():
        for idx, w in omega.terms.items():
            if m in idx and n in idx:
                rest, s1 = _drop(idx, n)
                key, s2 = _drop(rest, m)
                out.add(key, s1 * s2, w, c)
    return Form(cf, out.scalars(cf.table))


def basis_multi_indices(dim: int, k: int) -> list[tuple]:
    from itertools import combinations
    return [tuple(c) for c in combinations(range(1, dim + 1), k)]


def form_to_vector(f: Form, basis: Iterable[tuple]) -> list[Scalar]:
    return [f.terms.get(idx, f.space.table.zero()) for idx in basis]


def derivation(form: Form, endo) -> Form:
    """A coframe endomorphism acting on a constant-coefficient form as a
    derivation: e^mu -> -sum_nu endo[mu - 1][nu - 1] e^nu."""
    cf = form._coframe("derivation")
    out = _Sums()
    for idx, c in form.terms.items():
        for pos, mu in enumerate(idx):
            for nu, coef in enumerate(endo[mu - 1], 1):
                if coef:
                    key, sign = _sort_index(idx[:pos] + (nu,) + idx[pos + 1:])
                    if key is not None:
                        out.add(key, -sign * coef, c)
    return Form(cf, out.scalars(cf.table))


def coefficient_matrix(cols: Sequence[Form], keys: Iterable) -> list[list]:
    """Rational matrix: one row per monomial key, one column per form.

    Entries are the stored values (``int`` or ``Fraction``, see
    :func:`scalar.exact`), which ``linsolve.rref`` converts once, and one
    shared ``Fraction`` zero for an absent key."""
    zero = Fraction(0)
    return [[f.terms[k].as_rat() if k in f.terms else zero for f in cols]
            for k in keys]
