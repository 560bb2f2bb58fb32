"""Exact coefficient arithmetic for the verification engine.

Scalars are Laurent polynomials over the rationals in a fixed, ordered list of
parameter symbols.  A symbol table may declare relation-ideal generators
(e.g. ``s^2 + c^2 - 1``); every scalar is kept in the unique normal form
obtained by rewriting the leading pure power of each relation.  A square root
is adjoined the same way: a symbol ``r`` with the relation ``r^2 - d`` makes
the table Q(sqrt d)[...], whose normal form ``a + b*r`` is unique.

Coefficients are exact rationals: an integral value is stored as a plain
``int`` and only a value with denominator other than 1 as a ``Fraction``
(see :func:`exact`).  No coefficient is ever a ``float``; the division sites
that could see two ``int`` operands build a ``Fraction`` first.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Optional, Union

from . import AlgebraError  # re-exported

Rat = Union[int, Fraction]


def exact(q: Rat) -> Rat:
    """The stored form of an exact rational: ``int`` when ``q`` is integral,
    otherwise a ``Fraction``.  A ``float`` (or any other type) is refused."""
    if type(q) is int:
        return q
    if isinstance(q, Fraction):
        return q.numerator if q.denominator == 1 else q
    raise TypeError(f"exact coefficient must be int or Fraction, "
                    f"not {type(q).__name__}")


class UnknownSymbolError(AlgebraError):
    def __init__(self, name: str):
        super().__init__(f"unknown symbol: {name}")
        self.name = name


class SymbolTable:
    """Ordered symbols and an optional relation ideal.

    Relations must have a lexicographic leading term that is a pure power of a
    single symbol with the remaining terms free of that symbol; they are
    compiled into rewrite rules ``x^k -> lower``.  This covers the linear and
    quadratic relation sets used here (e.g. ``s^2 -> 1 - c^2``,
    ``lam2^2 -> lam1^2 + 8/(3*alphap)``) and adjoined square roots: sqrt(d)
    is a symbol ``r`` with the relation ``r^2 - d``.
    """

    def __init__(self, symbols: Iterable[str]):
        self.symbols: tuple[str, ...] = tuple(symbols)
        if len(set(self.symbols)) != len(self.symbols):
            raise AlgebraError("duplicate symbols in table")
        self.index = {s: i for i, s in enumerate(self.symbols)}
        self.rules: list[tuple[int, int, Scalar]] = []
        # scalars are immutable, so 0 and 1 are shared
        self._zero = Scalar(self, {})
        self._one = Scalar(self, {self._unit(): 1})

    def add_relation(self, rel: "Scalar") -> None:
        """Declare a relation-ideal generator (done once, at setup time)."""
        self.rules.append(self._compile(rel))

    def _compile(self, rel: "Scalar") -> tuple[int, int, "Scalar"]:
        if rel.table is not self:
            raise AlgebraError("relation built over a different table")
        lead = max(rel._a)
        nz = [i for i, e in enumerate(lead) if e]
        if len(nz) != 1 or any(e < 0 for e in lead):
            raise AlgebraError("relation leading term must be a pure positive power")
        i = nz[0]
        k = lead[i]
        coef = rel._a[lead]
        rest = {}
        for mono, c in rel._a.items():
            if mono == lead:
                continue
            if mono[i] != 0:
                raise AlgebraError("relation tail must be free of the lead symbol")
            rest[mono] = Fraction(-c, coef)
        return (i, k, Scalar(self, rest))

    # -- constructors ------------------------------------------------------
    def zero(self) -> "Scalar":
        return self._zero

    def one(self) -> "Scalar":
        return self._one

    def rat(self, q: Rat) -> "Scalar":
        q = exact(q)
        if q == 0:
            return self._zero
        if q == 1:
            return self._one
        return Scalar(self, {self._unit(): q})

    def sym(self, name: str) -> "Scalar":
        return self.monomial(name, 1)

    def monomial(self, name: str, power: int, coef: Rat = 1) -> "Scalar":
        if name not in self.index:
            raise UnknownSymbolError(name)
        exps = [0] * len(self.symbols)
        exps[self.index[name]] = power
        if power < 0:
            self._refuse_negative_lead(exps)
        coef = exact(coef)
        if coef == 0:
            return self.zero()
        return Scalar(self, {tuple(exps): coef})

    def _unit(self) -> tuple[int, ...]:
        return (0,) * len(self.symbols)

    def relations_over(self, name: str) -> set:
        """The rules whose lead or tail involves the symbol ``name``, as text
        over symbol names, so that two tables can compare them."""
        return {f"{self.symbols[i]}^{k} -> {tail}" for i, k, tail in self.rules
                if name == self.symbols[i] or name in tail.support()}

    def _refuse_negative_lead(self, mono) -> None:
        """AlgebraError if a rule's lead symbol has a negative exponent: rules
        rewrite only its non-negative powers, so s^-2 * s^2 would not be 1."""
        if any(mono[i] < 0 for i, _, _ in self.rules):
            raise AlgebraError("negative power of a relation's lead symbol")


class Scalar:
    """Laurent polynomial in the table's symbols, stored as one dict ``_a``
    from exponent tuples to rationals; an adjoined sqrt(d) is one of those
    symbols, reduced by its relation ``r^2 - d`` like any other.

    Instances are immutable and always stored in normal form (relations
    rewritten, zero coefficients dropped).
    """

    __slots__ = ("table", "_a")

    def __init__(self, table: SymbolTable, a: Mapping[tuple, Rat],
                 _reduce: bool = True):
        self.table = table
        if _reduce and table.rules:
            a = _rewrite(table, a)
        self._a = {m: c if type(c) is int else exact(c)
                   for m, c in a.items() if c}

    # -- predicates --------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self._a

    def is_rational(self) -> bool:
        unit = self.table._unit()
        return all(m == unit for m in self._a)

    def as_rat(self) -> Rat:
        """The rational value of a constant scalar as stored (see
        :func:`exact`): an ``int`` when integral, else a ``Fraction``."""
        if self.is_zero:
            return 0
        if not self.is_rational():
            raise AlgebraError(f"not a rational constant: {self}")
        return self._a[self.table._unit()]

    def as_fraction(self) -> Fraction:
        return Fraction(self.as_rat())

    def support(self) -> set[str]:
        used = set()
        for mono in self._a:
            for i, e in enumerate(mono):
                if e:
                    used.add(self.table.symbols[i])
        return used

    # -- ring operations ----------------------------------------------------
    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.table is not self.table:
                raise AlgebraError("scalars from different symbol tables")
            return other
        if isinstance(other, (int, Fraction)):
            return self.table.rat(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "Scalar":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a = dict(self._a)
        _accumulate(a, 1, o)
        return Scalar(self.table, a, _reduce=False)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return self._scale(-1)

    def _scale(self, q: Rat) -> "Scalar":
        """q * self for an exact rational q; a float raises TypeError."""
        q = exact(q)
        return Scalar(self.table, {m: c * q for m, c in self._a.items()},
                      _reduce=False)

    def __sub__(self, other) -> "Scalar":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "Scalar":
        return (-self) + other

    def __mul__(self, other) -> "Scalar":
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a: dict = {}
        _accumulate(a, 1, self, o)
        return Scalar(self.table, a)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int) or n < 0:
            raise AlgebraError("powers must be non-negative integers")
        out = self.table.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __truediv__(self, other) -> "Scalar":
        """Division by a rational or by an invertible single-term scalar."""
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                raise ZeroDivisionError("scalar division by zero")
            return self._scale(1 / q)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def inverse(self) -> "Scalar":
        """Inverse of a single-term scalar (a monomial)."""
        if len(self._a) == 1:
            (mono, c), = self._a.items()
            inv = tuple(-e for e in mono)
            self.table._refuse_negative_lead(inv)
            return Scalar(self.table, {inv: Fraction(1, c)})
        raise AlgebraError(f"cannot invert non-monomial scalar: {self}")

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.table.rat(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.table is other.table and self._a == other._a

    def __hash__(self):
        return hash((id(self.table), frozenset(self._a.items())))

    # -- spec operations -----------------------------------------------------
    def subs(self, bindings: Mapping[str, Union["Scalar", Rat]],
             table: Optional[SymbolTable] = None) -> "Scalar":
        """Simultaneous substitution followed by reduction.

        Unbound symbols must exist in the target table; binding values live
        over the target table.  Raises :class:`UnknownSymbolError` for a
        binding key the source table does not declare, and AlgebraError for
        an unbound symbol whose relations differ between the two tables.
        """
        src = self.table
        dst = table if table is not None else src
        vals: dict[int, Scalar] = {}
        for name, v in bindings.items():
            if name not in src.index:
                raise UnknownSymbolError(name)
            if isinstance(v, (int, Fraction)):
                v = dst.rat(v)
            if v.table is not dst:
                raise AlgebraError("binding value over the wrong table")
            vals[src.index[name]] = v
        # group the terms by their bound exponents: each group is a product
        # of bound powers (each power built once) times a polynomial in the
        # unbound symbols, and the groups are summed raw and reduced once
        groups: dict[tuple, dict] = {}
        for mono, c in self._a.items():
            bound, free = [], [0] * len(dst.symbols)
            for i, e in enumerate(mono):
                if e and i in vals:
                    bound.append((i, e))
                elif e:
                    name = src.symbols[i]
                    if name not in dst.index:
                        raise UnknownSymbolError(name)
                    if dst is not src and (src.relations_over(name)
                                           != dst.relations_over(name)):
                        raise AlgebraError(f"the relations over {name} "
                                           "differ between the tables")
                    free[dst.index[name]] = e
            groups.setdefault(tuple(bound), {})[tuple(free)] = c
        powers: dict[tuple[int, int], Scalar] = {}
        a: dict = {}
        for bound, part in groups.items():
            value = None
            for i, e in bound:
                if (i, e) not in powers:
                    powers[i, e] = (vals[i] ** e if e > 0
                                    else vals[i].inverse() ** -e)
                value = powers[i, e] if value is None else value * powers[i, e]
            _accumulate(a, 1, Scalar(dst, part), value)
        return Scalar(dst, a)

    def laurent_order(self, var: str = "t") -> Optional[int]:
        """Lowest exponent of ``var`` with nonzero coefficient; None if zero.

        Requires the scalar to involve no symbol other than ``var``.
        """
        extra = self.support() - {var}
        if extra:
            raise AlgebraError(f"not a Laurent polynomial in {var}: "
                               f"also involves {sorted(extra)}")
        if self.is_zero:
            return None
        i = self.table.index[var]
        return min(m[i] for m in self._a)

    def coeffs_in(self, var: str) -> dict[int, "Scalar"]:
        """Coefficients of the powers of ``var``."""
        i = self.table.index[var]
        out: dict[int, dict] = {}
        for mono, c in self._a.items():
            if mono[i] < 0:
                raise AlgebraError("negative exponent in pseudo-division variable")
            rest = list(mono)
            deg = rest[i]
            rest[i] = 0
            out.setdefault(deg, {})[tuple(rest)] = c
        return {k: Scalar(self.table, v, _reduce=False)
                for k, v in sorted(out.items())}

    def div_exact(self, q: "Scalar", var: Optional[str] = None) -> "Scalar":
        """Exact polynomial division self / q; raises if it does not divide.

        ``var`` picks the main variable for the univariate division; when
        omitted the first symbol q actually uses is taken.
        """
        if q.is_zero:
            raise ZeroDivisionError("division by zero scalar")
        if var is None:
            used = sorted(q.support(), key=lambda s: self.table.index[s])
            if not used:
                return self / q.as_fraction()
            var = used[0]
        num = self.coeffs_in(var)
        den = q.coeffs_in(var)
        dq = max(den)
        lead = den[dq]
        quot: dict[int, Scalar] = {}
        while num:
            dn = max(num)
            if dn < dq:
                raise AlgebraError("not exactly divisible")
            c = num[dn]
            if len(lead.support()) == 0:
                piece = c / lead.as_fraction()
            else:
                piece = c.div_exact(lead)
            quot[dn - dq] = piece
            for k, dc in den.items():
                cur = num.get(dn - dq + k, self.table.zero())
                cur = cur - piece * dc
                if cur.is_zero:
                    num.pop(dn - dq + k, None)
                else:
                    num[dn - dq + k] = cur
        out = self.table.zero()
        for k, c in quot.items():
            out = out + c * self.table.monomial(var, k)
        return out

    # -- rendering -----------------------------------------------------------
    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        bits = []
        for mono in sorted(self._a, reverse=True):
            c = self._a[mono]
            factors = []
            for i, e in enumerate(mono):
                if e == 1:
                    factors.append(self.table.symbols[i])
                elif e != 0:
                    factors.append(f"{self.table.symbols[i]}^{e}")
            if not factors:
                bits.append(str(c))
            elif c == 1:
                bits.append("*".join(factors))
            elif c == -1:
                bits.append("-" + "*".join(factors))
            else:
                bits.append(str(c) + "*" + "*".join(factors))
        return " + ".join(bits).replace("+ -", "- ")

    __repr__ = __str__


def _accumulate(out: dict, q: Rat, x: Scalar,
                y: Optional[Scalar] = None) -> None:
    """Add q*x*y (q*x when y is None) into the raw monomial dict ``out``,
    rewriting nothing: the caller builds one Scalar from it.  Rewriting (the
    relations, r^2 -> d for an adjoined root among them) acts monomial by
    monomial, so reducing the sum once gives the sum of the reduced
    products."""
    if y is None:
        for m, c in x._a.items():
            out[m] = out.get(m, 0) + (c if q == 1 else c * q)
        return
    for m1, c1 in x._a.items():
        if q != 1:
            c1 = c1 * q
        for m2, c2 in y._a.items():
            m = tuple(map(add, m1, m2))
            out[m] = out.get(m, 0) + c1 * c2


class _Sums(dict):
    """Raw sums of rational multiples of scalar products, per key: each value
    is the monomial dict that :func:`_accumulate` adds into, and ``scalars``
    builds every key's coefficient with one Scalar call."""

    def add(self, key, q: Rat, x: Scalar, y: Optional[Scalar] = None) -> None:
        part = self.get(key)
        if part is None:
            part = self[key] = {}
        _accumulate(part, q, x, y)

    def scalars(self, table: SymbolTable) -> dict:
        return {k: Scalar(table, a) for k, a in self.items()}


def _rewrite(table: SymbolTable, part: Mapping[tuple, Rat]) -> dict:
    cur = dict(part)
    changed = True
    while changed:
        changed = False
        for i, k, repl in table.rules:
            nxt: dict = {}
            for mono, c in cur.items():
                if mono[i] >= k:
                    changed = True
                    base = list(mono)
                    base[i] -= k
                    for rm, rc in repl._a.items():
                        m = tuple(a + b for a, b in zip(base, rm))
                        s = nxt.get(m, 0) + c * rc
                        if s:
                            nxt[m] = s
                        else:
                            nxt.pop(m, None)
                else:
                    s = nxt.get(mono, 0) + c
                    if s:
                        nxt[mono] = s
                    else:
                        nxt.pop(mono, None)
            cur = nxt
    return cur


def prem(p: Scalar, h: Scalar, var: str) -> Scalar:
    """Pseudo-remainder of p by h in the variable ``var``.

    Returns r with lc(h)^k * p = q*h + r and deg_var(r) < deg_var(h); the
    ideal-membership test used for branch verification is ``prem(...) == 0``.
    """
    table = p.table
    den = h.coeffs_in(var)
    dh = max(den)
    lch = den[dh]
    cur = p
    while True:
        num = cur.coeffs_in(var)
        if not num:
            return table.zero()
        dn = max(num)
        if dn < dh or num[dn].is_zero:
            nz = {k: v for k, v in num.items() if not v.is_zero}
            if not nz or max(nz) < dh:
                return cur
            dn = max(nz)
        cur = lch * cur - num[dn] * table.monomial(var, dn - dh) * h
