"""Exact coefficient arithmetic for the verification engine.

Scalars are Laurent polynomials over the rationals in a fixed, ordered list of
parameter symbols, optionally extended by a single adjoined square root
``sqrt(d)`` (written as a conjugate pair ``a + b*sqrt(d)``).  A symbol table
may declare relation-ideal generators (e.g. ``s^2 + c^2 - 1``); every scalar
is kept in the unique normal form obtained by rewriting the leading pure
power of each relation.

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
    """Ordered symbols, optional relation ideal, optional adjoined sqrt(d).

    Relations must have a lexicographic leading term that is a pure power of a
    single symbol with the remaining terms free of that symbol; they are
    compiled into rewrite rules ``x^k -> lower``.  This covers the linear and
    quadratic relation sets used here (e.g. ``s^2 -> 1 - c^2``,
    ``lam2^2 -> lam1^2 + 8/(3*alphap)``).
    """

    def __init__(self, symbols: Iterable[str], relations: Iterable["Scalar"] = (),
                 sqrt_d: Optional[Rat] = None):
        self.symbols: tuple[str, ...] = tuple(symbols)
        if len(set(self.symbols)) != len(self.symbols):
            raise AlgebraError("duplicate symbols in table")
        self.index = {s: i for i, s in enumerate(self.symbols)}
        self.sqrt_d: Optional[Rat] = None if sqrt_d is None else exact(sqrt_d)
        if self.sqrt_d is not None and self.sqrt_d <= 0:
            raise AlgebraError("adjoined square root must be of a positive rational")
        self.rules: list[tuple[int, int, Scalar]] = []
        self.relations: tuple[Scalar, ...] = ()
        # scalars are immutable, so 0 and 1 are shared
        self._zero = Scalar(self, {}, {})
        self._one = Scalar(self, {self._unit(): 1}, {})
        for rel in relations:
            self.add_relation(rel)

    def add_relation(self, rel: "Scalar") -> None:
        """Declare a relation-ideal generator (done once, at setup time)."""
        self.rules.append(self._compile(rel))
        self.relations = self.relations + (rel,)

    def _compile(self, rel: "Scalar") -> tuple[int, int, "Scalar"]:
        if rel.table is not self:
            raise AlgebraError("relation built over a different table")
        if rel._b:
            raise AlgebraError("relations may not involve the adjoined root")
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
        return (i, k, Scalar(self, rest, {}))

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
        return Scalar(self, {self._unit(): q}, {})

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
        return Scalar(self, {tuple(exps): coef}, {})

    def sqrt(self) -> "Scalar":
        """The adjoined root sqrt(d) as a scalar."""
        if self.sqrt_d is None:
            raise AlgebraError("table has no adjoined square root")
        return Scalar(self, {}, {self._unit(): 1})

    def _unit(self) -> tuple[int, ...]:
        return (0,) * len(self.symbols)

    def _refuse_negative_lead(self, mono) -> None:
        """AlgebraError if a rule's lead symbol has a negative exponent: rules
        rewrite only its non-negative powers, so s^-2 * s^2 would not be 1."""
        if any(mono[i] < 0 for i, _, _ in self.rules):
            raise AlgebraError("negative power of a relation's lead symbol")


class Scalar:
    """Element ``a + b*sqrt(d)`` with Laurent-polynomial parts a, b.

    Instances are immutable and always stored in normal form (relations
    rewritten, zero coefficients dropped).
    """

    __slots__ = ("table", "_a", "_b")

    def __init__(self, table: SymbolTable, a: Mapping[tuple, Rat],
                 b: Mapping[tuple, Rat], _reduce: bool = True):
        self.table = table
        if b and table.sqrt_d is None:
            raise AlgebraError("radical part without an adjoined root")
        if _reduce and table.rules:
            a = _rewrite(table, a)
            b = _rewrite(table, b)
        self._a = {m: c if type(c) is int else exact(c)
                   for m, c in a.items() if c}
        self._b = {m: c if type(c) is int else exact(c)
                   for m, c in b.items() if c}

    # -- predicates --------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self._a and not self._b

    def is_rational(self) -> bool:
        unit = self.table._unit()
        return not self._b and all(m == unit for m in self._a)

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
        for part in (self._a, self._b):
            for mono in part:
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
        a, b = dict(self._a), dict(self._b)
        _accumulate(a, b, 1, o)
        return Scalar(self.table, a, b, _reduce=False)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return self._scale(-1)

    def _scale(self, q: Rat) -> "Scalar":
        """q * self for an exact rational q; a float raises TypeError."""
        q = exact(q)
        return Scalar(self.table, {m: c * q for m, c in self._a.items()},
                      {m: c * q for m, c in self._b.items()}, _reduce=False)

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
        b: dict = {}
        _accumulate(a, b, 1, self, o)
        return Scalar(self.table, a, b)

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
        """Inverse of a single-term scalar (monomial, possibly times sqrt(d))."""
        t = self.table
        part = self._a or self._b
        if len(part) == 1 and not (self._a and self._b):
            (mono, c), = part.items()
            inv = tuple(-e for e in mono)
            t._refuse_negative_lead(inv)
            if self._a:
                return Scalar(t, {inv: Fraction(1, c)}, {})
            return Scalar(t, {}, {inv: Fraction(1, c * t.sqrt_d)})
        raise AlgebraError(f"cannot invert non-monomial scalar: {self}")

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.table.rat(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.table is other.table and self._a == other._a
                and self._b == other._b)

    def __hash__(self):
        return hash((id(self.table), frozenset(self._a.items()),
                     frozenset(self._b.items())))

    # -- spec operations -----------------------------------------------------
    def reduced(self) -> "Scalar":
        """Normal form modulo the relation ideal (idempotent)."""
        return Scalar(self.table, self._a, self._b)

    def subs(self, bindings: Mapping[str, Union["Scalar", Rat]],
             table: Optional[SymbolTable] = None) -> "Scalar":
        """Simultaneous substitution followed by reduction.

        Unbound symbols must exist in the target table; binding values live
        over the target table.  Raises :class:`UnknownSymbolError` for a
        binding key the source table does not declare.
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
        groups: dict[tuple, tuple[dict, dict]] = {}
        for part, radical in ((self._a, False), (self._b, True)):
            if part and radical and dst.sqrt_d != src.sqrt_d:
                raise AlgebraError("adjoined roots differ between tables")
            for mono, c in part.items():
                bound, free = [], [0] * len(dst.symbols)
                for i, e in enumerate(mono):
                    if e and i in vals:
                        bound.append((i, e))
                    elif e:
                        name = src.symbols[i]
                        if name not in dst.index:
                            raise UnknownSymbolError(name)
                        free[dst.index[name]] = e
                groups.setdefault(tuple(bound), ({}, {}))[radical][tuple(free)] = c
        powers: dict[tuple[int, int], Scalar] = {}
        a: dict = {}
        b: dict = {}
        for bound, (pa, pb) in groups.items():
            value = None
            for i, e in bound:
                if (i, e) not in powers:
                    powers[i, e] = (vals[i] ** e if e > 0
                                    else vals[i].inverse() ** -e)
                value = powers[i, e] if value is None else value * powers[i, e]
            _accumulate(a, b, 1, Scalar(dst, pa, pb), value)
        return Scalar(dst, a, b)

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
        return min(m[i] for part in (self._a, self._b) for m in part)

    def coeffs_in(self, var: str) -> dict[int, "Scalar"]:
        """Coefficients of powers of ``var`` (radical part must be absent)."""
        if self._b:
            raise AlgebraError("coeffs_in does not support radical parts")
        i = self.table.index[var]
        out: dict[int, dict] = {}
        for mono, c in self._a.items():
            if mono[i] < 0:
                raise AlgebraError("negative exponent in pseudo-division variable")
            rest = list(mono)
            deg = rest[i]
            rest[i] = 0
            out.setdefault(deg, {})[tuple(rest)] = c
        return {k: Scalar(self.table, v, {}, _reduce=False)
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
        parts = []
        a = _part_text(self.table, self._a)
        if a:
            parts.append(a)
        if self._b:
            b = _part_text(self.table, self._b)
            d = self.table.sqrt_d
            dtxt = str(d.numerator) if d.denominator == 1 else str(d)
            parts.append(f"({b})*sqrt({dtxt})")
        return " + ".join(parts)

    __repr__ = __str__


def _accumulate(a: dict, b: dict, q: Rat, x: Scalar,
                y: Optional[Scalar] = None) -> None:
    """Add q*x*y (q*x when y is None) into the raw monomial dicts of
    a + b*sqrt(d), rewriting nothing: the caller builds one Scalar from them.
    Rewriting acts monomial by monomial, so reducing the sum once gives the
    sum of the reduced products."""
    if y is None:
        for src, out in ((x._a, a), (x._b, b)):
            for m, c in src.items():
                out[m] = out.get(m, 0) + (c if q == 1 else c * q)
        return
    qd = q * x.table.sqrt_d if x._b and y._b else None
    for xs, ys, out, r in ((x._a, y._a, a, q), (x._a, y._b, b, q),
                           (x._b, y._a, b, q), (x._b, y._b, a, qd)):
        if not xs or not ys:
            continue
        for m1, c1 in xs.items():
            if r != 1:
                c1 = c1 * r
            for m2, c2 in ys.items():
                m = tuple(map(add, m1, m2))
                out[m] = out.get(m, 0) + c1 * c2


class _Sums(dict):
    """Raw sums of rational multiples of scalar products, per key: each value
    is the pair (a, b) that :func:`_accumulate` adds into, and ``scalars``
    builds every key's coefficient with one Scalar call."""

    def add(self, key, q: Rat, x: Scalar, y: Optional[Scalar] = None) -> None:
        pair = self.get(key)
        if pair is None:
            pair = self[key] = ({}, {})
        _accumulate(pair[0], pair[1], q, x, y)

    def scalars(self, table: SymbolTable) -> dict:
        return {k: Scalar(table, a, b) for k, (a, b) in self.items()}


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


def _part_text(table: SymbolTable, part: Mapping[tuple, Rat]) -> str:
    bits = []
    for mono in sorted(part, reverse=True):
        c = part[mono]
        factors = []
        for i, e in enumerate(mono):
            if e == 1:
                factors.append(table.symbols[i])
            elif e != 0:
                factors.append(f"{table.symbols[i]}^{e}")
        if not factors:
            bits.append(str(c))
        elif c == 1:
            bits.append("*".join(factors))
        elif c == -1:
            bits.append("-" + "*".join(factors))
        else:
            bits.append(str(c) + "*" + "*".join(factors))
    text = " + ".join(bits)
    return text.replace("+ -", "- ")


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
