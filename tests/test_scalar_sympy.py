"""Differential oracle: ``Scalar`` arithmetic against sympy.

Small random Laurent polynomials in x, y (any sign of exponent) and s, c
(non-negative exponents) are built over four tables: plain, with the
relation 2 s^2 + c^2 - 3 (so the rewrite rule s^2 -> (3 - c^2)/2 has a
non-integral tail), with sqrt(2) adjoined as a symbol r with r^2 = 2 (also
drawn with non-negative exponents), and with both.  Every result is
converted to a sympy expression, reading r as ``sympy.sqrt(2)``, and
compared with the same operation done by sympy, reduced modulo the relation
by ``sympy.rem`` in s.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from hetg2.scalar import AlgebraError, Scalar, SymbolTable, prem  # noqa: E402

NAMES = ("x", "y", "s", "c")
LAURENT = {"x", "y"}
SYMS = sympy.symbols(NAMES)
X, Y, S, C = SYMS
REL = 2 * S ** 2 + C ** 2 - 3
D = 2
VALUES = (*SYMS, sympy.sqrt(D))  # what each table symbol reads as, r last


def make(relation: bool, radical: bool) -> SymbolTable:
    t = SymbolTable(NAMES + ("r",) if radical else NAMES)
    if radical:
        t.add_relation(t.sym("r") ** 2 - D)
    if relation:
        t.add_relation(2 * t.sym("s") ** 2 + t.sym("c") ** 2 - 3)
    return t


TABLES = {(rel, rad): make(rel, rad)
          for rel in (False, True) for rad in (False, True)}
CONFIGS = sorted(TABLES)
EXACT = [TABLES[(rel, False)] for rel in (False, True)]

coefficients = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6))


def exponents(table: SymbolTable, laurent: bool):
    return st.tuples(*[st.integers(-2, 2) if laurent and n in LAURENT
                       else st.integers(0, 2) for n in table.symbols])


@st.composite
def scalars(draw, table: SymbolTable, laurent: bool = True):
    return Scalar(table, draw(st.dictionaries(exponents(table, laurent),
                                              coefficients, max_size=3)))


def to_sympy(x: Scalar):
    out = sympy.Integer(0)
    for mono, c in x._a.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for value, e in zip(VALUES, mono):
            term *= value ** e
        out += term
    return out


def normal(expr, table: SymbolTable):
    expr = sympy.expand(expr)
    if "s" in (table.symbols[i] for i, _, _ in table.rules):
        expr = sympy.rem(expr, REL, S)
    return sympy.expand(expr)


def same(x: Scalar, expr) -> bool:
    return sympy.expand(to_sympy(x) - normal(expr, x.table)) == 0


def stored_exact(x: Scalar) -> bool:
    return all(type(c) is int or (type(c) is F and c.denominator != 1)
               for c in x._a.values())


@pytest.mark.parametrize("key", CONFIGS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_ring_operations(key, data):
    t = TABLES[key]
    x, y = data.draw(scalars(t)), data.draw(scalars(t))
    sx, sy = to_sympy(x), to_sympy(y)
    for out, expr in ((x + y, sx + sy), (x - y, sx - sy), (x * y, sx * sy)):
        assert same(out, expr)
        assert stored_exact(out)


@st.composite
def bindings(draw, table: SymbolTable):
    """A symbol and a value for it; a Laurent symbol gets an invertible
    single-term value (free of r, which has no inverse), so its negative
    powers are defined."""
    name = draw(st.sampled_from(NAMES))
    coef = draw(coefficients.filter(bool))
    if draw(st.booleans()):
        return name, coef
    if name not in LAURENT:
        return name, draw(scalars(table))
    mono = draw(exponents(table, True))[:2]
    return name, Scalar(table, {mono + (0,) * (len(table.symbols) - 2): coef})


@pytest.mark.parametrize("key", CONFIGS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_subs(key, data):
    t = TABLES[key]
    x = data.draw(scalars(t))
    name, value = data.draw(bindings(t))
    sval = (sympy.Rational(value.numerator, value.denominator)
            if isinstance(value, (int, F)) else to_sympy(value))
    out = x.subs({name: value})
    assert same(out, to_sympy(x).subs(SYMS[NAMES.index(name)], sval))
    assert stored_exact(out)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_div_exact(data):
    t = TABLES[(False, False)]
    q = data.draw(st.one_of(
        coefficients.filter(bool).map(t.rat),
        scalars(t, laurent=False).filter(lambda v: not v.is_zero)))
    p = data.draw(scalars(t, laurent=False))
    r = data.draw(st.one_of(st.just(t.zero()), scalars(t, laurent=False)))
    n = p * q + r
    sq, sn = to_sympy(q), to_sympy(n)
    quo, rem = sympy.div(sn, sq, *SYMS)
    if rem == 0:
        out = n.div_exact(q)
        assert same(out, quo)
        assert stored_exact(out)
    else:
        with pytest.raises(AlgebraError):
            n.div_exact(q)


@pytest.mark.parametrize("t", EXACT, ids=["plain", "relation"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_prem(t, data):
    """prem(p, h, x) = lc(h)^k p mod h for some k <= deg p - deg h + 1, so
    it agrees with sympy's prem up to a power of lc(h); modulo the relation
    the two agree because Q[y, s, c]/(2 s^2 + c^2 - 3) is a domain."""
    h = data.draw(scalars(t, laurent=False).filter(lambda v: not v.is_zero))
    p = data.draw(scalars(t, laurent=False))
    out = prem(p, h, "x")
    assert stored_exact(out)
    sp_, sh = to_sympy(p), to_sympy(h)
    dh = sympy.degree(sh, X)
    assert out.is_zero or sympy.degree(to_sympy(out), X) < dh
    ref = normal(sympy.prem(sp_, sh, X), t)
    lch = sympy.LC(sympy.Poly(sh, X))
    k_max = max(sympy.degree(sp_, X) - dh + 1, 0)
    assert any(sympy.expand(normal(lch ** j * to_sympy(out), t) - ref) == 0
               for j in range(k_max + 1))
    assert out.is_zero == (ref == 0)
