"""The Gaussian rationals ``GQ`` against a reference that holds a pair of
Fractions: arithmetic, conjugation, equality with int and Fraction, hashing,
the normal form of the stored integer triple, the exact types of the parts
and the refusal of floats."""

import operator
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from hetg2.spinor import GQ


class Ref:
    """a + b i with both parts held as Fractions."""

    def __init__(self, re, im=0):
        self.re, self.im = F(re), F(im)

    def __add__(self, o):
        return Ref(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return Ref(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return Ref(self.re * o.re - self.im * o.im,
                   self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im
        return Ref((self.re * o.re + self.im * o.im) / n,
                   (self.im * o.re - self.re * o.im) / n)

    def conj(self):
        return Ref(self.re, -self.im)

    def pair(self):
        return self.re, self.im


def pair(x: GQ) -> tuple:
    return F(x.re), F(x.im)


def assert_normal(x: GQ):
    """The triple is three ints in lowest terms with d > 0, and each part is
    an int exactly when it is integral, else a Fraction."""
    assert all(type(n) is int for n in (x.a, x.b, x.d))
    assert x.d > 0 and gcd(x.a, x.b, x.d) == 1
    for part in (x.re, x.im):
        assert type(part) is int or (type(part) is F
                                     and part.denominator != 1)


rats = st.one_of(st.integers(-40, 40),
                 st.fractions(min_value=-40, max_value=40,
                              max_denominator=12))
gqs = st.tuples(rats, rats)

OPS = (operator.add, operator.sub, operator.mul)


class TestAgainstFractionPairs:
    @settings(max_examples=80, deadline=None)
    @given(gqs, gqs)
    def test_arithmetic(self, x, y):
        gx, gy, rx, ry = GQ(*x), GQ(*y), Ref(*x), Ref(*y)
        for op in OPS:
            out = op(gx, gy)
            assert_normal(out)
            assert pair(out) == op(rx, ry).pair()
        if ry.pair() == (0, 0):
            with pytest.raises(ZeroDivisionError):
                gx / gy
        else:
            out = gx / gy
            assert_normal(out)
            assert pair(out) == (rx / ry).pair()
        assert pair(gx.conj()) == rx.conj().pair()
        assert pair(-gx) == (Ref(0) - rx).pair()
        assert_normal(gx)
        assert_normal(gx.conj())

    @settings(max_examples=60, deadline=None)
    @given(gqs, rats)
    def test_mixed_operands(self, x, q):
        # an int or Fraction operand on either side acts as q + 0 i
        gx, rx, rq = GQ(*x), Ref(*x), Ref(q)
        for op in OPS:
            assert pair(op(gx, q)) == op(rx, rq).pair()
            assert pair(op(q, gx)) == op(rq, rx).pair()
        if q != 0:
            assert pair(gx / q) == (rx / rq).pair()

    @settings(max_examples=60, deadline=None)
    @given(gqs, gqs)
    def test_equality_and_hash(self, x, y):
        gx, gy = GQ(*x), GQ(*y)
        assert (gx == gy) == (Ref(*x).pair() == Ref(*y).pair())
        # the same value reached two ways is one triple and one hash
        back = (gx + gy) - gy
        assert back == gx and hash(back) == hash(gx)
        assert (back.a, back.b, back.d) == (gx.a, gx.b, gx.d)

    @settings(max_examples=60, deadline=None)
    @given(rats, rats)
    def test_real_values_equal_their_rationals(self, q, t):
        g = GQ(q)
        assert g == q and g == F(q) and hash(g) == hash(q)
        assert g.im == 0 and type(g.im) is int
        if t != 0:
            assert GQ(q, t) != q

    @settings(max_examples=60, deadline=None)
    @given(gqs)
    def test_parts_are_exact(self, x):
        g = GQ(*x)
        assert (g.re, g.im) == (F(x[0]), F(x[1]))
        for part, given_part in zip((g.re, g.im), x):
            assert (type(part) is int) == (F(given_part).denominator == 1)


class TestRefusals:
    @pytest.mark.parametrize("args", [(0.5,), (1, 2.0), (True,), ("1",)])
    def test_constructor_refuses_non_rationals(self, args):
        with pytest.raises(TypeError):
            GQ(*args)

    @pytest.mark.parametrize("op", [*OPS, operator.truediv, operator.eq])
    def test_operations_refuse_floats(self, op):
        with pytest.raises(TypeError):
            op(GQ(1, 2), 0.5)
        if op is not operator.truediv:
            with pytest.raises(TypeError):
                op(0.5, GQ(1, 2))

    def test_division_by_zero(self):
        for zero in (GQ(0), 0, F(0)):
            with pytest.raises(ZeroDivisionError):
                GQ(1, 1) / zero
