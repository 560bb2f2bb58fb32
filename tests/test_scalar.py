from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from hetg2.scalar import (AlgebraError, Scalar, SymbolTable,
                          UnknownSymbolError, exact, prem)


def root_table(symbols, d):
    """A table over Q(sqrt d): the extra symbol r with the relation r^2 = d."""
    t = SymbolTable((*symbols, "r"))
    t.add_relation(t.sym("r") ** 2 - d)
    return t


def reduced(x):
    """x rebuilt from its stored monomials, which reduces them again."""
    return Scalar(x.table, x._a)


def table():
    t = SymbolTable(("alpha", "delta", "lam", "lam1", "lam2", "alphap",
                     "s", "c"))
    t.add_relation(t.sym("s") ** 2 + t.sym("c") ** 2 - 1)
    return t


T = table()
AL, DE, S, C = T.sym("alpha"), T.sym("delta"), T.sym("s"), T.sym("c")

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=5)


@st.composite
def scalars(draw):
    out = T.zero()
    for _ in range(draw(st.integers(0, 3))):
        coef = draw(rationals)
        ea = draw(st.integers(0, 2))
        ed = draw(st.integers(0, 2))
        es = draw(st.integers(0, 2))
        out = out + coef * AL ** ea * DE ** ed * S ** es
    return out


class TestReduce:
    def test_defining_relation(self):
        assert S ** 2 + C ** 2 == T.one()

    def test_relation_times_symbol(self):
        assert ((S ** 2 + C ** 2) * AL - AL).is_zero

    def test_beta_expansion(self):
        beta = 2 * (DE - 2 * AL)
        assert (beta + 2 * (2 * AL - DE)).is_zero

    def test_idempotent(self):
        x = (S + C) ** 3 * AL - 5 * DE * S ** 4
        assert reduced(x) == x

    def test_negative_power_of_lead_symbol_refused(self):
        # s^-2 s^2 used to be stored as -s^-2*c^2 + s^-2, not 1: the rule
        # s^2 -> 1 - c^2 rewrites only non-negative powers
        with pytest.raises(AlgebraError, match="lead symbol"):
            T.monomial("s", -2)
        for x in (S, 3 * S * AL, T.monomial("s", 1, F(2, 3))):
            with pytest.raises(AlgebraError, match="lead symbol"):
                x.inverse()
            with pytest.raises(AlgebraError, match="lead symbol"):
                AL / x
        # symbols that lead no rule keep their negative powers
        assert T.monomial("c", -2) * C ** 2 == 1
        assert (S * C ** 2 / C) == S * C
        # sqrt(2) is the lead symbol r of r^2 = 2, so it is not inverted
        rt = root_table(("s", "c"), 2)
        rt.add_relation(rt.sym("s") ** 2 + rt.sym("c") ** 2 - 1)
        r = rt.sym("r")
        for x in (r * rt.sym("s"), r * rt.sym("c")):
            with pytest.raises(AlgebraError, match="lead symbol"):
                x.inverse()
        assert r * rt.sym("c") / rt.sym("c") == r


class TestSubstitute:
    def test_exact_solution_point(self):
        x = 12 * T.sym("alphap") * AL ** 2
        assert x.subs({"alpha": 1, "alphap": F(1, 12)}) == 1

    def test_beta_value(self):
        beta = 2 * (DE - 2 * AL)
        assert beta.subs({"delta": 0, "alpha": 1}) == -4

    def test_identity(self):
        x = AL ** 2 - DE
        assert x.subs({}) == x

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError) as err:
            AL.subs({"zeta": 1})
        assert "zeta" in str(err.value)

    def test_cross_table(self):
        tt = SymbolTable(("t",))
        x = AL * DE
        assert x.subs({"alpha": tt.sym("t"), "delta": tt.sym("t")},
                      table=tt) == tt.sym("t") ** 2


class TestLaurentOrder:
    def test_sqrt12_denominator(self):
        # 48 t^4 / sqrt(12) = 48 t^4 * r / 6 with r^2 = 3: it still involves
        # r, so it has no t-order; its square is free of r
        tt = root_table(("t",), 3)
        t, r = tt.sym("t"), tt.sym("r")
        x = 48 * t ** 4 * (r / 6)
        assert x == 8 * r * t ** 4
        with pytest.raises(AlgebraError, match="not a Laurent polynomial"):
            x.laurent_order("t")
        assert x * x == 192 * t ** 8
        assert (x * x).laurent_order("t") == 8

    def test_plain_power(self):
        tt = SymbolTable(("t",))
        assert (tt.sym("t") ** 2).laurent_order("t") == 2

    def test_zero_is_distinguished(self):
        tt = SymbolTable(("t",))
        assert tt.zero().laurent_order("t") is None

    def test_sqrt6_with_inverse(self):
        tt = root_table(("t",), 6)
        t, r = tt.sym("t"), tt.sym("r")
        y = 6 * t ** 5 * r / t
        assert y == 6 * r * t ** 4
        with pytest.raises(AlgebraError, match="not a Laurent polynomial"):
            y.laurent_order("t")
        assert y * y == 216 * t ** 8
        assert (y * y).laurent_order("t") == 8

    def test_foreign_symbol_rejected(self):
        with pytest.raises(AlgebraError):
            (AL * DE).laurent_order("alpha")


class TestExtension:
    def test_conjugate_product(self):
        tt = root_table(("t",), 3)
        r = tt.sym("r")
        a = 3 + tt.sym("t")
        b = tt.sym("t") ** 2 - F(1, 2)
        z = (a + b * r) * (a - b * r)
        assert z == a * a - 3 * b * b
        assert "r" not in z.support()

    def test_sqrt_squares_to_d(self):
        tt = root_table(("t",), F(8, 3))
        assert tt.sym("r") * tt.sym("r") == tt.rat(F(8, 3))

    def test_radical_inverse(self):
        # r is the lead symbol of r^2 - 12, and rules rewrite only its
        # non-negative powers: dividing by sqrt(12) is refused
        tt = root_table(("t",), 12)
        r = tt.sym("r")
        with pytest.raises(AlgebraError, match="lead symbol"):
            r.inverse()
        with pytest.raises(AlgebraError, match="lead symbol"):
            tt.one() / r
        assert r * (r / 12) == tt.one()

    def test_normal_form_is_linear_in_r(self):
        # Q[r]/(r^2 - d): every power of r reduces to d^(n//2) * r^(n%2)
        tt = root_table(("t",), 3)
        r, t = tt.sym("r"), tt.sym("t")
        assert r ** 5 == 9 * r and r ** 4 == 9
        x = (1 + r * t) ** 3
        assert x == 1 + 9 * t ** 2 + (3 * t + 3 * t ** 3) * r
        assert all(m[1] in (0, 1) for m in x._a)

    def test_subs_carries_r_by_name(self):
        # r is an ordinary symbol: a target table must declare it
        tt = root_table(("t",), 3)
        x = tt.sym("r") * tt.sym("t")
        with pytest.raises(UnknownSymbolError, match="r"):
            x.subs({}, table=SymbolTable(("t",)))
        wide = root_table(("u", "t"), 3)
        assert x.subs({"t": 2}, table=wide) == 2 * wide.sym("r")


class TestDivisionAndPrem:
    def test_div_exact(self):
        lam = T.sym("lam")
        beta = 2 * (DE - 2 * AL)
        p = -(beta + lam) * lam
        q = p.div_exact(lam, "lam").div_exact(beta + lam, "lam")
        assert q == T.rat(-1)

    def test_div_exact_failure(self):
        with pytest.raises(AlgebraError):
            (AL ** 2 + 1).div_exact(AL + 1, "alpha")

    def test_prem_linear(self):
        ap = T.sym("alphap")
        h = 12 * ap * AL ** 2 - 1
        p = 4 * AL ** 2 - 48 * ap * AL ** 4
        assert prem(p, h, "alphap").is_zero

    def test_prem_quadratic(self):
        l2, ap = T.sym("lam2"), T.sym("alphap")
        h = 3 * ap * l2 ** 2 - 8
        p = 9 * ap ** 2 * l2 ** 4 - 64  # (3 ap l2^2 - 8)(3 ap l2^2 + 8)
        assert prem(p, h, "lam2").is_zero


def stored(x):
    return list(x._a.values())


class TestExactCoefficients:
    def test_exact(self):
        assert type(exact(F(6, 3))) is int and exact(F(6, 3)) == 2
        assert type(exact(-4)) is int
        q = F(-1, 3)
        assert exact(q) is q
        for bad in (0.5, 2.0, "1/2"):
            with pytest.raises(TypeError):
                exact(bad)

    def test_constructors_store_int_when_integral(self):
        tt = root_table(("t",), F(8, 2))
        tail = tt.rules[0][2]  # r^2 -> 8/2
        assert stored(tail) == [4] and type(stored(tail)[0]) is int
        for x in (tt.rat(F(6, 3)), tt.monomial("t", 2, F(-4, 2)),
                  tt.sym("r") ** 3,
                  tt.sym("t") * F(3, 2) * 2, (2 * tt.sym("t") + 4) / 2):
            assert all(type(c) is int for c in stored(x))
        assert stored(tt.rat(F(1, 2))) == [F(1, 2)]
        for bad in (lambda: tt.rat(0.5), lambda: tt.monomial("t", 1, 1.0)):
            with pytest.raises(TypeError):
                bad()

    def test_division_sites_stay_rational(self):
        tt = root_table(("t", "u"), 3)
        t = tt.sym("t")
        # Scalar.inverse of an integral monomial; a radical is not inverted
        assert stored((2 * t).inverse()) == [F(1, 2)]
        with pytest.raises(AlgebraError, match="lead symbol"):
            (2 * t * tt.sym("r")).inverse()
        # relation tail -c / coef with integral c and coef
        tr = SymbolTable(("s", "c"))
        tr.add_relation(2 * tr.sym("s") ** 2 + 3 * tr.sym("c") - 1)
        tail = tr.rules[0][2]
        assert sorted(stored(tail)) == [F(-3, 2), F(1, 2)]
        assert tr.sym("s") ** 2 == F(1, 2) - F(3, 2) * tr.sym("c")

    def test_division_by_uncoercible_raises_type_error(self):
        # used to crash with AttributeError on NotImplemented.inverse()
        a = SymbolTable(("a",)).sym("a")
        for bad in (0.5, "x"):
            with pytest.raises(TypeError):
                a * bad
            with pytest.raises(TypeError):
                a / bad
        assert a / F(1, 2) == 2 * a

    def test_as_fraction_type(self):
        assert type(T.rat(3).as_fraction()) is F
        assert type(T.zero().as_fraction()) is F
        assert T.rat(F(2, 3)).as_fraction() == F(2, 3)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(scalars(), scalars(), scalars())
    def test_ring_axioms(self, x, y, z):
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x + y == y + x

    @settings(max_examples=40, deadline=None)
    @given(scalars(), scalars())
    def test_reduce_compatible_with_product(self, x, y):
        assert reduced(x * y) == reduced(reduced(x) * reduced(y))

    @settings(max_examples=30, deadline=None)
    @given(scalars())
    def test_reduce_idempotent(self, x):
        assert reduced(reduced(x)) == reduced(x)


def test_canonical_text_is_deterministic():
    x = 2 * AL * DE + F(1, 3) - S ** 2
    assert str(x) == str((F(1, 3) - S ** 2) + 2 * DE * AL)
