"""Differential oracle for the Form/Scalar kernel.

The kernel sums raw products of coefficients and builds each result
coefficient with one ``Scalar`` call.  The reference below is the earlier
per-term kernel, kept here: every product and every partial sum is a
normalised ``Scalar`` of its own.  Random forms with Laurent coefficients
over the coframe (with the s^2 + c^2 = 1 relation, and with sqrt(3) adjoined
as a symbol r with r^2 = 3), over ``Ring3ad`` and over ``RingSU3`` are pushed
through both, and the results must be equal and hold only exact stored
values: an ``int``, or a ``Fraction`` with denominator other than 1.
``subs`` is also checked against sympy on the sqrt(3) table, reading r as
``sympy.sqrt(3)``.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from hetg2.exterior import (Coframe, Form, basis_multi_indices,
                            contract_biform, derivation)
from hetg2.scalar import AlgebraError, Scalar, SymbolTable, exact
from hetg2.structures import get_ring

sympy = pytest.importorskip("sympy")

RING_3AD = get_ring("3ad")
RING_SU3 = get_ring("su3")


def root_table(symbols):
    """Symbols and r, with the relation r^2 = 3: the field Q(sqrt 3)."""
    t = SymbolTable((*symbols, "r"))
    t.add_relation(t.sym("r") ** 2 - 3)
    return t


RADICAL = root_table(("t", "u"))
WIDE = root_table(("v", "u", "t"))
COFRAMES = {"su3": RING_SU3.coframe, "radical": Coframe(RADICAL, 7)}
# kept non-negative, like the lead symbols s and r of the relations
RELATION_SYMBOLS = {"s", "c", "r"}


# -- the per-term reference ----------------------------------------------------

def _madd(x, y):
    out = dict(x)
    for m, c in y.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _mmul(x, y):
    out = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def ref_rat(table, q):
    q = exact(q)
    if q == 0:
        return Scalar(table, {})
    return Scalar(table, {(0,) * len(table.symbols): q})


def ref_mul(x, y):
    if not isinstance(y, Scalar):
        y = ref_rat(x.table, y)
    return Scalar(x.table, _mmul(x._a, y._a))


def ref_add(x, y):
    return Scalar(x.table, _madd(x._a, y._a), _reduce=False)


def ref_neg(x):
    return Scalar(x.table, {m: -c for m, c in x._a.items()}, _reduce=False)


def ref_pow(x, n):
    out = ref_rat(x.table, 1)
    for _ in range(n):
        out = ref_mul(out, x)
    return out


def _put(out, key, s):
    if s.is_zero:
        out.pop(key, None)
    else:
        out[key] = s


def ref_form_add(f, g):
    zero = Scalar(f.space.table, {})
    out = dict(f.terms)
    for k, v in g.terms.items():
        _put(out, k, ref_add(out.get(k, zero), v))
    return f.__class__(f.space, out)


def ref_form_mul(f, c):
    return f.__class__(f.space, {k: ref_mul(v, c) for k, v in f.terms.items()})


def ref_wedge(f, g):
    zero = Scalar(f.space.table, {})
    out = {}
    for i1, c1 in f.terms.items():
        for i2, c2 in g.terms.items():
            key, q = f.space.mono_mul(i1, i2)
            if key is None:
                continue
            c = ref_mul(c1, c2)
            if q == -1:
                c = ref_neg(c)
            elif q != 1:
                c = ref_mul(c, q)
            _put(out, key, ref_add(out.get(key, zero), c))
    return f.__class__(f.space, out)


def ref_sort_index(idx):
    if len(set(idx)) != len(idx):
        return None, 0
    perm = sorted(range(len(idx)), key=lambda i: idx[i])
    inversions = sum(1 for i in range(len(perm)) for j in range(i)
                     if perm[j] > perm[i])
    return tuple(sorted(idx)), (-1) ** inversions


def ref_coframe_form(cf, terms):
    zero = Scalar(cf.table, {})
    out = {}
    for idx, c in terms.items():
        if not isinstance(c, Scalar):
            c = ref_rat(cf.table, c)
        key, sign = ref_sort_index(tuple(idx))
        if key is not None:
            _put(out, key, ref_add(out.get(key, zero),
                                   c if sign > 0 else ref_neg(c)))
    return Form(cf, out)


def ref_contract(f, v):
    cf = f.space
    if isinstance(v, Form):
        acc = cf.zero()
        for (i,), c in v.terms.items():
            acc = ref_form_add(acc, ref_form_mul(ref_contract(f, i), c))
        return acc
    zero = Scalar(cf.table, {})
    out = {}
    for idx, c in f.terms.items():
        if v in idx:
            pos = idx.index(v)
            key = idx[:pos] + idx[pos + 1:]
            cc = c if pos % 2 == 0 else ref_neg(c)
            _put(out, key, ref_add(out.get(key, zero), cc))
    return Form(cf, out)


def ref_contract_biform(beta, omega):
    acc = omega.space.zero()
    for (m, n), c in beta.terms.items():
        acc = ref_form_add(acc, ref_form_mul(
            ref_contract(ref_contract(omega, n), m), c))
    return acc


def ref_derivation(form, endo):
    zero = Scalar(form.space.table, {})
    out = {}
    for idx, c in form.terms.items():
        for pos, mu in enumerate(idx):
            for nu, coef in enumerate(endo[mu - 1], 1):
                if coef:
                    new = idx[:pos] + (nu,) + idx[pos + 1:]
                    out[new] = ref_add(out.get(new, zero),
                                       ref_neg(ref_mul(c, coef)))
    return ref_coframe_form(form.space, out)


def ref_d(gf):
    ring = gf.space
    out = ring.zero()
    for m, c in gf.terms.items():
        out = ref_form_add(out, ref_form_mul(ring.mono_d(m), c))
    return out


def ref_embed(gf):
    ring = gf.space
    out = ring.coframe.zero()
    for m, c in gf.terms.items():
        out = ref_form_add(out, ref_form_mul(ring.mono_embed(m), c))
    return out


def ref_subs(x, bindings, table=None):
    src = x.table
    dst = table if table is not None else src
    vals = {src.index[name]: (ref_rat(dst, v) if not isinstance(v, Scalar)
                              else v)
            for name, v in bindings.items()}
    out = Scalar(dst, {})
    for mono, c in x._a.items():
        term = ref_rat(dst, c)
        for i, e in enumerate(mono):
            if e == 0:
                continue
            if i in vals:
                base = vals[i]
                term = ref_mul(term, ref_pow(base, e) if e > 0
                               else ref_pow(base.inverse(), -e))
            else:
                term = ref_mul(term, dst.monomial(src.symbols[i], e))
        out = ref_add(out, term)
    return Scalar(dst, out._a)


SYMS = {"t": sympy.Symbol("t"), "u": sympy.Symbol("u")}


def to_sympy(x):
    """A scalar over RADICAL as a sympy expression, r read as sqrt(3)."""
    return sum((sympy.Rational(c.numerator, c.denominator)
                * SYMS["t"] ** m[0] * SYMS["u"] ** m[1] * sympy.sqrt(3) ** m[2]
                for m, c in x._a.items()), sympy.Integer(0))


# -- strategies ----------------------------------------------------------------

rationals = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4))


def exponents(table):
    return st.tuples(*[st.sampled_from((0, 0, 1, 2) if n in RELATION_SYMBOLS
                                       else (0, 0, 0, 1, -1, 2, -2))
                       for n in table.symbols])


@st.composite
def scalars(draw, table):
    return Scalar(table, draw(st.dictionaries(exponents(table), rationals,
                                              max_size=4)))


def single_terms(table):
    """Invertible scalars: one term free of r, which has no inverse (a
    power s^2 is rewritten to a sum, so it is filtered out)."""
    @st.composite
    def term(draw):
        mono, c = draw(exponents(table)), draw(rationals.filter(bool))
        return Scalar(table, {mono: c})
    return term().filter(lambda x: len(x._a) == 1 and "r" not in x.support())


def negative_power(x, name):
    i = x.table.index[name]
    return any(m[i] < 0 for m in x._a)


@st.composite
def coframe_forms(draw, cf, degree=None):
    k = draw(st.integers(0, 7)) if degree is None else degree
    keys = st.sampled_from(basis_multi_indices(7, k))
    return Form(cf, draw(st.dictionaries(keys, scalars(cf.table),
                                         max_size=4)))


@st.composite
def ring_forms(draw, ring):
    keys = st.sampled_from([m for k in range(8) for m in ring.monomials(k)])
    return ring.genform(draw(st.dictionaries(keys, scalars(ring.table),
                                             max_size=4)))


def spaces(draw):
    return draw(st.sampled_from(["su3", "radical", "3ad-ring", "su3-ring"]))


@st.composite
def form_pairs(draw):
    name = spaces(draw)
    if name.endswith("-ring"):
        ring = RING_3AD if name == "3ad-ring" else RING_SU3
        return draw(ring_forms(ring)), draw(ring_forms(ring))
    cf = COFRAMES[name]
    return draw(coframe_forms(cf)), draw(coframe_forms(cf))


def assert_same(got, want):
    assert got == want
    values = ([got] if isinstance(got, Scalar) else list(got.terms.values()))
    for x in values:
        for c in x._a.values():
            assert type(c) is int or (type(c) is F and c.denominator != 1), c


# -- the kernel against the reference -------------------------------------------

SETTINGS = settings(max_examples=40, deadline=None)


class TestFormKernel:
    @SETTINGS
    @given(form_pairs())
    def test_wedge(self, pair):
        f, g = pair
        assert_same(f ^ g, ref_wedge(f, g))

    @SETTINGS
    @given(form_pairs())
    def test_add_and_sub(self, pair):
        f, g = pair
        assert_same(f + g, ref_form_add(f, g))
        assert_same(f - g, ref_form_add(f, ref_form_mul(g, -1)))
        assert_same(f + (-f), f.space.zero())

    @SETTINGS
    @given(form_pairs(), rationals)
    def test_rational_multiple(self, pair, q):
        f, _ = pair
        assert_same(f * q, ref_form_mul(f, q))
        assert_same(q * f, ref_form_mul(f, q))
        assert_same(f * F(6, 3), ref_form_mul(f, 2))

    @SETTINGS
    @given(form_pairs())
    def test_scalar_multiple(self, pair):
        f, g = pair
        for c in list(g.terms.values())[:1]:
            assert_same(f * c, ref_form_mul(f, c))

    @SETTINGS
    @given(st.sampled_from([RING_3AD, RING_SU3]), st.data())
    def test_d_and_embed(self, ring, data):
        gf = data.draw(ring_forms(ring))
        assert_same(gf.d(), ref_d(gf))
        assert_same(gf.embed(), ref_embed(gf))

    @SETTINGS
    @given(st.sampled_from(sorted(COFRAMES)), st.integers(1, 7), st.data())
    def test_contract(self, name, i, data):
        cf = COFRAMES[name]
        f = data.draw(coframe_forms(cf))
        v = data.draw(coframe_forms(cf, degree=1))
        assert_same(f.contract(i), ref_contract(f, i))
        assert_same(f.contract(v), ref_contract(f, v))

    @SETTINGS
    @given(st.sampled_from(sorted(COFRAMES)), st.data())
    def test_contract_biform(self, name, data):
        cf = COFRAMES[name]
        beta = data.draw(coframe_forms(cf, degree=2))
        omega = data.draw(coframe_forms(cf))
        assert_same(contract_biform(beta, omega),
                    ref_contract_biform(beta, omega))

    @SETTINGS
    @given(st.sampled_from(sorted(COFRAMES)), st.data())
    def test_derivation(self, name, data):
        cf = COFRAMES[name]
        f = data.draw(coframe_forms(cf))
        entry = st.one_of(st.just(0), rationals)
        endo = data.draw(st.lists(st.lists(entry, min_size=7, max_size=7),
                                  min_size=7, max_size=7))
        assert_same(derivation(f, endo), ref_derivation(f, endo))

    @SETTINGS
    @given(st.sampled_from(sorted(COFRAMES)), st.data())
    def test_coframe_form(self, name, data):
        # unsorted and repeated indices, Scalar and rational coefficients
        cf = COFRAMES[name]
        idx = st.lists(st.integers(1, 7), max_size=4).map(tuple)
        coef = st.one_of(rationals, scalars(cf.table))
        terms = data.draw(st.dictionaries(idx, coef, max_size=5))
        assert_same(cf.form(terms), ref_coframe_form(cf, terms))


class TestScalarKernel:
    @SETTINGS
    @given(st.sampled_from([RING_SU3.table, RADICAL]), st.data())
    def test_mul_and_add(self, table, data):
        x = data.draw(scalars(table))
        y = data.draw(scalars(table))
        assert_same(x * y, ref_mul(x, y))
        assert_same(x + y, ref_add(x, y))
        assert_same(-x, ref_neg(x))

    @SETTINGS
    @given(st.data())
    def test_subs_radical_table(self, data):
        # a symbol that appears to a negative power needs an invertible
        # value: one term free of r
        x = data.draw(scalars(RADICAL))
        t_value = data.draw(single_terms(RADICAL) if negative_power(x, "t")
                            else st.one_of(single_terms(RADICAL),
                                           scalars(RADICAL)))
        u_value = data.draw(rationals.filter(bool))
        for bindings in ({"t": t_value}, {"u": u_value},
                         {"t": t_value, "u": u_value}):
            got = x.subs(bindings)
            assert_same(got, ref_subs(x, bindings))
            values = {SYMS[n]: to_sympy(v if isinstance(v, Scalar)
                                        else RADICAL.rat(v))
                      for n, v in bindings.items()}
            want = to_sympy(x).subs(values, simultaneous=True)
            assert sympy.expand(to_sympy(got) - want) == 0

    @SETTINGS
    @given(st.data())
    def test_subs_into_another_table(self, data):
        # the target table orders the same names differently and adds one
        x = data.draw(scalars(RADICAL))
        value = data.draw(single_terms(WIDE) if negative_power(x, "t")
                          else scalars(WIDE))
        bindings = {"t": value}
        assert_same(x.subs(bindings, table=WIDE),
                    ref_subs(x, bindings, table=WIDE))

    @SETTINGS
    @given(st.data())
    def test_subs_relation_table(self, data):
        # s and c keep non-negative powers: the rewrite s^2 -> 1 - c^2 then
        # acts on polynomials in s over Laurent coefficients
        table = RING_SU3.table
        x = data.draw(scalars(table))
        delta = data.draw(single_terms(table) if negative_power(x, "delta")
                          else scalars(table))
        # delta^-k -> s^-k would have no normal form, so it is refused
        refused = negative_power(x, "delta") and "s" in delta.support()
        for bindings in ({"alpha": 2, "c": data.draw(scalars(table))},
                         {"delta": delta, "s": data.draw(scalars(table))}):
            if refused and "delta" in bindings:
                with pytest.raises(AlgebraError, match="lead symbol"):
                    x.subs(bindings)
            else:
                assert_same(x.subs(bindings), ref_subs(x, bindings))
