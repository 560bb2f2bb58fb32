import random
from fractions import Fraction as F

import pytest

from hetg2.linsolve import (InconsistentSystemError, nullspace, rank, rref,
                            solve_ring_rhs)
from hetg2.scalar import AlgebraError
from hetg2.spinor import GQ
from hetg2.structures import make_table


def _fraction(rng):
    return F(rng.randint(-3, 3), rng.randint(1, 3))


def _gq(rng):
    return GQ(_fraction(rng), _fraction(rng))


def _matrix(rng, entry, nrows, ncols, deficient):
    """Seeded matrix with an all-zero row and an all-zero column; when
    ``deficient``, the last row and the third column are combinations of
    the others."""
    m = [[entry(rng) for _ in range(ncols)] for _ in range(nrows)]
    for row in m:
        row[1] = row[0] * 0  # zero column
    m[2] = [x * 0 for x in m[2]]  # zero row
    if deficient:
        m[-1] = [a + b * F(2) for a, b in zip(m[0], m[3])]
        for row in m:
            row[2] = row[0] - row[4]
    return m


def _dot(row, v):
    acc = row[0] * 0
    for a, b in zip(row, v):
        acc = acc + a * b
    return acc


@pytest.mark.parametrize("entry", [_fraction, _gq], ids=["Fraction", "GQ"])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("deficient", [False, True])
def test_nullspace_basis(entry, seed, deficient):
    m = _matrix(random.Random(seed), entry, 6, 8, deficient)
    _, pivots, _ = rref(m)
    free = [c for c in range(8) if c not in pivots]
    basis = nullspace(m)
    assert len(basis) == 8 - rank(m) == len(free)
    if deficient:
        assert rank(m) <= 4
    for v, fc in zip(basis, free):
        assert all(_dot(row, v) == 0 for row in m)
        assert [v[c] for c in free] == [1 if c == fc else 0 for c in free]


def test_int_entries_become_fractions():
    rows, pivots, _ = rref([[2, 1], [4, 3]])
    assert pivots == [0, 1]
    assert all(type(x) is F for row in rows for x in row)
    assert rows[0] == [1, F(1, 2)]
    assert nullspace([[2, 1]]) == [[F(-1, 2), 1]]
    assert type(nullspace([[2, 1]])[0][0]) is F


class TestSolveRingRhs:
    table = make_table("3ad")
    al, de = table.sym("alpha"), table.sym("delta")

    def test_solution(self):
        m = [[F(1), F(2)], [F(0), F(3)], [F(2), F(1)], [F(0), F(0)]]
        x = [self.al + 1, self.de * self.al]
        b = [_dot(row, x) for row in m]
        assert solve_ring_rhs(m, b) == x

    def test_rank_deficient(self):
        with pytest.raises(AlgebraError, match="full column rank"):
            solve_ring_rhs([[F(1), F(2)], [F(2), F(4)]],
                           [self.al, 2 * self.al])

    def test_inconsistent(self):
        with pytest.raises(InconsistentSystemError) as exc:
            solve_ring_rhs([[F(1)], [F(2)]], [self.al, self.de])
        assert exc.value.residual == self.de - 2 * self.al
