"""Exact linear algebra over any exact field, by one elimination routine.

Matrix entries lie in one exact field: ``Fraction`` (``int`` entries are
converted, since ``int / int`` would give a float) or the Gaussian rationals
:class:`hetg2.spinor.GQ`, each held as an integer triple (a + b i) / d in
lowest terms.  A right-hand side may live in any ring that is a
module over that field (in particular :class:`hetg2.scalar.Scalar`), so a
rational system can be solved with polynomial data carried along exactly.
``rref`` eliminates forward once; ``rank``, ``nullspace`` and
``solve_ring_rhs`` read or back-substitute its echelon form.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from . import AlgebraError


class InconsistentSystemError(AlgebraError):
    def __init__(self, residual):
        super().__init__("linear system has no solution")
        self.residual = residual


def rref(matrix: Sequence[Sequence], rhs: Optional[list] = None):
    """Row echelon form with unit pivots, by forward elimination.

    Returns (rows, pivot columns, rhs): row r carries the pivot of column
    pivots[r] and the rows after the last pivot are zero.  Entries above a
    pivot are not cleared; callers back-substitute.  Only the nonzero
    entries of a pivot row are propagated.  A given ``rhs`` goes through the
    same row operations and is returned; otherwise None.
    """
    rows = [[Fraction(x) if isinstance(x, int) else x for x in r]
            for r in matrix]
    b = None if rhs is None else list(rhs)
    n = len(rows)
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == n:
            break
        p = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pv = rows[r][c]
        # entries left of column c are zero in rows r and below
        rows[r][c:] = [x / pv for x in rows[r][c:]]
        if b is not None:
            b[r], b[p] = b[p], b[r]
            b[r] = b[r] / pv
        pivot_nz = [(j, x) for j, x in enumerate(rows[r]) if x != 0]
        for i in range(r + 1, n):
            f = rows[i][c]
            if f != 0:
                row = rows[i]
                for j, x in pivot_nz:
                    row[j] = row[j] - f * x
                if b is not None:
                    b[i] = b[i] - f * b[r]
        pivots.append(c)
    return rows, pivots, b


def _back_substitute(rows, pivots, b, x) -> list:
    """Fill the pivot unknowns of x from the last pivot up; x already holds
    the free unknowns."""
    for r in reversed(range(len(pivots))):
        pc = pivots[r]
        acc = b[r]
        for c in range(pc + 1, len(x)):
            if rows[r][c] != 0:
                acc = acc - rows[r][c] * x[c]
        x[pc] = acc
    return x


def rank(matrix: Sequence[Sequence]) -> int:
    return len(rref(matrix)[1])


def nullspace(matrix: Sequence[Sequence]) -> list[list]:
    """Basis of the right kernel: one vector per free column, with 1 on its
    free column and 0 on the others."""
    rows, pivots, _ = rref(matrix)
    if not rows:
        return []
    zero = rows[0][0] * 0  # the entry field's own zero
    ncols = len(rows[0])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        x = [zero] * ncols
        x[fc] = zero + 1
        basis.append(_back_substitute(rows, pivots, [zero] * len(pivots), x))
    return basis


def solve_ring_rhs(matrix: Sequence[Sequence], rhs: list) -> list:
    """Solve M x = b exactly where M has field entries and b ring entries.

    The system must have full column rank; an inconsistent system raises
    :class:`InconsistentSystemError` carrying the offending residual entry.
    The entries of b must provide ``is_zero`` (as Scalar does).
    """
    rows, pivots, b = rref(matrix, rhs)
    ncols = len(rows[0]) if rows else 0
    if len(pivots) != ncols:
        raise AlgebraError("system does not have full column rank")
    for extra in b[ncols:]:
        if not extra.is_zero:
            raise InconsistentSystemError(extra)
    return _back_substitute(rows, pivots, b, [None] * ncols)
