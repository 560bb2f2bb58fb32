"""Anomaly-cancellation residuals, constraint systems and solution branches.

The residual of the flux identity  dH = (a'/4)(tr F^F - tr R^R)  with H the
characteristic torsion and both gauge connections drawn from the deformation
family is assembled in the coframe, where the curvature traces live; the
remainder's tr(R2 ^ R2) does not depend on lambda and cancels in the
difference, and coefficients are matched against the independent 4-form
basis, embedded alongside.  Branch verification is a polynomial-identity
check: bindings are substituted and the remaining constraints reduced to
zero modulo the branch's defining relations via pseudo-remainders.  No
tolerances anywhere.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from typing import Optional

from .curvature import curvature, instanton_obstruction, wedge_trace
from .exterior import coefficient_matrix, form_to_vector
from .linsolve import InconsistentSystemError, solve_ring_rhs
from .scalar import AlgebraError, Scalar, SymbolTable, prem
from .structures import NotInSpanError, structure_torsion


class BianchiResidual(namedtuple("BianchiResidual", "form basis")):
    """The residual as a coframe 4-form, with the ring's coefficient basis
    (``basis_4forms``) embedded in the same coframe."""

    __slots__ = ()


def residual(ring, lam1: Scalar, lam2: Scalar) -> BianchiResidual:
    """dT^c - (a'/4)(tr R^{lam1} ^ R^{lam1} - tr R^{lam2} ^ R^{lam2}) in the
    ring's coframe."""
    dtc = structure_torsion(ring).characteristic.d()
    tr1, tr2 = (wedge_trace(curvature(ring, lam)) for lam in (lam1, lam2))
    form = dtc.embed() - (ring.table.sym("alphap") / 4) * (tr1 - tr2)
    return BianchiResidual(form, [b.embed() for b in ring.basis_4forms()])


class ConstraintSystem(namedtuple("ConstraintSystem", "polynomials")):
    __slots__ = ()

    def substituted(self, bindings) -> list[Scalar]:
        return [p.subs(bindings) for p in self.polynomials]


def extract_constraints(res: BianchiResidual,
                        basis: Optional[list] = None) -> ConstraintSystem:
    """One polynomial per independent basis 4-form.

    A residual outside the basis span raises :class:`NotInSpanError`
    carrying the leftover component.
    """
    space = res.form.space
    basis = basis if basis is not None else res.basis
    monos = sorted({m for b in basis for m in b.terms} | set(res.form.terms),
                   key=lambda m: (space.mono_degree(m), space.mono_label(m)))
    rhs = form_to_vector(res.form, monos)
    try:
        sol = solve_ring_rhs(coefficient_matrix(basis, monos), rhs)
    except InconsistentSystemError as exc:
        raise NotInSpanError("residual is not in the span of the "
                             "declared basis", exc.residual) from exc
    return ConstraintSystem(sol)


@cache
def constraint_system(ring) -> ConstraintSystem:
    """The constraint system of the residual at symbolic (lam1, lam2)."""
    table = ring.table
    return extract_constraints(
        residual(ring, table.sym("lam1"), table.sym("lam2")))


class SolutionBranch(namedtuple(
        "SolutionBranch", "branch_id ring bindings hypotheses samples "
        "conditional_pair", defaults=(None,))):
    """One solution family over ``ring``: bindings, relations, sign samples.

    ``hypotheses`` are (polynomial, main variable) pairs; a constraint holds
    on the branch when it pseudo-reduces to zero by the hypotheses in order.
    ``samples`` are rational points satisfying bindings, hypotheses and the
    branch's sign conditions (a' > 0 and the stated parameter ranges), used
    for fully numeric confirmation of closed-form root expressions.
    ``conditional_pair`` is (h2 poly, its variable) for case ii.
    """

    __slots__ = ()


def _reduce_by_hypotheses(p: Scalar, hyps) -> Scalar:
    for h, var in hyps:
        p = prem(p, h, var)
    return p


def verify_branch(branch: SolutionBranch) -> tuple:
    """Substitute the branch into the constraint system: (the constraints
    reduced by the branch's relations, a (sample, constraint values) pair
    per sample point, the hypotheses as text)."""
    table = branch.ring.table
    system = constraint_system(branch.ring)
    reduced = []
    for p in system.substituted(branch.bindings):
        if branch.conditional_pair is not None and not p.is_zero:
            p = _conditional_identity_reduce(p, branch)
        else:
            p = _reduce_by_hypotheses(p, branch.hypotheses)
        reduced.append(p)
    # the numeric confirmation on the declared rational sample points
    samples = [(sample, system.substituted({k: table.rat(v)
                                            for k, v in sample.items()}))
               for sample in branch.samples]
    hyp_text = [f"{k} = {v}" for k, v in branch.bindings.items()]
    hyp_text += [f"{h} = 0" for h, _ in branch.hypotheses]
    if branch.conditional_pair is not None:
        hyp_text.append(f"{branch.conditional_pair[0]} = 0")
    return reduced, samples, hyp_text


def _conditional_identity_reduce(p: Scalar, branch: SolutionBranch) -> Scalar:
    """Sign-agnostic reduction for branches with a nested-radical condition.

    The constraint reduces modulo the quadratic lam2-relation h1 to a
    residue r linear in lam2; it holds at one root of h1 iff the resultant
    prem(h1, r) in lam2, or r itself when free of lam2, vanishes modulo the
    squared compatibility relation between a', delta and beta.
    """
    (h1, var), = [hp for hp in branch.hypotheses if hp[1] == "lam2"]
    r = prem(p, h1, var)
    degree = max(r.coeffs_in(var), default=0)
    if degree > 1:
        raise AlgebraError("unexpected degree after quadratic reduction")
    if degree == 1:
        r = prem(h1, r, var)
    return prem(r, *branch.conditional_pair)


def branches(ring3, ring_su3) -> list[SolutionBranch]:
    """The solution branches of the 3ad and su3 rings plus a negative
    control, in report order."""
    t3, ts = ring3.table, ring_su3.table
    a3, d3 = t3.sym("alpha"), t3.sym("delta")
    l1_3, l2_3, ap3 = t3.sym("lam1"), t3.sym("lam2"), t3.sym("alphap")
    beta3 = ring3.beta
    as_, ds_ = ts.sym("alpha"), ts.sym("delta")
    l1_s, l2_s, aps = ts.sym("lam1"), ts.sym("lam2"), ts.sym("alphap")
    out = []
    # exact solution: degenerate case, both instantons
    out.append(SolutionBranch(
        "3ad.exact", ring3,
        {"delta": t3.zero(), "lam1": -beta3.subs({"delta": 0}),
         "lam2": t3.zero()},
        [(12 * ap3 * a3 ** 2 - 1, "alphap")],
        [{"alpha": 1, "delta": 0, "lam1": Fraction(4), "lam2": 0,
          "alphap": Fraction(1, 12)}]))
    # case i: lam2 = 2 delta with 1/a' = 12 (delta - alpha)^2
    out.append(SolutionBranch(
        "3ad.case-i", ring3,
        {"lam1": -beta3, "lam2": 2 * d3},
        [(12 * ap3 * (d3 - a3) ** 2 - 1, "alphap")],
        [{"alpha": 1, "delta": 3, "lam1": -2, "lam2": 6,
          "alphap": Fraction(1, 48)}]))
    # case ii: lam1 = 0, lam2 from the quadratic, nested-radical condition
    h1 = 3 * ap3 * (beta3 + l2_3) ** 2 - 3 * ap3 * beta3 ** 2 - 4
    h2 = (4 + 3 * ap3 * (beta3 ** 2 - 2 * d3 ** 2 - 2 * d3 * beta3)) ** 2 \
        - 36 * ap3 ** 2 * d3 ** 3 * (d3 + 2 * beta3)
    out.append(SolutionBranch(
        "3ad.case-ii", ring3,
        {"lam1": t3.zero()},
        [(h1, "lam2")],
        [{"alpha": Fraction(1, 2), "delta": 1, "lam1": 0, "lam2": 2,
          "alphap": Fraction(1, 3)}],
        conditional_pair=(h2, "alphap")))
    # contact case a: delta = 0
    out.append(SolutionBranch(
        "su3.case-a", ring_su3,
        {"delta": ts.zero()},
        [(3 * aps * (4 * as_ - l2_s) ** 2
          - 3 * aps * (4 * as_ - l1_s) ** 2 + 8, "lam2")],
        [{"alpha": 1, "delta": 0, "lam1": 0, "lam2": 2,
          "alphap": Fraction(2, 9)},
         {"alpha": 1, "delta": 0, "lam1": 0, "lam2": 6,
          "alphap": Fraction(2, 9)}]))
    # contact case b: delta = 3 alpha / 2
    out.append(SolutionBranch(
        "su3.case-b", ring_su3,
        {"delta": Fraction(3, 2) * as_},
        [(3 * aps * l2_s ** 2 - 3 * aps * l1_s ** 2 - 8, "lam2")],
        [{"alpha": 1, "delta": Fraction(3, 2), "lam1": 1, "lam2": 3,
          "alphap": Fraction(1, 3)}]))
    # deliberately wrong branch: lam2 = 3 delta instead of 2 delta
    out.append(SolutionBranch(
        "3ad.negative-control", ring3,
        {"lam1": -beta3, "lam2": 3 * d3},
        [(12 * ap3 * (d3 - a3) ** 2 - 1, "alphap")],
        [{"alpha": 1, "delta": 3, "lam1": -2, "lam2": 9,
          "alphap": Fraction(1, 48)}]))
    return out


def sasaki_3alpha_impossibility(ring) -> list:
    """No (lam1, lam2, a' > 0) solves the system when alpha = delta.

    By the fibre/base rescaling invariance the parameters are homogeneous, so
    alpha = delta = 1 covers the whole ray.  Eliminating a' from the two
    constraints leaves 12((lam2-2)^3 - (lam1-2)^3); after removing the factor
    lam2 - lam1 (which must be nonzero since a' is finite) the remaining
    quadratic has discriminant -432 (lam1 - 2)^2 < 0 away from lam1 = 2, and
    the boundary cases reduce the first constraint to the nonzero constant 4.
    Returned as (name, lhs, rhs) triples: the eliminant, the discriminant
    and the boundary constraint against those closed forms.
    """
    table = ring.table
    l1, l2 = table.sym("lam1"), table.sym("lam2")
    system = constraint_system(ring)
    sub = {"delta": table.sym("alpha")}
    # order: [B1 coefficient, B2 coefficient] as returned by the basis
    e_b1, e_b2 = (p.subs(sub).subs({"alpha": 1}) for p in system.polynomials)
    elim = prem(e_b1, e_b2, "alphap")
    cs = elim.div_exact(l2 - l1, "lam2").coeffs_in("lam2")
    return [
        ("eliminant = 12((lam2-2)^3-(lam1-2)^3)", elim,
         12 * ((l2 - 2) ** 3 - (l1 - 2) ** 3)),
        ("the quadratic factor has discriminant -432(lam1-2)^2",
         cs[1] * cs[1] - 4 * cs[2] * cs[0], -432 * (l1 - 2) ** 2),
        # boundary: lam2 = lam1 makes the B2 constraint the constant 4
        ("lam2 = lam1 leaves the B2 constraint 4", e_b2.subs({"lam2": l1}),
         table.rat(4))]


ApproxOrderReport = namedtuple("ApproxOrderReport",
                               "leading_order norm_sq_text")


def approx_order_report(ring, scaling: dict,
                        t_table: SymbolTable) -> ApproxOrderReport:
    """Leading t-order of the squared obstruction norm under a scaling.

    ``scaling`` binds every parameter appearing in the obstruction norm to a
    Laurent polynomial in t over ``t_table`` (with a' = t^2 among them); the
    approximate-instanton condition demands order >= 8, i.e. the norm itself
    is O(a'^2).
    """
    table = ring.table
    lam = table.sym("lam")
    ob = instanton_obstruction(curvature(ring, lam), ring.psi())
    norm_sq = ob.norm_sq.subs(scaling, table=t_table)
    return ApproxOrderReport(norm_sq.laurent_order("t"), str(norm_sq))


def root_table(d: int) -> SymbolTable:
    """Laurent polynomials in t over Q(sqrt d): the symbol r with r^2 = d."""
    table = SymbolTable(("t", "r"))
    table.add_relation(table.sym("r") ** 2 - d)
    return table


def approximate_order_reports(ring3, ring_su3) -> tuple:
    """Order reports of the approximate-solution scalings (a' = t^2): the
    3ad family at delta = t^5, lam = 2 t^5, alpha = t^5 - sqrt(3)/(6t), the
    su3 family at alpha = t^5, delta = 3 t^5 / 2, lam = 2 sqrt(6) / (3t), and
    the constant 3ad scaling (alpha, delta, lam) = (3, 1, 1), which fails.
    The roots are the symbol r of :func:`root_table`; both squared norms come
    out free of r, so their t-orders are read directly."""
    tt3 = root_table(3)
    t, r3 = tt3.sym("t"), tt3.sym("r")
    rep3 = approx_order_report(
        ring3, {"lam": 2 * t ** 5, "delta": t ** 5,
                "alpha": t ** 5 - (r3 / 6) / t}, tt3)
    tt6 = root_table(6)
    t6, r6 = tt6.sym("t"), tt6.sym("r")
    rep6 = approx_order_report(
        ring_su3, {"lam": (2 * r6 / 3) / t6, "alpha": t6 ** 5,
                "delta": Fraction(3, 2) * t6 ** 5}, tt6)
    ttc = SymbolTable(("t",))
    repc = approx_order_report(
        ring3, {"lam": ttc.rat(1), "delta": ttc.rat(1),
                "alpha": ttc.rat(3)}, ttc)
    return rep3, rep6, repc
