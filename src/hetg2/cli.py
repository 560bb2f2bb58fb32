"""Command-line verification driver.

``hetg2 verify --suite <name>`` runs a named suite of exact checks and
prints one line per check; ``--json`` writes a byte-stable report (no
timestamps), ``--params`` overrides the parameters of the exact-solution
checks.  Exit code 0 means no failures (flagged findings are allowed and
expected: the suites deliberately surface source-convention discrepancies),
1 means at least one failure, 2 a usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from . import __version__
from .exterior import Form
from .scalar import SymbolTable

SUITES = ("3ad", "su3", "spinor", "heisenberg", "bianchi", "all")

PARAM_KEYS = ("alpha", "delta", "alphap")


@dataclass
class CheckRecord:
    check_id: str
    claim: str
    status: str  # pass | fail | flagged
    lhs: str = ""
    rhs: str = ""
    parameters: dict = field(default_factory=dict)
    notes: str = ""


def _rec(records, check_id, claim, ok, lhs="", rhs="", notes="", params=None):
    records.append(CheckRecord(check_id, claim, "pass" if ok else "fail",
                               lhs, rhs, dict(params or {}), notes))


def _flag(records, check_id, claim, lhs="", rhs="", notes=""):
    records.append(CheckRecord(check_id, claim, "flagged", lhs, rhs, {}, notes))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_3ad(params) -> list:
    from .bianchi import get_ring
    from .curvature import (antiselfdual_in_kernel, array_transpose_equal,
                            beta_of, curvature_3ad, instanton_obstruction,
                            torsion_lambda_3ad, trace_lemma_rhs_3ad,
                            wedge_trace, NORM_SQ_CALIBRATION)
    from .structures import (CYCLIC, characteristic_torsion, h_homothety,
                             is_g2_form, lambda214_double_characterization,
                             torsion_classes)
    from .linsolve import rank

    r = get_ring("3ad")
    t = r.table
    al, de, lam = t.sym("alpha"), t.sym("delta"), t.sym("lam")
    beta = beta_of(r)
    out: list[CheckRecord] = []

    phi, psi = r.phi(), r.psi()
    phi_f, psi_f = phi.embed(), psi.embed()
    _rec(out, "3ad.structure.d-eta",
         "d eta_i = 2a Phi_i^H - 2d eta_jk for each i",
         all((r.eta(i).d() - (2 * al * r.Phi(i) - 2 * de * r.eta(j, k)))
             .is_zero for i, (j, k) in CYCLIC.items()))
    _rec(out, "3ad.structure.d-squared",
         "d^2 = 0 on every ring monomial",
         all(r.genform({m: 1}).d().d().is_zero
             for k in range(8) for m in r.monomials(k)))
    _rec(out, "3ad.g2.pointwise",
         "phi ^ psi = 7 vol and the induced metric is the identity",
         is_g2_form(phi_f, psi_f))
    _rec(out, "3ad.hodge.pair", "star(phi) = psi on the adapted frame",
         phi_f.star() == psi_f, lhs=phi_f.star().text(), rhs=psi_f.text())

    tc = torsion_classes(phi_f, psi_f, phi.d().embed(), psi.d().embed())
    tau0_ok = tc.tau0 == Fraction(12, 7) * (2 * al + de)
    tau3_tgt = (10 * al - 2 * de) * (r.eta(1, 2, 3).embed() - phi_f / 7)
    _rec(out, "3ad.torsion.classes",
         "tau0 = (12/7)(2a + d), tau1 = tau2 = 0, "
         "tau3 = (10a - 2d)(eta123 - phi/7)",
         tau0_ok and tc.tau1.is_zero and tc.tau2.is_zero
         and tc.tau3 == tau3_tgt,
         lhs=str(tc.tau0), rhs=str(Fraction(12, 7) * (2 * al + de)))
    _rec(out, "3ad.torsion.inner",
         "inner(d phi, psi) = 12(2a + d)",
         phi.d().embed().inner(psi_f) == 12 * (2 * al + de))
    _rec(out, "3ad.nearly-parallel",
         "tau3 vanishes exactly at d = 5a",
         all(v.subs({"delta": 5 * t.sym("alpha")}).is_zero
             for v in tc.tau3.terms.values()))

    tc_f = characteristic_torsion(tc, phi_f, psi_f)
    tcg = r.from_form(tc_f)
    tgt = 2 * (de - 4 * al) * r.eta(1, 2, 3)
    for i in (1, 2, 3):
        tgt = tgt + 2 * al * r.eta(i).wedge(r.Phi(i))
    _rec(out, "3ad.torsion.characteristic",
         "T^c = 2(d - 4a) eta123 + 2a sum eta_i Phi_i^H",
         tcg == tgt, lhs=tcg.text(), rhs=tgt.text())
    b1 = r.zero()
    b2 = r.zero()
    for i, (j, k) in CYCLIC.items():
        b1 = b1 + r.Phi(i).wedge(r.eta(j, k))
        b2 = b2 + r.Phi(i).wedge(r.Phi(i))
    _rec(out, "3ad.torsion.exterior-derivative",
         "d T^c = 4ab sum Phi_i eta_jk + 4a^2 sum Phi_i Phi_i",
         tcg.d() == 4 * al * beta * b1 + 4 * al ** 2 * b2)

    # auxiliary 3-forms: nearly parallel exactly at a = d
    aux_ok = True
    for i in (1, 2, 3):
        ph = r.aux_phi(i).embed()
        ps = ph.star()
        tca = torsion_classes(ph, ps, r.aux_phi(i).d().embed(),
                              r.from_form(ps).d().embed())
        t3_ad = {k: v.subs({"delta": t.sym("alpha")})
                 for k, v in tca.tau3.terms.items()}
        if not (tca.tau1.is_zero and tca.tau2.is_zero
                and all(v.is_zero for v in t3_ad.values())
                and not tca.tau3.is_zero):
            aux_ok = False
    _rec(out, "3ad.aux-structures",
         "auxiliary 3-forms are coclosed and nearly parallel exactly at a = d",
         aux_ok)

    n1, n2 = lambda214_double_characterization(phi_f, psi_f)
    _rec(out, "3ad.lambda2-14",
         "the wedge and contraction characterizations give one "
         "14-dimensional space",
         len(n1) == 14 and len(n2) == 14 and rank(n1 + n2) == 14)

    R = curvature_3ad(r, lam)
    _rec(out, "3ad.curvature.blocks",
         "block coefficients -(b+l)(4a-l | 2a | 2a-l/2 | a)",
         R.block("V", "V") == -(beta + lam) * (4 * al - lam)
         and R.block("H", "V") == -(beta + lam) * 2 * al
         and R.block("V", "H") == -(beta + lam) * (2 * al - lam / 2)
         and R.block("H", "H") == -(beta + lam) * al)
    _rec(out, "3ad.curvature.vvvv-sample",
         "fully vertical coefficient is 16 at (a, d, l) = (1, 0, 0)",
         R.block("V", "V").subs({"lam": 0, "delta": 0, "alpha": 1}) == 16)
    _rec(out, "3ad.curvature.asd-kernel",
         "anti-self-dual horizontal 2-forms annihilate the explicit part",
         antiselfdual_in_kernel(R))
    _rec(out, "3ad.curvature.pair-symmetry",
         "the explicit array equals its transpose exactly at l = 0",
         array_transpose_equal(curvature_3ad(r, t.zero()))
         and not array_transpose_equal(curvature_3ad(r, t.rat(3))))

    ob = instanton_obstruction(R, psi)
    _rec(out, "3ad.instanton.zero-set",
         "obstruction factors as -(b+l)(l/2)(fixed tensor); zero iff "
         "l in {0, -b}",
         ob.norm_sq_natural == 9 * lam ** 2 * (beta + lam) ** 2
         and instanton_obstruction(curvature_3ad(r, t.zero()), psi).is_zero
         and instanton_obstruction(curvature_3ad(r, -beta), psi).is_zero,
         notes=f"factors: {[str(f) for f in ob.zero_factors]}")
    _rec(out, "3ad.instanton.norm",
         "calibrated obstruction norm^2 at l = 2d equals (48(d-a)d)^2",
         ob.norm_sq.subs({"lam": 2 * t.sym("delta")})
         == (48 * (de - al) * de) ** 2,
         notes="norm^2 calibration factor "
               f"{NORM_SQ_CALIBRATION['3ad']} against the natural "
               "tensor norm")
    tr = wedge_trace(R)
    _rec(out, "3ad.trace.lemma",
         "tr(R^R) explicit part = 12a(b+l)^2 sum((4a-l) eta_jk Phi_i "
         "- a Phi_i Phi_i)",
         tr.explicit == trace_lemma_rhs_3ad(r, lam) and tr.rho2 == t.one())
    diff = wedge_trace(curvature_3ad(r, -beta)) \
        - wedge_trace(curvature_3ad(r, t.zero()))
    _rec(out, "3ad.trace.rho2-cancellation",
         "the formal tr(R2^R2) token is lambda-independent and cancels "
         "in differences",
         diff.rho2.is_zero
         and diff.explicit == -12 * al * beta ** 2 * (4 * al * b1 - al * b2))

    tl = torsion_lambda_3ad(r, lam)
    _rec(out, "3ad.torsion.lambda",
         "deformed torsion components: vertical 2(d-4a)+2l, "
         "argument-vertical 2a - l/2; skew only at l = 0",
         tl.vertical_coeff == 2 * (de - 4 * al) + 2 * lam
         and tl.arg_vertical_coeff == 2 * al - lam / 2
         and torsion_lambda_3ad(r, t.zero()).is_skew() and not tl.is_skew())

    hom_ok = True
    for c_ in (Fraction(1), Fraction(3), Fraction(1, 2)):
        at, dt = h_homothety(al, de, Fraction(1), c_)
        if not (c_ * 2 * (dt - 2 * at) == beta + 4 * al * (1 - c_ * c_)):
            hom_ok = False
    at, dt = h_homothety(t.one(), t.zero(), Fraction(2), Fraction(3))
    _rec(out, "3ad.homothety",
         "(a, d) -> (c a / a_h, d / c); degenerate stays degenerate and "
         "c beta~ = beta + l at l = 4a(1 - c^2)",
         hom_ok and at == t.rat(Fraction(3, 2)) and dt.is_zero)
    return out


def suite_su3(params) -> list:
    from .bianchi import get_ring
    from .curvature import (curvature_su3, instanton_obstruction,
                            su3_coefficient, trace_lemma_rhs_su3,
                            wedge_trace, NORM_SQ_CALIBRATION)
    from .structures import GenForm, is_g2_form, torsion_classes

    r = get_ring("su3")
    t = r.table
    al, de, lam = t.sym("alpha"), t.sym("delta"), t.sym("lam")
    s, c = t.sym("s"), t.sym("c")
    out: list[CheckRecord] = []

    _rec(out, "su3.structure.d-table",
         "d eta = 2a Phi, d Om+ = -4d eta Om-, d Om- = 4d eta Om+, "
         "d^2 = 0 everywhere",
         (r.eta().d() - 2 * al * r.Phi()).is_zero
         and (r.Om("+").d() + 4 * de * r.eta().wedge(r.Om("-"))).is_zero
         and (r.Om("-").d() - 4 * de * r.eta().wedge(r.Om("+"))).is_zero
         and all(r.genform({m: 1}).d().d().is_zero
                 for k in range(8) for m in r.monomials(k)))
    f = r.frame
    phi3 = f["Phi"] ^ f["Phi"] ^ f["Phi"]
    _rec(out, "su3.structure.normalization",
         "(1/6) Phi^3 equals the volume pairing of Om and its conjugate "
         "(Om+ ^ Om- = (2/3) Phi^3)",
         (f["Om+"] ^ f["Om-"]) == Fraction(2, 3) * phi3
         and (f["Phi"] ^ f["Om+"]).is_zero and (f["Phi"] ^ f["Om-"]).is_zero)

    pht, pst = r.phi_theta(), r.psi_theta()
    ph_f, ps_f = pht.embed(), pst.embed()
    _rec(out, "su3.g2.pointwise",
         "phi(t) ^ psi(t) = 7 vol with identity metric, modulo s^2+c^2 = 1",
         is_g2_form(ph_f, ps_f))
    _rec(out, "su3.hodge.pair", "star(phi(t)) = psi(t)",
         ph_f.star() == ps_f)
    red = {k: v.subs({"s": 0, "c": 1}) for k, v in ph_f.terms.items()}
    _rec(out, "su3.family.basepoint",
         "phi(t) reduces at (s, c) = (0, 1) to -eta^Phi + Om-",
         Form(r.coframe, red)
         == (-r.eta().wedge(r.Phi()) + r.Om("-")).embed())

    tc = torsion_classes(ph_f, ps_f, pht.d().embed(), pst.d().embed())
    tau3_tgt = Fraction(4, 7) * (al - de) * (
        4 * r.eta().wedge(r.Phi())
        + 3 * (s * r.Om("+") + c * r.Om("-"))).embed()
    _rec(out, "su3.torsion.classes",
         "tau0 = -(4/7)(3a + 4d) free of the circle parameters; tau1 = "
         "tau2 = 0; tau3 = (4/7)(a-d)(4 eta Phi + 3(s Om+ + c Om-))",
         tc.tau0 == -Fraction(4, 7) * (3 * al + 4 * de)
         and not (tc.tau0.support() & {"s", "c"})
         and tc.tau1.is_zero and tc.tau2.is_zero and tc.tau3 == tau3_tgt,
         notes="the quoted tau3 carries -3(s Om+ + c Om-); that value "
               "is not orthogonal to phi(t) and cannot arise from the "
               "exact decomposition, so the +3 sign forced by the "
               "structure equations is used")

    from .bianchi import characteristic_torsion_genform
    tcg = characteristic_torsion_genform(r)
    etaPhi = r.eta().wedge(r.Phi())
    omsc = s * r.Om("+") + c * r.Om("-")
    tgt = ((-6 * al + 8 * de) / 3) * etaPhi - ((6 * al - 4 * de) / 3) * omsc
    _rec(out, "su3.torsion.characteristic",
         "T^c = ((-6a+8d)/3) eta Phi - ((6a-4d)/3)(s Om+ + c Om-)",
         tcg == tgt,
         notes="second coefficient carries the sign forced by the "
               "corrected tau3")
    dtc = tcg.d()
    d0 = GenForm(r, {m: v.subs({"delta": 0}) for m, v in dtc.terms.items()})
    d32 = GenForm(r, {m: v.subs({"delta": Fraction(3, 2) * t.sym("alpha")})
                      for m, v in dtc.terms.items()})
    pp = r.Phi().wedge(r.Phi())
    _rec(out, "su3.torsion.exterior-derivative",
         "d T^c = -4a^2 Phi^Phi at d = 0 and +4a^2 Phi^Phi at d = 3a/2",
         d0 == -4 * al ** 2 * pp and d32 == 4 * al ** 2 * pp)

    K = su3_coefficient(r, lam)
    _rec(out, "su3.instanton.threshold",
         "explicit coefficient vanishes iff l = (4/3)(3a - 2d); the "
         "undeformed connection is an instanton iff d = 3a/2",
         K.subs({"lam": Fraction(4, 3) * (3 * t.sym("alpha")
                                          - 2 * t.sym("delta"))}).is_zero
         and su3_coefficient(r, t.zero())
         .subs({"delta": Fraction(3, 2) * t.sym("alpha")}).is_zero
         and K.subs({"delta": 0})
         == t.sym("alpha") * (4 * t.sym("alpha") - t.sym("lam")))
    Rs = curvature_su3(r, lam)
    ob = instanton_obstruction(Rs, pst)
    _rec(out, "su3.instanton.obstruction",
         "R ^ psi(t) = (K/2) Phi^3 (x) phi with K = a(4a - 8d/3 - l)",
         ob.norm_sq_natural == 54 * K ** 2 and ob.norm_sq == 81 * K ** 2,
         notes="norm^2 calibration factor "
               f"{NORM_SQ_CALIBRATION['su3']} against the natural "
               "tensor norm")
    tt = SymbolTable(t.symbols)
    tt.add_relation(tt.sym("lam2") ** 2
                    - Fraction(8, 3) * tt.monomial("alphap", -1))
    ns = ob.norm_sq.subs({"lam": t.sym("lam2"),
                          "delta": Fraction(3, 2) * t.sym("alpha")})
    ns2 = ns.subs({n: tt.sym(n) for n in ("alpha", "lam2")}, table=tt)
    _rec(out, "su3.instanton.norm",
         "calibrated norm^2 at d = 3a/2 with 3a' lam2^2 = 8 equals "
         "(6a)^2 (6/a')",
         ns2 == 36 * tt.sym("alpha") ** 2 * 6 / tt.sym("alphap"))
    _rec(out, "su3.trace.lemma",
         "tr(R^R) explicit part = -(2a^2/3)(4(3a-2d) - 3l)^2 Phi^Phi",
         wedge_trace(Rs).explicit == trace_lemma_rhs_su3(r, lam))

    # the single deliberate flagged record: printed vs derived coefficient
    Kp = su3_coefficient(r, lam, "printed")
    printed_misses = not Kp.subs(
        {"lam": Fraction(4, 3) * (3 * t.sym("alpha")
                                  - 2 * t.sym("delta"))}).is_zero
    _flag(out, "su3.curvature.coefficient-discrepancy",
          "the quoted explicit-coefficient variant a(4a - (m+1)/(2m) d "
          "- l) does not vanish at the instanton threshold; the variant "
          "derived from the horizontal-curvature comparison and the "
          "Kaehler-Einstein eigenvalue, a(4a - 2(m+1)/m d - l), does",
          lhs=str(Kp), rhs=str(K),
          notes="derived variant adopted for all computations"
          if printed_misses else "unexpected: printed variant matches")
    return out


def suite_spinor(params) -> list:
    from . import spinor as sp
    from .structures import make_table, sp1_frame_forms, su3_frame_forms
    from .bianchi import get_ring

    out: list[CheckRecord] = []
    reps = {m: sp.build_rep(m) for m in (1, 2, 3)}
    _rec(out, "spinor.clifford.relations",
         "generator relations e_u e_v + e_v e_u = -2 delta_uv for "
         "m in {1, 2, 3}",
         True, notes="verified at construction time")
    vols = {m: sp.volume_action(reps[m]) for m in (1, 2, 3)}
    _rec(out, "spinor.clifford.volume",
         "the volume product acts by the constant scalar "
         "-(-i)^(m+1) for m in {1, 2, 3}",
         all(vols[m] == sp._minus_i_pow(m + 1) * sp.GQ(-1)
             for m in (1, 2, 3)),
         lhs=str(vols[3]),
         notes="the quoted normalisation (-i)^(m+1) differs by a global "
               "sign from the quoted u-basis action of e_1; the u-basis "
               "convention is kept and the sign recorded")
    rep = reps[3]
    u = sp.u_spinor
    _rec(out, "spinor.basis.e1-action",
         "e_1 u(eps) = -i (prod eps) u(eps) at m = 3",
         all(sp.matvec(rep.gens[0], u(rep, e))
             == sp.vec_scale(u(rep, e), sp.GQ(0, -e[0] * e[1] * e[2]))
             for e in ((1, 1, 1), (1, -1, 1), (-1, -1, -1))))
    _rec(out, "spinor.basis.orthonormal",
         "the u basis is orthogonal with equal norms and "
         "u(eps)-conjugate = u(-eps)",
         all(sp.herm(u(rep, a), u(rep, b)).is_zero
             for a in ((1, 1, 1), (1, -1, 1)) for b in ((1, 1, -1), (-1, 1, 1)))
         and sp.vec_conj(u(rep, (1, -1, 1))) == u(rep, (-1, 1, -1)))

    r3 = get_ring("3ad")
    cf = r3.coframe
    frame = sp1_frame_forms(cf)
    frame["sigma_form"] = sp.sigma_fundamental_form(cf, 3)
    dec = sp.sigma_decompose(rep, frame["sigma_form"], 1)
    _rec(out, "spinor.sigma.decomposition",
         "eigenvalues -i(2r-3), Reeb eigenvalues i(-1)^r(-1)^3 and "
         "dimensions (1, 3, 3, 1)",
         dec.dims == [1, 3, 3, 1],
         notes="uses the hermitian-form convention +sum e^{2a} e^{2a+1} "
               "(the negative of the structure-module fundamental form)")
    _rec(out, "spinor.sigma.membership",
         "extreme eigenspace membership equations hold for the canonical "
         "sections",
         sp.sigma_membership(rep, frame["sigma_form"]))

    su3f = su3_frame_forms(cf)
    psi = sp.canonical_su3_spinor(rep)
    bar = sp.vec_conj(psi)
    mp = rep.form_matrix(su3f["Om+"])
    mm = rep.form_matrix(su3f["Om-"])
    _rec(out, "spinor.omega.action",
         "Om+ Psi = -4i Psi-bar and Om+ Psi-bar = 4i Psi on the extreme "
         "eigenspaces; both vanish on the middle ones",
         sp.matvec(mp, psi) == sp.vec_scale(bar, sp.GQ(0, -4))
         and sp.matvec(mp, bar) == sp.vec_scale(psi, sp.GQ(0, 4))
         and all(all(x.is_zero for x in sp.matvec(mp, u(rep, e)))
                 and all(x.is_zero for x in sp.matvec(mm, u(rep, e)))
                 for e in ((1, 1, -1), (1, -1, 1), (-1, 1, 1),
                           (1, -1, -1), (-1, 1, -1), (-1, -1, 1))),
         notes="the companion constants for Om- hold with one global sign "
               "(+4 / +4 instead of -4 / -4): the adapted-frame volume "
               "form is anti-holomorphic for this realization of the "
               "lowest eigenspace")
    _rec(out, "spinor.su3.reconstruction",
         "u(1,1,1)-bilinears give eta = e^1, the fundamental form and "
         "the complex volume form of the adapted frame",
         sp.form_from_spinor(rep, psi, 1, cf) == cf.e(1)
         and sp.form_from_spinor(rep, psi, 2, cf) == su3f["Phi"]
         and sp.holomorphic_volume_from_spinor(rep, psi, cf)
         == (su3f["Om+"], su3f["Om-"]))

    _rec(out, "spinor.purity",
         "the canonical section is pure (annihilator dimension 3); "
         "u(1,1,1) + u(-1,-1,-1) is not (dimension 0); every nonzero "
         "spinor is pure at m = 1",
         sp.purity_dim(rep, u(rep, (1, 1, 1))) == 3
         and sp.purity_dim(rep, sp.vec_add(u(rep, (1, 1, 1)),
                                           u(rep, (-1, -1, -1)))) == 0
         and sp.purity_dim(reps[1], u(reps[1], (1,))) == 1)

    checks = sp.sp1_spinor_suite(rep, frame)
    flips = sorted(c.name for c in checks if c.holds and c.sign == -1)
    _rec(out, "spinor.sp1.identities",
         "the 28 distinguished-spinor identities hold exactly, 25 at the "
         "quoted sign and 3 with the recorded chirality flip",
         all(c.holds for c in checks)
         and flips == ["psi0 = -xi3 psi3", "xi3 psi0 = psi3",
                       "xi3 psi1 = psi2"],
         notes="flipped legs: " + ", ".join(flips)
               + " (forced: rho(e3) rho(e2) rho(e1) acts as -1 on the "
                 "span of psi0)")
    pm = sp.plus_minus_relations(rep, frame)
    _rec(out, "spinor.sp1.plus-minus",
         "xi Psi+ = Psi-, X Psi+ = phi(X) Psi-, xi X Psi+ = phi(X) Psi+ "
         "(spinor-side phi convention)",
         all(c.holds and c.sign == 1 for c in pm))

    phi0 = r3.phi().embed()
    psi0 = sp.sp1_spinors(rep)[0]
    _rec(out, "spinor.g2.reconstruction",
         "the canonical spinor bilinears reproduce the associative and "
         "coassociative forms componentwise (35 + 35 components)",
         sp.form_from_spinor(rep, psi0, 3, cf) == phi0
         and sp.form_from_spinor(rep, psi0, 4, cf) == phi0.star())
    _rec(out, "spinor.g2.stabilizer",
         "the so(7) stabilizer of the reconstructed 3-form is "
         "14-dimensional",
         sp.stabilizer_dimension(
             sp.form_from_spinor(rep, sp.majorana_v_basis(rep)[0], 3, cf))
         == 14)

    rsu = get_ring("su3")
    plus = sp.vec_add(psi, bar)
    minus = sp.vec_scale(sp.vec_add(psi, sp.vec_scale(bar, -1)), -sp.I)
    fam3 = sp.majorana_family_form(rep, plus, minus, 3, rsu.coframe, rsu.table)
    fam4 = sp.majorana_family_form(rep, plus, minus, 4, rsu.coframe, rsu.table)
    _rec(out, "spinor.g2.family",
         "the circle of Majorana spinors reproduces phi(t), psi(t) with "
         "polynomial circle coefficients",
         fam3 == rsu.phi_theta().embed() and fam4 == rsu.psi_theta().embed(),
         notes="the quoted family combination enters with the opposite "
               "parameter sense (Psi- carries a minus sign)")

    vs = sp.majorana_v_basis(rep)
    rr = sp.real_rep7()
    dict_ok = True
    for mu in range(7):
        for k in range(8):
            lhs = sp.matvec(rep.gens[mu], vs[k])
            rhs = (sp.GQ(0),) * 8
            for ell in range(8):
                if rr[mu][ell][k]:
                    rhs = sp.vec_add(rhs, sp.vec_scale(vs[ell],
                                                       rr[mu][ell][k]))
            if tuple(lhs) != tuple(rhs):
                dict_ok = False
    _rec(out, "spinor.real.dictionary",
         "the eight real spinors are Majorana, orthogonal with equal "
         "norms, and intertwine the complex and real representations",
         dict_ok and all(sp.is_majorana(rep, v) for v in vs),
         notes="the quoted block-matrix table corresponds to reversing "
               "the generator order e_2..e_7 and correcting one sign "
               "(-E_67 -> +E_67, forced by the anticommutation relations)")
    c_mat = sp.charge_conjugation(rep)
    cc_ok = (sp.matmul(c_mat, c_mat) == sp.eye(8)
             and all(c_mat[i][j] == c_mat[j][i] and c_mat[i][j].im == 0
                     for i in range(8) for j in range(8)))
    for mu in range(7):
        g = rep.gens[mu]
        gt = tuple(tuple(g[j][i] for j in range(8)) for i in range(8))
        if sp.matmul(c_mat, g) != sp.mat_scale(sp.matmul(gt, c_mat), -1):
            cc_ok = False
    _rec(out, "spinor.real.charge-conjugation",
         "C is real symmetric, squares to one and satisfies "
         "C rho = -rho^T C; J is an antilinear involution",
         cc_ok)

    cons = sp.su3_killing_consequences(make_table("su3"))
    _rec(out, "spinor.killing.consequences",
         "the generalized-Killing endomorphism alternates into the "
         "structure equations (d eta, d Phi, d Om)",
         all(c.holds for c in cons))
    return out


def suite_heisenberg(params) -> list:
    from . import heisenberg as hb
    from .structures import torsion_classes, sp1_frame_forms

    out: list[CheckRecord] = []
    model = hb.heisenberg_model()
    _rec(out, "heisenberg.model",
         "the de-table satisfies the Jacobi identity and the structure "
         "equations at (a, d) = (1, 0)",
         True, notes="verified at construction time")
    lc = hb.levi_civita(model)
    _rec(out, "heisenberg.levi-civita",
         "the Koszul connection is metric and torsion-free; "
         "nabla_X xi_i = -phi_i(X) on the horizontal space and vertical "
         "derivatives of the Reeb fields vanish",
         lc.nabla(4, 1) == {5: Fraction(-1)}
         and all(lc.nabla(i, j) == {} for i in (1, 2, 3) for j in (1, 2, 3)))
    can = hb.canonical_connection(model)
    T = hb.canonical_torsion_form(model)
    _rec(out, "heisenberg.canonical-connection",
         "the skew-torsion shift reproduces the declared torsion and "
         "parallelizes it",
         all(hb.d_form(model, model.de[m]).is_zero for m in range(1, 8)),
         notes="nabla T = 0 is exercised in the test suite componentwise")

    seeded = random.Random(7)
    lams = [Fraction(0), Fraction(4)] + [
        Fraction(seeded.randint(-9, 9), seeded.randint(1, 5))
        for _ in range(5)]
    oracle_ok = all(
        hb.arrays_equal(hb.curvature_fp(hb.connection_lambda(model, lam)),
                        hb.closed_form_curvature_array(lam))
        for lam in lams)
    _rec(out, "heisenberg.oracle-equivalence",
         "first-principles curvature equals the closed form with R2 = 0 "
         "for l in {0, 4} and five seeded rationals",
         oracle_ok, notes=f"lambdas: {[str(x) for x in lams]}")
    _rec(out, "heisenberg.flatness",
         "the parallel-family connection (l = 4) is flat on this model",
         not hb.curvature_fp(hb.connection_lambda(model, Fraction(4))))
    _rec(out, "heisenberg.sigma-t",
         "the first Bianchi identity with sigma_T holds for the "
         "canonical connection",
         hb.sigma_t_identity(can, T))
    arr0 = hb.curvature_fp(can)
    _rec(out, "heisenberg.pair-symmetry",
         "the canonical curvature array is pairwise symmetric",
         all(arr0.get((j, i), Fraction(0)) == v for (i, j), v in arr0.items()))
    kc = hb.spin_killing_checks(model)
    _rec(out, "heisenberg.spin-killing",
         "the quoted derivative rules of the four distinguished "
         "spinors hold under the canonical spin lift",
         all(c.holds for c in kc),
         notes="factors carry the global sign of the Clifford realization "
               "(see CLIFFORD_REALIZATION_SIGN)")

    alphap = params.get("alphap", Fraction(1, 12))
    rep = hb.theorem1_end_to_end(alphap)
    expected = "pass" if 12 * alphap == 1 else "fail"
    _rec(out, "heisenberg.exact-solution",
         "both instanton checks and the flux identity hold exactly from "
         "first principles at a' with 12 a' = 1",
         rep.status == "pass", notes=rep.notes,
         params={"alphap": str(alphap)})
    neg = hb.theorem1_end_to_end(Fraction(1, 10))
    _rec(out, "heisenberg.exact-solution.negative-control",
         "perturbing a' to 1/10 makes the flux residual nonzero",
         neg.status == "fail" and not neg.bianchi_residual.is_zero)

    cf = model.coframe
    frame = sp1_frame_forms(cf)
    phi = cf.e(1, 2, 3)
    for i in (1, 2, 3):
        phi = phi + (frame["eta"][i] ^ frame["PhiH"][i])
    tc = torsion_classes(phi, phi.star(), hb.d_form(model, phi),
                         hb.d_form(model, phi.star()))
    _rec(out, "heisenberg.tau0",
         "tau0 = 24/7 at (a, d) = (1, 0)",
         tc.tau0 == cf.table.rat(Fraction(24, 7)))
    return out


def suite_bianchi(params) -> list:
    from . import bianchi as bi
    from .structures import NotInSpanError

    out: list[CheckRecord] = []
    r3 = bi.get_ring("3ad")
    t3 = r3.table
    al, de, ap = t3.sym("alpha"), t3.sym("delta"), t3.sym("alphap")
    l2 = t3.sym("lam2")
    beta = 2 * (de - 2 * al)

    res = bi.residual("3ad", -beta, l2)
    sysm = bi.extract_constraints(res)
    _rec(out, "bianchi.system.case-i",
         "the parallel-instanton residual coefficients are "
         "4a^2 - 3a' a^2 (b+l)^2 and 4ab - 3a' a (b+l)^2 (l - 4a)",
         sysm.polynomials[1] == 4 * al ** 2 - 3 * ap * al ** 2
         * (beta + l2) ** 2
         and sysm.polynomials[0]
         == 4 * al * beta - 3 * ap * al * (beta + l2) ** 2 * (l2 - 4 * al))
    # the exact solution pairs lam1 = -beta with lam2 = 0; at alpha = 0 the
    # residual vanishes identically, so that point is refused, not passed
    alpha_v = params.get("alpha", Fraction(1))
    delta_v = params.get("delta", Fraction(0))
    alphap_v = params.get("alphap", Fraction(1, 12))
    vals = sysm.substituted({"lam2": 0, "alpha": alpha_v, "delta": delta_v,
                             "alphap": alphap_v})
    _rec(out, "bianchi.exact-solution",
         "the full residual vanishes at the supplied parameters of the "
         "degenerate exact-solution branch",
         alpha_v != 0 and all(v.is_zero for v in vals),
         lhs="; ".join(str(v) for v in vals),
         notes="alpha = 0 is degenerate: the residual vanishes identically"
         if alpha_v == 0 else "",
         params={"alpha": str(alpha_v), "delta": str(delta_v),
                 "alphap": str(alphap_v)})

    for branch in bi.branches():
        rep = bi.verify_branch(branch)
        payload = rep.as_record()
        _rec(out, f"bianchi.branch.{branch.branch_id}",
             branch.description, rep.status == "pass",
             lhs=payload["residual_normal_form"],
             notes=rep.notes or ("expected nonzero residual confirmed"
                                 if not branch.expect_zero else ""),
             params={"hypotheses": payload["hypotheses"]})

    imp = bi.sasaki_3alpha_impossibility()
    _rec(out, "bianchi.impossibility.3-alpha",
         "no (lam1, lam2, a' > 0) solves the system at a = d: the "
         "eliminant factors with a negative-definite quadratic",
         imp.status == "pass", notes=imp.notes)

    tt3 = SymbolTable(("t",), sqrt_d=3)
    t = tt3.sym("t")
    rep3 = bi.approx_order_report(
        "3ad", {"lam": 2 * t ** 5, "delta": t ** 5,
                "alpha": t ** 5 - (tt3.sqrt() / 6) / t}, tt3)
    tt6 = SymbolTable(("t",), sqrt_d=6)
    t6 = tt6.sym("t")
    rep6 = bi.approx_order_report(
        "su3", {"lam": (2 * tt6.sqrt() / 3) / t6, "alpha": t6 ** 5,
                "delta": Fraction(3, 2) * t6 ** 5}, tt6)
    ttc = SymbolTable(("t",))
    repc = bi.approx_order_report(
        "3ad", {"lam": ttc.rat(1), "delta": ttc.rat(1),
                "alpha": ttc.rat(3)}, ttc)
    _rec(out, "bianchi.approximate.orders",
         "the scaled obstruction norms are O(a'^2): t-order 8 for both "
         "geometries, and a constant scaling fails at order 0",
         rep3.leading_order == 8 and rep6.leading_order == 8
         and repc.leading_order == 0 and repc.status == "fail",
         notes=f"norm^2: {rep3.norm_sq_text} and {rep6.norm_sq_text}")

    res_thm = bi.residual("3ad", t3.rat(4), t3.zero())
    basis2 = [res_thm.basis[0], res_thm.basis[0] + res_thm.basis[1]]
    s1 = bi.extract_constraints(res_thm)
    s2 = bi.extract_constraints(res_thm, basis=basis2)
    same_span = ((s2.polynomials[0] - (s1.polynomials[0] - s1.polynomials[1]))
                 .is_zero and (s2.polynomials[1] - s1.polynomials[1]).is_zero)
    _rec(out, "bianchi.basis-independence",
         "re-expressing the residual in a different basis of the same "
         "span gives an equivalent constraint system",
         same_span)
    try:
        bad = bi.extract_constraints(res_thm, basis=[res_thm.basis[0]])
        leftover_ok = False
    except NotInSpanError:
        leftover_ok = True
    _rec(out, "bianchi.basis-leftover",
         "a residual outside the declared span raises with the leftover "
         "component",
         leftover_ok)
    return out


SUITE_FUNCS = {
    "3ad": suite_3ad,
    "su3": suite_su3,
    "spinor": suite_spinor,
    "heisenberg": suite_heisenberg,
    "bianchi": suite_bianchi,
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def parse_params(text: str) -> dict:
    out = {}
    if not text:
        return out
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ValueError(f"parameter binding without '=': {piece!r}")
        key, val = piece.split("=", 1)
        key = key.strip()
        if key not in PARAM_KEYS:
            raise ValueError(f"unknown parameter: {key!r} "
                             f"(known: {', '.join(PARAM_KEYS)})")
        out[key] = Fraction(val.strip())
    return out


def run_suite(suite: str, params: dict) -> list:
    names = list(SUITE_FUNCS) if suite == "all" else [suite]
    records: list[CheckRecord] = []
    for name in names:
        records.extend(SUITE_FUNCS[name](params))
    return records


def report_payload(suite: str, records) -> dict:
    summary = {"pass": 0, "fail": 0, "flagged": 0}
    for r in records:
        summary[r.status] += 1
    return {
        "version": __version__,
        "suite": suite,
        "records": [asdict(r) for r in records],
        "summary": summary,
    }


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=False, ensure_ascii=True)


def list_checks(stream) -> None:
    print("suites:", ", ".join(SUITES), file=stream)
    for name, func in SUITE_FUNCS.items():
        recs = func({})
        for r in recs:
            print(f"  {name}: {r.check_id}", file=stream)


def cmd_verify(args) -> int:
    try:
        params = parse_params(args.params or "")
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.list:
        list_checks(sys.stdout)
        return 0
    if args.suite is None:
        print("error: --suite is required (or use --list)", file=sys.stderr)
        return 2
    records = run_suite(args.suite, params)
    payload = report_payload(args.suite, records)
    for r in records:
        line = f"{r.status.upper():7s} {r.check_id}: {r.claim}"
        if r.notes:
            line += f"  [{r.notes}]"
        print(line)
    s = payload["summary"]
    print(f"summary: {s['pass']} pass, {s['fail']} fail, "
          f"{s['flagged']} flagged")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(render_json(payload))
    return 0 if s["fail"] == 0 else 1


def cmd_show(args) -> int:
    from .structures import registry
    from . import spinor as sp
    reg = registry()
    if args.name in reg:
        obj = reg[args.name]
        print(obj.text() if hasattr(obj, "text") else str(obj))
        return 0
    rep = sp.build_rep(3)
    sreg = sp.spinor_registry(rep)
    if args.name in sreg:
        print(tuple(sreg[args.name]))
        return 0
    print(f"error: unknown name {args.name!r}; known: "
          + ", ".join(sorted(list(reg) + list(sreg))), file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hetg2",
        description="exact verification suites for the heterotic flux "
                    "identities on the two contact geometries")
    sub = parser.add_subparsers(dest="command")
    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", choices=SUITES)
    ver.add_argument("--params", help="rational overrides, e.g. "
                                      "alpha=1,delta=0,alphap=1/12")
    ver.add_argument("--json", help="write the report to this path")
    ver.add_argument("--list", action="store_true",
                     help="list suites and check ids")
    show = sub.add_parser("show", help="print a named form or spinor")
    show.add_argument("--name", required=True)
    args = parser.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "show":
        return cmd_show(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
