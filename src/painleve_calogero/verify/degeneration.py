"""Degeneration-limit checks: scaling schedules taking one model to the
next in the cascade VI -> V -> {IV, III} -> II -> I.

Each schedule carries a ``defect(eps, seed)`` callable that substitutes the
printed scalings into the SOURCE model and compares, at fixed tilded phase
points, one of three things:

  * the canonical vector field in tilded variables against the TARGET
    field (the Calogero limits, built by ``_calogero_limit``),
  * the second-order ODE vector field in (lambda, lambda') phase space
    (``_ode_defect_pvi_to_pv``, for PVI -> PV whose printed schedule lives
    at the equation level), or
  * the potential as a function of position, with the position-independent
    part projected out (``_potential_defect_elliptic``, for the elliptic ->
    hyperbolic limit whose printed momentum rescale is undetermined).

The defect must shrink to zero as eps -> 0; the suite reports the defect
at each eps of a pair against a linear-shrinkage envelope, and the shrink
ratio of the pair against a bracket [RATIO_MIN, ratio_max].  Schedules
whose expansions cancel beyond first order (rational -> second rational
is O(eps^2), second rational -> PI is O(eps^6)) carry the lower bound
only; the measured ratio is recorded.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from .. import elliptic
from ..dynamics import painleve_ode_rhs
from ..elliptic import PI, EllipticContext
from ..params import PainleveParams
from ..systems import PhaseState, SystemDescriptor, canonical_field
from .report import CheckReport, cbox, rng_for, worst, worst_over

# the tilded (target) parameters alpha~, beta~, gamma~, delta~
_AT, _BT, _GT, _DT = 0.23 + 0.11j, 0.31 - 0.07j, 0.19 + 0.05j, 0.27 - 0.09j
# lower end of every schedule's shrink-ratio bracket
RATIO_MIN = 3.3


@dataclass(frozen=True)
class DegenerationSchedule:
    """One scaling limit: its defect at eps plus pinned check data."""

    name: str
    source: str
    target: str
    defect: Callable[[float, int], float]  # (eps, seed) -> max defect over the samples
    eps_pair: tuple[float, float]  # (larger, smaller): the checked eps and the shrink ratio
    ratio_max: float               # upper end of the bracket; inf for superconvergent
    envelope_coeff: float          # tolerance at eps is coeff * eps^order
    order: int = 1

    def envelope(self, eps: float) -> float:
        return self.envelope_coeff * eps**self.order


# ---------------------------------------------------------------------------
# defect evaluators
# ---------------------------------------------------------------------------

def _tilded_point(rng, rank: int, target_eq: str):
    qs, ps = [], []
    for j in range(rank):
        if target_eq == "IV":
            qs.append(complex(0.55 + 0.5 * j + 0.1 * rng.uniform(0, 1),
                              0.12 + 0.1 * rng.uniform(0, 1)))
        else:
            qs.append(complex(0.35 + 0.5 * j + 0.1 * rng.uniform(0, 1),
                              0.1 + 0.12 * rng.uniform(0, 1)))
        ps.append(cbox(rng, 0.25, 0.6, -0.2, 0.2))
    return tuple(qs), tuple(ps), cbox(rng, 0.75, 0.95, 0.08, 0.18)


def _ode_defect_pvi_to_pv(eps: float, seed: int) -> float:
    """|eps^2 F_VI(lambda, v/eps, 1+eps*t; scheduled params) - F_V| at fixed points."""
    src = PainleveParams("VI", alpha=_AT, beta=_BT,
                         gamma=_GT / eps - _DT / eps**2, delta=_DT / eps**2)
    tgt = PainleveParams("V", alpha=_AT, beta=_BT, gamma=_GT, delta=_DT)

    def point_defect(rng):
        lam = cbox(rng, 0.45, 0.7, 0.15, 0.35)
        v = cbox(rng, 0.3, 0.5, -0.15, 0.15)
        tt = cbox(rng, 0.75, 0.95, 0.08, 0.18)
        f_src = eps * eps * painleve_ode_rhs(lam, v / eps, 1 + eps * tt, src)
        return abs(f_src - painleve_ode_rhs(lam, v, tt, tgt))

    return worst_over(seed, "degeneration.pvi_to_pv", 3, point_defect)


def _potential_defect_elliptic(eps: float, seed: int) -> float:
    """u-dependence of V_elliptic(scheduled) - V_hyperbolic over a position grid.

    Couplings are rescaled per the printed schedule (g2sq and g3sq blow up
    like 1/eps, 1/eps^2) and the modulus is fixed by 16 e^{pi i tau} =
    eps * t.  Both potentials are functions of position only at fixed
    (eps, t); constants are projected out by subtracting the grid mean.
    """
    g0, g1, g2t, g3t, g4 = (0.23 + 0.11j, 0.31 - 0.07j, 0.19 + 0.05j,
                            0.27 - 0.09j, 0.13 + 0.05j)
    tt = 1.0 + 0.2j
    tau = cmath.log(eps * tt / 16) / (1j * PI)
    ctx = EllipticContext(tau)
    g2sq = g2t / eps + g3t / eps**2
    g3sq = g3t / eps**2
    q2_fixed = 0.55 + 0.07j

    def v_source(u):
        total = 0j
        for q in (u, q2_fixed):
            total += (g0 * elliptic.shifted_p(q, 0, ctx)
                      + g1 * elliptic.shifted_p(q, 1, ctx)
                      + g2sq * elliptic.shifted_p(q, 2, ctx)
                      + g3sq * elliptic.shifted_p(q, 3, ctx))
        d, s = u - q2_fixed, u + q2_fixed
        total += g4 * (elliptic.weierstrass_p(d, ctx) + elliptic.weierstrass_p(s, ctx))
        return total

    def v_target(u):
        total = 0j
        for q in (u, q2_fixed):
            total += (g0 * PI**2 / cmath.sin(PI * q) ** 2
                      + g1 * PI**2 / cmath.cos(PI * q) ** 2
                      + g2t * PI**2 * tt / 2 * cmath.cos(2 * PI * q)
                      - g3t * PI**2 * tt**2 / 8 * cmath.cos(4 * PI * q))
        d, s = u - q2_fixed, u + q2_fixed
        total += g4 * PI**2 * (1 / cmath.sin(PI * d) ** 2 + 1 / cmath.sin(PI * s) ** 2)
        return total

    rng = rng_for(seed, "degeneration.elliptic_to_hyperbolic")
    grid = [complex(0.08 + 0.035 * k + 0.01 * rng.uniform(0, 1), 0.1) for k in range(9)]
    diffs = [v_source(u) - v_target(u) for u in grid]
    mean = sum(diffs) / len(diffs)
    return worst(abs(d - mean) for d in diffs)


def _calogero_limit(name, source_eq, target_eq, subs, chain, target_params, *,
                    g4sq=0j, rank=1, **check) -> DegenerationSchedule:
    """A limit checked on the canonical Calogero field in tilded variables.

    ``subs(eps, qt, pt, tt)`` gives the source point and parameters;
    ``chain(eps)`` gives d(q~)/dq, d(p~)/dp and dt/d(t~).  The defect is the
    max field mismatch over the fixed tilded sample points.
    """
    tgt = SystemDescriptor(target_eq, "calogero", rank, g4sq, target_params)

    def defect(eps: float, seed: int) -> float:
        dqt_dq, dpt_dp, dt_dtt = chain(eps)

        def point_defect(rng):
            qt, pt, tt = _tilded_point(rng, rank, target_eq)
            q, p, t, src_params = subs(eps, qt, pt, tt)
            src = SystemDescriptor(source_eq, "calogero", rank, g4sq, src_params)
            f_q, f_p = canonical_field(src, PhaseState(q, p, t))
            t_q, t_p = canonical_field(tgt, PhaseState(qt, pt, tt))
            return worst([*(abs(dqt_dq * a * dt_dtt - b) for a, b in zip(f_q, t_q)),
                          *(abs(dpt_dp * a * dt_dtt - b) for a, b in zip(f_p, t_p))])

        return worst_over(seed, f"degeneration.{name}", 3, point_defect)

    return DegenerationSchedule(name, f"P{source_eq}-calogero", f"P{target_eq}-calogero",
                                defect, **check)


# ---------------------------------------------------------------------------
# the printed substitutions and the schedules
# ---------------------------------------------------------------------------

def _subs_551(eps, qt, pt, tt):
    params = PainleveParams("V",
                            alpha=1 / (8 * eps**4),
                            beta=_BT / 4,
                            gamma=-1 / (4 * eps**4),
                            delta=-1 / (8 * eps**4) + _AT / (2 * eps**2))
    q = tuple(PI * 1j + math.sqrt(eps) * x for x in qt)
    p = tuple(x / (2 * math.sqrt(eps)) for x in pt)
    return q, p, 1 + 2 * eps * tt, params


def _subs_552(eps, qt, pt, tt):
    params = PainleveParams("V",
                            alpha=_AT / (4 * eps) + _GT / (8 * eps**2),
                            beta=-_GT / (8 * eps**2),
                            gamma=_BT * eps / 4,
                            delta=_DT * eps**2 / 8)
    q = tuple(-x - cmath.log(eps / 4) for x in qt)
    p = tuple(-x for x in pt)
    return q, p, tt, params


def _subs_553a(eps, qt, pt, tt):
    params = PainleveParams("IV", alpha=-2 * _AT - 1 / (2 * eps**6), beta=-1 / (2 * eps**12))
    t = (-1 + 4 ** (-1 / 3) * eps**4 * tt) / eps**3
    q = tuple(2 * (1 + 2 ** (-1 / 3) * eps**2 * x) / eps**1.5 for x in qt)
    p = tuple(4 ** (2 / 3) * x / math.sqrt(eps) for x in pt)
    return q, p, t, params


def _subs_553b(eps, qt, pt, tt):
    params = PainleveParams("III",
                            alpha=-1 / (2 * eps**6),
                            beta=(1 + 4 * eps**3 * _AT) / (2 * eps**6),
                            gamma=1 / (4 * eps**6),
                            delta=-1 / (4 * eps**6))
    q = tuple(2 * eps * x for x in qt)
    p = tuple(x / eps for x in pt)
    return q, p, 1 + 2 * eps**2 * tt, params


def _subs_554(eps, qt, pt, tt):
    params = PainleveParams("II", alpha=4 / eps**15)
    t = (-6 + eps**12 * tt) / eps**10
    q = tuple((1 + eps**6 * x) / eps**5 for x in qt)
    p = tuple(x / eps for x in pt)
    return q, p, t, params


_PII_TARGET = PainleveParams("II", alpha=_AT)

SCHEDULES: dict[str, DegenerationSchedule] = {s.name: s for s in (
    DegenerationSchedule(
        "pvi_to_pv", "PVI-ode", "PV-ode", _ode_defect_pvi_to_pv,
        eps_pair=(1e-2, 1e-3), ratio_max=30.0, envelope_coeff=100.0),
    DegenerationSchedule(
        "elliptic_to_hyperbolic", "elliptic", "hyperbolic", _potential_defect_elliptic,
        eps_pair=(1e-3, 1e-4), ratio_max=30.0, envelope_coeff=1e-3 / 1e-4),
    _calogero_limit(
        "hyperbolic_to_rational", "V", "IV", _subs_551,
        lambda eps: (1 / math.sqrt(eps), 2 * math.sqrt(eps), 2 * eps),
        PainleveParams("IV", alpha=_AT, beta=_BT),
        eps_pair=(1e-2, 1e-3), ratio_max=30.0, envelope_coeff=500.0),
    _calogero_limit(
        "hyperbolic_to_exp_hyperbolic", "V", "III", _subs_552,
        lambda eps: (-1.0, -1.0, 1.0),
        PainleveParams("III", alpha=_AT, beta=_BT, gamma=_GT, delta=_DT),
        g4sq=0.11 + 0.04j, rank=2,
        eps_pair=(1e-2, 1e-3), ratio_max=30.0, envelope_coeff=20.0),
    _calogero_limit(
        "rational_to_second_rational", "IV", "II", _subs_553a,
        lambda eps: (eps ** -0.5 / 2 ** (2 / 3), math.sqrt(eps) / 4 ** (2 / 3),
                     4 ** (-1 / 3) * eps),
        _PII_TARGET,
        eps_pair=(1e-1, 1e-2), ratio_max=math.inf, envelope_coeff=50.0, order=2),
    _calogero_limit(
        "exp_hyperbolic_to_second_rational", "III", "II", _subs_553b,
        lambda eps: (1 / (2 * eps), eps, 2 * eps**2),
        _PII_TARGET, g4sq=0.11 + 0.04j, rank=2,
        eps_pair=(1e-1, 1e-2), ratio_max=30.0, envelope_coeff=100.0),
    _calogero_limit(
        "second_rational_to_pi", "II", "I", _subs_554,
        lambda eps: (1 / eps, eps, eps**2),
        PainleveParams("I"), g4sq=0.11 + 0.04j, rank=2,
        eps_pair=(0.5, 0.25), ratio_max=math.inf, envelope_coeff=50.0, order=6),
)}


def run_degeneration_suite(sched: DegenerationSchedule, seed: int = 7) -> list[CheckReport]:
    """Per-eps defect reports plus the shrink-ratio report for the eps pair."""
    e1, e2 = sched.eps_pair
    d1, d2 = sched.defect(e1, seed), sched.defect(e2, seed)
    reports = [CheckReport(
        f"degeneration.{sched.name}.defect_eps{eps:g}", d, sched.envelope(eps), 3,
        metadata={"eps": f"{eps:g}", "source": sched.source, "target": sched.target})
        for eps, d in ((e1, d1), (e2, d2))]
    ratio = d1 / d2 if d2 > 0 else math.inf
    lo, hi = RATIO_MIN, sched.ratio_max
    # report max_error as distance-from-bracket so passed <=> in bracket
    violation = 0.0 if lo <= ratio <= hi else min(abs(ratio - lo), abs(ratio - hi))
    reports.append(CheckReport(
        f"degeneration.{sched.name}.shrink_ratio", violation, 0.0, 2,
        metadata={"ratio": f"{ratio:.6g}", "bracket": f"[{lo:g}, {hi:g}]",
                  "eps_pair": f"({e1:g}, {e2:g})", "defects": f"({d1:.6g}, {d2:.6g})"}))
    return reports
