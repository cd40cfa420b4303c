"""Degeneration-limit checks: scaling schedules taking one model to the
next in the cascade VI -> V -> {IV, III} -> II -> I.

Each schedule carries a ``defect(eps, seed)`` callable that substitutes the
printed scalings into the SOURCE model and compares, at fixed tilded phase
points, one of two things:

  * the canonical vector field in tilded variables against the TARGET
    field (every Calogero limit, elliptic -> hyperbolic included, built by
    ``_calogero_limit``), or
  * the second-order ODE vector field in (lambda, lambda') phase space
    (``_ode_defect_pvi_to_pv``, for PVI -> PV whose printed schedule lives
    at the equation level).

The defect must shrink to zero as eps -> 0; the suite reports the defect
at each eps of a pair against an envelope coeff * eps^order, and the
shrink ratio of the pair against a bracket [RATIO_MIN, ratio_max].
Elliptic -> hyperbolic is O(eps^2), so its bracket reaches 300.  Schedules
whose expansions cancel beyond first order (rational -> second rational
is O(eps^2), second rational -> PI is O(eps^6)) carry the lower bound
only; the measured ratio is recorded.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from ..dynamics import painleve_ode_rhs
from ..elliptic import PI, TWO_PI_I
from ..params import PainleveParams
from ..systems import PhaseState, SystemDescriptor, canonical_field
from .report import CheckReport, cbox, worst, worst_over

# the tilded (target) parameters alpha~, beta~, gamma~, delta~
_AT, _BT, _GT, _DT = 0.23 + 0.11j, 0.31 - 0.07j, 0.19 + 0.05j, 0.27 - 0.09j
# lower end of every schedule's shrink-ratio bracket
RATIO_MIN = 3.3
# seeded sample points behind each defect value
SAMPLES = 3


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

    return worst_over(seed, "degeneration.pvi_to_pv", SAMPLES, point_defect)


def _calogero_limit(name, source_eq, target_eq, subs, target_params, *,
                    g4sq=0j, rank=1, **check) -> DegenerationSchedule:
    """A limit checked on the canonical Calogero field in tilded variables.

    ``subs(eps, qt, pt, tt)`` gives the source point (q, p, t), its
    parameters and the chain (d(q~)/dq, d(p~)/dp, dt/d(t~)) at that point,
    which takes the source field to tilded variables.  The defect is the
    max field mismatch over the fixed tilded sample points.
    """
    tgt = SystemDescriptor(target_eq, "calogero", rank, g4sq, target_params)

    def defect(eps: float, seed: int) -> float:
        def point_defect(rng):
            qt, pt, tt = _tilded_point(rng, rank, target_eq)
            q, p, t, src_params, (dqt_dq, dpt_dp, dt_dtt) = subs(eps, qt, pt, tt)
            src = SystemDescriptor(source_eq, "calogero", rank, g4sq, src_params)
            f_q, f_p = canonical_field(src, PhaseState(q, p, t))
            t_q, t_p = canonical_field(tgt, PhaseState(qt, pt, tt))
            return worst([*(abs(dqt_dq * a * dt_dtt - b) for a, b in zip(f_q, t_q)),
                          *(abs(dpt_dp * a * dt_dtt - b) for a, b in zip(f_p, t_p))])

        return worst_over(seed, f"degeneration.{name}", SAMPLES, point_defect)

    return DegenerationSchedule(name, f"P{source_eq}-calogero", f"P{target_eq}-calogero",
                                defect, **check)


# ---------------------------------------------------------------------------
# the printed substitutions and the schedules
# ---------------------------------------------------------------------------

def _subs_elliptic(eps, qt, pt, tt):
    params = PainleveParams("VI", alpha=_AT, beta=_BT,
                            gamma=_GT / (2 * eps) - _DT / eps**2,
                            delta=0.5 + _GT / (2 * eps) + _DT / eps**2)
    q = tuple(x / TWO_PI_I for x in qt)
    p = tuple(1j * PI * x for x in pt)
    tau = cmath.log(eps * tt / 16) / (1j * PI)
    return q, p, tau, params, (TWO_PI_I, 1 / (1j * PI), 1 / (1j * PI * tt))


def _subs_551(eps, qt, pt, tt):
    params = PainleveParams("V",
                            alpha=1 / (8 * eps**4),
                            beta=_BT / 4,
                            gamma=-1 / (4 * eps**4),
                            delta=-1 / (8 * eps**4) + _AT / (2 * eps**2))
    q = tuple(PI * 1j + math.sqrt(eps) * x for x in qt)
    p = tuple(x / (2 * math.sqrt(eps)) for x in pt)
    return q, p, 1 + 2 * eps * tt, params, (1 / math.sqrt(eps), 2 * math.sqrt(eps), 2 * eps)


def _subs_552(eps, qt, pt, tt):
    params = PainleveParams("V",
                            alpha=_AT / (4 * eps) + _GT / (8 * eps**2),
                            beta=-_GT / (8 * eps**2),
                            gamma=_BT * eps / 4,
                            delta=_DT * eps**2 / 8)
    q = tuple(-x - cmath.log(eps / 4) for x in qt)
    p = tuple(-x for x in pt)
    return q, p, tt, params, (-1.0, -1.0, 1.0)


def _subs_553a(eps, qt, pt, tt):
    params = PainleveParams("IV", alpha=-2 * _AT - 1 / (2 * eps**6), beta=-1 / (2 * eps**12))
    t = (-1 + 4 ** (-1 / 3) * eps**4 * tt) / eps**3
    q = tuple(2 * (1 + 2 ** (-1 / 3) * eps**2 * x) / eps**1.5 for x in qt)
    p = tuple(4 ** (2 / 3) * x / math.sqrt(eps) for x in pt)
    return q, p, t, params, (eps**-0.5 / 2 ** (2 / 3), math.sqrt(eps) / 4 ** (2 / 3),
                             4 ** (-1 / 3) * eps)


def _subs_553b(eps, qt, pt, tt):
    params = PainleveParams("III",
                            alpha=-1 / (2 * eps**6),
                            beta=(1 + 4 * eps**3 * _AT) / (2 * eps**6),
                            gamma=1 / (4 * eps**6),
                            delta=-1 / (4 * eps**6))
    q = tuple(2 * eps * x for x in qt)
    p = tuple(x / eps for x in pt)
    return q, p, 1 + 2 * eps**2 * tt, params, (1 / (2 * eps), eps, 2 * eps**2)


def _subs_554(eps, qt, pt, tt):
    params = PainleveParams("II", alpha=4 / eps**15)
    t = (-6 + eps**12 * tt) / eps**10
    q = tuple((1 + eps**6 * x) / eps**5 for x in qt)
    p = tuple(x / eps for x in pt)
    return q, p, t, params, (1 / eps, eps, eps**2)


_PII_TARGET = PainleveParams("II", alpha=_AT)

SCHEDULES: dict[str, DegenerationSchedule] = {s.name: s for s in (
    DegenerationSchedule(
        "pvi_to_pv", "PVI-ode", "PV-ode", _ode_defect_pvi_to_pv,
        eps_pair=(1e-2, 1e-3), ratio_max=30.0, envelope_coeff=100.0),
    _calogero_limit(
        "elliptic_to_hyperbolic", "VI", "V", _subs_elliptic,
        PainleveParams("V", alpha=_AT, beta=_BT, gamma=_GT, delta=_DT),
        g4sq=0.11 + 0.04j, rank=2,
        eps_pair=(1e-3, 1e-4), ratio_max=300.0, envelope_coeff=10.0, order=2),
    _calogero_limit(
        "hyperbolic_to_rational", "V", "IV", _subs_551,
        PainleveParams("IV", alpha=_AT, beta=_BT),
        eps_pair=(1e-2, 1e-3), ratio_max=30.0, envelope_coeff=500.0),
    _calogero_limit(
        "hyperbolic_to_exp_hyperbolic", "V", "III", _subs_552,
        PainleveParams("III", alpha=_AT, beta=_BT, gamma=_GT, delta=_DT),
        g4sq=0.11 + 0.04j, rank=2,
        eps_pair=(1e-2, 1e-3), ratio_max=30.0, envelope_coeff=20.0),
    _calogero_limit(
        "rational_to_second_rational", "IV", "II", _subs_553a,
        _PII_TARGET,
        eps_pair=(1e-1, 1e-2), ratio_max=math.inf, envelope_coeff=50.0, order=2),
    _calogero_limit(
        "exp_hyperbolic_to_second_rational", "III", "II", _subs_553b,
        _PII_TARGET, g4sq=0.11 + 0.04j, rank=2,
        eps_pair=(1e-1, 1e-2), ratio_max=30.0, envelope_coeff=100.0),
    _calogero_limit(
        "second_rational_to_pi", "II", "I", _subs_554,
        PainleveParams("I"), g4sq=0.11 + 0.04j, rank=2,
        eps_pair=(0.5, 0.25), ratio_max=math.inf, envelope_coeff=50.0, order=6),
)}


def run_degeneration_suite(sched: DegenerationSchedule, seed: int = 7) -> list[CheckReport]:
    """Per-eps defect reports plus the shrink-ratio report for the eps pair.
    A ``sched`` that is not a ``DegenerationSchedule`` raises ``ValueError``."""
    if not isinstance(sched, DegenerationSchedule):
        raise ValueError(f"sched must be a DegenerationSchedule, such as SCHEDULES[name] for a "
                         f"name in {tuple(SCHEDULES)}, got {sched!r}")
    e1, e2 = sched.eps_pair
    d1, d2 = sched.defect(e1, seed), sched.defect(e2, seed)
    reports = [CheckReport(
        f"degeneration.{sched.name}.defect_eps{eps:g}", d, sched.envelope(eps), SAMPLES,
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
