"""Degeneration-limit checks: scaling schedules taking one model to the
next in the cascade VI -> V -> {IV, III} -> II -> I.

Each schedule substitutes the printed scalings into the SOURCE model and
compares, at fixed tilded phase points, either

  * the canonical vector field in tilded variables against the TARGET
    field ('canonical' schedules),
  * the second-order ODE vector field in (lambda, lambda') phase space
    ('ode', used for PVI -> PV whose printed schedule lives at the
    equation level), or
  * the potential as a function of position, with the position-independent
    part projected out ('potential', used for the elliptic -> hyperbolic
    limit whose printed momentum rescale is undetermined).

The defect must shrink to zero as eps -> 0; the suite reports the defect
per eps against a linear-shrinkage envelope and the shrink ratio of an eps
pair against a pinned bracket.  Schedules whose expansions cancel beyond
first order (rational -> second rational is O(eps^2), second rational ->
PI is O(eps^6)) carry a lower bound only; the measured ratio is recorded.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .. import elliptic
from ..dynamics import painleve_ode_rhs
from ..elliptic import PI, EllipticContext
from ..errors import ScheduleMismatch
from ..params import PainleveParams
from ..systems import PhaseState, SystemDescriptor, canonical_field
from .report import CheckReport, cbox, rng_for

# symbols a schedule may substitute, per source model
_SOURCE_SYMBOLS = {
    "PVI-ode": {"t", "alpha", "beta", "gamma", "delta"},
    "elliptic": {"tau", "g0sq", "g1sq", "g2sq", "g3sq", "g4sq"},
    "PV-calogero": {"t", "q_j", "p_j", "alpha", "beta", "gamma", "delta"},
    "PIV-calogero": {"t", "q_j", "p_j", "alpha", "beta"},
    "PIII-calogero": {"t", "q_j", "p_j", "alpha", "beta", "gamma", "delta"},
    "PII-calogero": {"t", "q_j", "p_j", "alpha"},
}

_CONST = dict(at=0.23 + 0.11j, bt=0.31 - 0.07j, gt=0.19 + 0.05j, dt=0.27 - 0.09j)


@dataclass(frozen=True)
class DegenerationSchedule:
    """One printed scaling limit: substitutions plus pinned check data."""

    name: str
    source: str
    target: str
    substitutions: tuple[tuple[str, str], ...]
    epsilon: float                      # reference eps for the envelope check
    eps_pair: tuple[float, float]       # (larger, smaller) for the shrink ratio
    ratio_bracket: tuple[float, float]  # (lo, hi); hi = inf for superconvergent
    envelope_coeff: float               # tolerance at eps is coeff * eps^order
    order: int = 1
    kind: str = "canonical"
    rank: int = 1

    def __post_init__(self):
        allowed = _SOURCE_SYMBOLS[self.source]
        bad = [s for s, _ in self.substitutions if s not in allowed]
        if bad:
            raise ScheduleMismatch(
                f"schedule {self.name}: symbols {bad} absent from source {self.source}")

    def envelope(self, eps: float) -> float:
        return self.envelope_coeff * eps**self.order


# ---------------------------------------------------------------------------
# defect evaluators
# ---------------------------------------------------------------------------

def _tilded_points(name: str, rank: int, target_eq: str, seed: int, n: int = 3):
    rng = rng_for(seed, f"degeneration.{name}")
    points = []
    for _ in range(n):
        qs, ps = [], []
        for j in range(rank):
            if target_eq == "IV":
                qs.append(complex(0.55 + 0.5 * j + 0.1 * rng.uniform(0, 1),
                                  0.12 + 0.1 * rng.uniform(0, 1)))
            else:
                qs.append(complex(0.35 + 0.5 * j + 0.1 * rng.uniform(0, 1),
                                  0.1 + 0.12 * rng.uniform(0, 1)))
            ps.append(cbox(rng, 0.25, 0.6, -0.2, 0.2))
        tt = cbox(rng, 0.75, 0.95, 0.08, 0.18)
        points.append((tuple(qs), tuple(ps), tt))
    return points


def _canonical_defect(sched: DegenerationSchedule, eps: float, seed: int) -> float:
    """Max field defect in tilded variables over the fixed sample points."""
    spec = _CANONICAL[sched.name]
    worst = 0.0
    for qt, pt, tt in _tilded_points(sched.name, sched.rank, spec["target_eq"], seed):
        src_eq, tgt_eq = spec["source_eq"], spec["target_eq"]
        q, p, t, src_params, g4_src = spec["subs"](eps, qt, pt, tt, spec["g4sq"])
        dqt_dq, dpt_dp, dt_dtt = spec["chain"](eps)
        src = SystemDescriptor(src_eq, "calogero", sched.rank, g4_src, src_params)
        f_q, f_p = canonical_field(src, PhaseState(q, p, t))
        tgt = SystemDescriptor(tgt_eq, "calogero", sched.rank, spec["g4sq"], spec["target_params"])
        t_q, t_p = canonical_field(tgt, PhaseState(qt, pt, tt))
        for j in range(sched.rank):
            worst = max(worst, abs(dqt_dq * f_q[j] * dt_dtt - t_q[j]))
            worst = max(worst, abs(dpt_dp * f_p[j] * dt_dtt - t_p[j]))
    return worst


def _ode_defect_pvi_to_pv(eps: float, seed: int) -> float:
    """|eps^2 F_VI(lambda, v/eps, 1+eps*t; scheduled params) - F_V| at fixed points."""
    at, bt, gt, dt = _CONST["at"], _CONST["bt"], _CONST["gt"], _CONST["dt"]
    rng = rng_for(seed, "degeneration.pvi_to_pv")
    worst = 0.0
    for _ in range(3):
        lam = cbox(rng, 0.45, 0.7, 0.15, 0.35)
        v = cbox(rng, 0.3, 0.5, -0.15, 0.15)
        tt = cbox(rng, 0.75, 0.95, 0.08, 0.18)
        src = PainleveParams("VI", alpha=at, beta=bt,
                             gamma=gt / eps - dt / eps**2, delta=dt / eps**2)
        tgt = PainleveParams("V", alpha=at, beta=bt, gamma=gt, delta=dt)
        f_src = eps * eps * painleve_ode_rhs("VI", lam, v / eps, 1 + eps * tt, src)
        f_tgt = painleve_ode_rhs("V", lam, v, tt, tgt)
        worst = max(worst, abs(f_src - f_tgt))
    return worst


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
    return max(abs(d - mean) for d in diffs)


# ---------------------------------------------------------------------------
# schedule registry
# ---------------------------------------------------------------------------

def _subs_551(eps, qt, pt, tt, g4sq):
    at, bt = _CONST["at"], _CONST["bt"]
    params = PainleveParams("V",
                            alpha=1 / (8 * eps**4),
                            beta=bt / 4,
                            gamma=-1 / (4 * eps**4),
                            delta=-1 / (8 * eps**4) + at / (2 * eps**2))
    q = tuple(PI * 1j + math.sqrt(eps) * x for x in qt)
    p = tuple(x / (2 * math.sqrt(eps)) for x in pt)
    return q, p, 1 + 2 * eps * tt, params, g4sq


def _subs_552(eps, qt, pt, tt, g4sq):
    at, bt, gt, dt = _CONST["at"], _CONST["bt"], _CONST["gt"], _CONST["dt"]
    params = PainleveParams("V",
                            alpha=at / (4 * eps) + gt / (8 * eps**2),
                            beta=-gt / (8 * eps**2),
                            gamma=bt * eps / 4,
                            delta=dt * eps**2 / 8)
    q = tuple(-x - cmath.log(eps / 4) for x in qt)
    p = tuple(-x for x in pt)
    return q, p, tt, params, g4sq


def _subs_553a(eps, qt, pt, tt, g4sq):
    at = _CONST["at"]
    params = PainleveParams("IV", alpha=-2 * at - 1 / (2 * eps**6), beta=-1 / (2 * eps**12))
    t = (-1 + 4 ** (-1 / 3) * eps**4 * tt) / eps**3
    q = tuple(2 * (1 + 2 ** (-1 / 3) * eps**2 * x) / eps**1.5 for x in qt)
    p = tuple(4 ** (2 / 3) * x / math.sqrt(eps) for x in pt)
    return q, p, t, params, g4sq


def _subs_553b(eps, qt, pt, tt, g4sq):
    at = _CONST["at"]
    params = PainleveParams("III",
                            alpha=-1 / (2 * eps**6),
                            beta=(1 + 4 * eps**3 * at) / (2 * eps**6),
                            gamma=1 / (4 * eps**6),
                            delta=-1 / (4 * eps**6))
    q = tuple(2 * eps * x for x in qt)
    p = tuple(x / eps for x in pt)
    return q, p, 1 + 2 * eps**2 * tt, params, g4sq


def _subs_554(eps, qt, pt, tt, g4sq):
    params = PainleveParams("II", alpha=4 / eps**15)
    t = (-6 + eps**12 * tt) / eps**10
    q = tuple((1 + eps**6 * x) / eps**5 for x in qt)
    p = tuple(x / eps for x in pt)
    return q, p, t, params, g4sq


_CANONICAL = {
    "hyperbolic_to_rational": dict(
        source_eq="V", target_eq="IV", subs=_subs_551, g4sq=0j,
        chain=lambda eps: (1 / math.sqrt(eps), 2 * math.sqrt(eps), 2 * eps),
        target_params=PainleveParams("IV", alpha=_CONST["at"], beta=_CONST["bt"]),
    ),
    "hyperbolic_to_exp_hyperbolic": dict(
        source_eq="V", target_eq="III", subs=_subs_552, g4sq=0.11 + 0.04j,
        chain=lambda eps: (-1.0, -1.0, 1.0),
        target_params=PainleveParams("III", alpha=_CONST["at"], beta=_CONST["bt"],
                                     gamma=_CONST["gt"], delta=_CONST["dt"]),
    ),
    "rational_to_second_rational": dict(
        source_eq="IV", target_eq="II", subs=_subs_553a, g4sq=0j,
        chain=lambda eps: (eps ** -0.5 / 2 ** (2 / 3), math.sqrt(eps) / 4 ** (2 / 3),
                           4 ** (-1 / 3) * eps),
        target_params=PainleveParams("II", alpha=_CONST["at"]),
    ),
    "exp_hyperbolic_to_second_rational": dict(
        source_eq="III", target_eq="II", subs=_subs_553b, g4sq=0.11 + 0.04j,
        chain=lambda eps: (1 / (2 * eps), eps, 2 * eps**2),
        target_params=PainleveParams("II", alpha=_CONST["at"]),
    ),
    "second_rational_to_pi": dict(
        source_eq="II", target_eq="I", subs=_subs_554, g4sq=0.11 + 0.04j,
        chain=lambda eps: (1 / eps, eps, eps**2),
        target_params=PainleveParams("I"),
    ),
}

SCHEDULES: dict[str, DegenerationSchedule] = {}


def _register(s: DegenerationSchedule):
    SCHEDULES[s.name] = s


_register(DegenerationSchedule(
    "pvi_to_pv", "PVI-ode", "PV-ode",
    (("t", "1 + eps*t~"), ("alpha", "alpha~"), ("beta", "beta~"),
     ("gamma", "gamma~/eps - delta~/eps^2"), ("delta", "delta~/eps^2")),
    epsilon=1e-3, eps_pair=(1e-2, 1e-3), ratio_bracket=(3.3, 30.0),
    envelope_coeff=100.0, kind="ode"))

_register(DegenerationSchedule(
    "elliptic_to_hyperbolic", "elliptic", "hyperbolic",
    (("tau", "16 e^{pi i tau} = eps*t~"), ("g0sq", "g0~^2"), ("g1sq", "g1~^2"),
     ("g2sq", "g2~^2/eps + g3~^2/eps^2"), ("g3sq", "g3~^2/eps^2"), ("g4sq", "g4~^2")),
    epsilon=1e-4, eps_pair=(1e-3, 1e-4), ratio_bracket=(3.3, 30.0),
    envelope_coeff=1e-3 / 1e-4, kind="potential", rank=2))

_register(DegenerationSchedule(
    "hyperbolic_to_rational", "PV-calogero", "PIV-calogero",
    (("t", "1 + 2*eps*t~"), ("q_j", "pi*i + eps^(1/2)*q~_j"), ("p_j", "p~_j/(2 eps^(1/2))"),
     ("alpha", "1/(8 eps^4)"), ("beta", "beta~/4"), ("gamma", "-1/(4 eps^4)"),
     ("delta", "-1/(8 eps^4) + alpha~/(2 eps^2)")),
    epsilon=1e-3, eps_pair=(1e-2, 1e-3), ratio_bracket=(3.3, 30.0),
    envelope_coeff=500.0))

_register(DegenerationSchedule(
    "hyperbolic_to_exp_hyperbolic", "PV-calogero", "PIII-calogero",
    (("q_j", "-q~_j - log(eps/4)"), ("p_j", "-p~_j"),
     ("alpha", "alpha~/(4 eps) + gamma~/(8 eps^2)"), ("beta", "-gamma~/(8 eps^2)"),
     ("gamma", "beta~*eps/4"), ("delta", "delta~*eps^2/8")),
    epsilon=1e-3, eps_pair=(1e-2, 1e-3), ratio_bracket=(3.3, 30.0),
    envelope_coeff=20.0, rank=2))

_register(DegenerationSchedule(
    "rational_to_second_rational", "PIV-calogero", "PII-calogero",
    (("t", "(-1 + 4^(-1/3) eps^4 t~)/eps^3"), ("q_j", "q_j/2 = (1 + 2^(-1/3) eps^2 q~_j)/eps^(3/2)"),
     ("p_j", "4^(2/3) p~_j/eps^(1/2)"), ("alpha", "-2 alpha~ - 1/(2 eps^6)"),
     ("beta", "-1/(2 eps^12)")),
    epsilon=1e-2, eps_pair=(1e-1, 1e-2), ratio_bracket=(3.3, math.inf),
    envelope_coeff=50.0, order=2))

_register(DegenerationSchedule(
    "exp_hyperbolic_to_second_rational", "PIII-calogero", "PII-calogero",
    (("t", "1 + 2 eps^2 t~"), ("q_j", "2 eps q~_j"), ("p_j", "p~_j/eps"),
     ("alpha", "-1/(2 eps^6)"), ("beta", "(1 + 4 eps^3 alpha~)/(2 eps^6)"),
     ("gamma", "1/(4 eps^6)"), ("delta", "-1/(4 eps^6)")),
    epsilon=1e-2, eps_pair=(1e-1, 1e-2), ratio_bracket=(3.3, 30.0),
    envelope_coeff=100.0, rank=2))

_register(DegenerationSchedule(
    "second_rational_to_pi", "PII-calogero", "PI-calogero",
    (("t", "(-6 + eps^12 t~)/eps^10"), ("q_j", "(1 + eps^6 q~_j)/eps^5"),
     ("p_j", "p~_j/eps"), ("alpha", "4/eps^15")),
    epsilon=0.25, eps_pair=(0.5, 0.25), ratio_bracket=(3.3, math.inf),
    envelope_coeff=50.0, order=6, rank=2))


def schedule_defect(sched: DegenerationSchedule, eps: float, seed: int = 7) -> float:
    if sched.kind == "ode":
        return _ode_defect_pvi_to_pv(eps, seed)
    if sched.kind == "potential":
        return _potential_defect_elliptic(eps, seed)
    return _canonical_defect(sched, eps, seed)


def run_degeneration_suite(sched: DegenerationSchedule, eps_list=None,
                           seed: int = 7) -> list[CheckReport]:
    """Per-eps defect reports plus the shrink-ratio report for the eps pair."""
    if eps_list is None:
        eps_list = sorted(set(sched.eps_pair) | {sched.epsilon}, reverse=True)
    eps_list = sorted(eps_list, reverse=True)
    defects = {}
    reports = []
    for eps in eps_list:
        d = schedule_defect(sched, eps, seed)
        defects[eps] = d
        reports.append(CheckReport(
            f"degeneration.{sched.name}.defect_eps{eps:g}", d, sched.envelope(eps), 3,
            metadata={"eps": f"{eps:g}", "source": sched.source, "target": sched.target}))
    e1, e2 = sched.eps_pair
    d1 = defects.get(e1) or schedule_defect(sched, e1, seed)
    d2 = defects.get(e2) or schedule_defect(sched, e2, seed)
    ratio = d1 / d2 if d2 > 0 else math.inf
    lo, hi = sched.ratio_bracket
    # report max_error as distance-from-bracket so passed <=> in bracket
    violation = 0.0 if lo <= ratio <= hi else min(abs(ratio - lo), abs(ratio - hi))
    reports.append(CheckReport(
        f"degeneration.{sched.name}.shrink_ratio", violation, 0.0, 2,
        metadata={"ratio": f"{ratio:.6g}", "bracket": f"[{lo:g}, {hi:g}]",
                  "eps_pair": f"({e1:g}, {e2:g})", "defects": f"({d1:.6g}, {d2:.6g})"}))
    return reports
