"""Vector-field and flow-level checks of the canonical transformations.

For each equation the map Phi: (q, p, T) -> (lambda, mu, t) must push the
Calogero canonical vector field forward onto the Painleve one.  The total
derivative of Phi along the field is taken by the four-point circle rule
(Lyness & Moler 1967): Phi is holomorphic, so J_Phi . v is the derivative
of s -> Phi(x0 + s v), summed from Phi at x0 + h w v, w in (1, i, -1, -i),
with h = FD_STEP in units of v.  That is four evaluations of Phi per point
at any rank, with an O(h^4) error.  They go through the forward kernel
``transforms._to_painleve``, with no ``PhaseState`` and no argument check
beyond finiteness, and so does the map of the unperturbed point.  The
Calogero field is reparametrized by the Painleve time before comparison,
so the pushed-forward time component is identically 1 and the phase
components must match (dH/dmu, -dH/dlambda) at the image point.  Every
sample of a row sits at one time T, and the time component of v is dT/dt
there, so the four circle times are the same for the whole row: a PVI row
builds their four contexts once.

``run_dynamic_correspondence`` restates the same content at flow level:
integrate on the Calogero side and map the endpoint, versus mapping the
initial point and integrating on the Painleve side, over a Painleve-side
arc of length ``ARC_LENGTH`` with both flows at ``INTEGRATOR_TOLS``.
"""

from __future__ import annotations

from .. import transforms
from ..dynamics import integrate
from ..errors import check_finite, check_index
from ..params import AuxParams, check_equation
from ..systems import PhaseState, SystemDescriptor, canonical_field, hamiltonian_gradients
from .report import CheckReport, cbox, rng_for, worst, worst_over

FD_STEP = 3e-4
CIRCLE = (1, 1j, -1, -1j)  # the circle rule's points w
TOL_PUSHFORWARD = 1e-5
TOL_DYNAMIC = 1e-6
ARC_LENGTH = 0.3
INTEGRATOR_TOLS = (1e-10, 1e-12)  # rel_tol, abs_tol

# default auxiliary constants for parameter draws (fixed, generic, complex)
DEFAULT_AUX = {
    "VI": dict(kappa0=0.31 + 0.12j, kappa1=0.27 - 0.08j, theta=0.43 + 0.05j, kappa=0.17 + 0.09j),
    "V": dict(kappa0=0.31 + 0.12j, theta1=0.22 - 0.11j, eta1=0.35 + 0.07j, kappa=0.17 + 0.09j),
    "IV": dict(theta_inf=0.19 + 0.14j, kappa0=0.31 + 0.12j),
    "III": dict(eta_inf=0.41 - 0.06j, theta_inf=0.19 + 0.14j, eta0=0.28 + 0.1j, theta0=0.33 - 0.04j),
    "II": dict(alpha=0.37 + 0.21j),
    "I": dict(),
}

# Calogero-side base times: tau for VI, t otherwise
BASE_TIME = {
    "VI": 0.13 + 1.17j,
    "V": 0.83 + 0.21j,
    "IV": 0.62 + 0.18j,
    "III": 0.91 + 0.24j,
    "II": 0.54 + 0.13j,
    "I": 0.47 + 0.22j,
}


def default_aux(eq: str) -> AuxParams:
    return AuxParams(eq, **DEFAULT_AUX[check_equation(eq)])


def sample_calogero_state(eq: str, rank: int, rng, time=None) -> PhaseState:
    """A generic Calogero phase point away from the documented singular sets.

    Component offsets keep pairwise separations >= 0.05 (both q_j - q_k
    and, where the potential is even, q_j + q_k stay off the poles).  An
    unknown equation tag raises ``UnsupportedEquation``, a rank that is not
    an integer >= 1 ``ValueError``.
    """
    check_equation(eq)
    rank = check_index(rank, "rank", 1)
    T = BASE_TIME[eq] if time is None else time
    qs, ps = [], []
    for j in range(rank):
        if eq == "VI":
            tau = T
            a = 0.10 + 0.09 * j + 0.04 * rng.uniform(0, 1)
            b = 0.12 + 0.08 * j + 0.04 * rng.uniform(0, 1)
            qs.append(complex(a + b * tau.real, b * tau.imag))
        elif eq == "V":
            qs.append(complex(0.45 + 0.5 * j + 0.1 * rng.uniform(0, 1),
                              0.15 + 0.1 * rng.uniform(0, 1)))
        elif eq == "IV":
            qs.append(complex(0.6 + 0.55 * j + 0.1 * rng.uniform(0, 1),
                              0.12 + 0.1 * rng.uniform(0, 1)))
        else:  # III, II, I: only pair differences matter
            qs.append(complex(-0.4 + 0.5 * j + 0.1 * rng.uniform(0, 1),
                              0.1 + 0.15 * rng.uniform(0, 1)))
        ps.append(cbox(rng, 0.25, 0.75, -0.3, 0.3))
    return PhaseState(tuple(qs), tuple(ps), T)


def _circle_time_args(eq: str, T: complex, dT_dt: complex) -> tuple:
    """What the forward kernel reads at the four circle-rule times
    T + h w dT_dt, the same points ``_pushed_field`` reaches: their contexts
    for VI, the times themselves otherwise (``transforms._time_arg``)."""
    return tuple(transforms._time_arg(eq, T + FD_STEP * w * dT_dt) for w in CIRCLE)


def _pushed_field(cal: SystemDescriptor, state: PhaseState, dT_dt: complex,
                  circle_args: tuple) -> list[complex]:
    """J_Phi . v at ``state``, v the Calogero field in Painleve time, as
    sum_w Phi(x0 + h w v) / (4 h w), w in CIRCLE, h = FD_STEP; dT_dt is the
    Jacobian of the time map at the state's time, and circle_args the
    ``_circle_time_args`` at that time."""
    eq, rank, aux = cal.equation, cal.rank, cal.params
    qdot, pdot = canonical_field(cal, state)
    vel = [v * dT_dt for v in qdot] + [v * dT_dt for v in pdot] + [dT_dt]
    x0 = list(state.coords) + list(state.momenta) + [state.time]

    pushed = [0j] * (2 * rank + 1)
    for w, at in zip(CIRCLE, circle_args):
        hw = FD_STEP * w
        x = [a + hw * v for a, v in zip(x0, vel)]
        check_finite("the state", *x)
        lams, mus, t = transforms._to_painleve(eq, x[:rank], x[rank:2 * rank], at, aux)
        for i, y in enumerate((*lams, *mus, t)):
            pushed[i] += y / (4 * hw)
    return pushed


def _pushforward_error(cal: SystemDescriptor, pain: SystemDescriptor, state: PhaseState,
                       dT_dt: complex, at, circle_args: tuple) -> float:
    """Max componentwise relative defect of the pushed-forward field
    against the Painleve field (dH/dmu, -dH/dlambda, dt/dt = 1); ``at`` is
    what the kernel reads at the state's time."""
    pushed = _pushed_field(cal, state, dT_dt, circle_args)
    img = PhaseState(*transforms._to_painleve(cal.equation, state.coords, state.momenta, at,
                                              cal.params))
    dH_dlam, dH_dmu = hamiltonian_gradients(pain, img)
    target = [*dH_dmu, *(-g for g in dH_dlam), 1.0]
    return worst(abs(y - f) / max(1.0, abs(f)) for y, f in zip(pushed, target))


def run_correspondence_suite(eq: str, rank: int, n_points: int = 100, seed: int = 7,
                             g4sq: complex = 0j) -> CheckReport:
    """Pushforward equality at n_points random generic points.  An unknown
    equation tag raises ``UnsupportedEquation``, an ``n_points`` that is not
    an integer >= 1 ``ValueError``."""
    aux = default_aux(eq)
    n_points = check_index(n_points, "n_points", 1)
    check_id = f"correspondence.{eq}.rank{rank}"
    cal = SystemDescriptor(eq, "calogero", rank, g4sq, aux)
    pain = SystemDescriptor(eq, "painleve", rank, g4sq, aux)
    # every sample sits at BASE_TIME[eq], and the time component of v is
    # dT_dt: one time-map Jacobian, one context for the unperturbed points
    # and four for the circle points serve the whole row
    T = BASE_TIME[eq]
    at = transforms._time_arg(eq, T)
    dT_dt = transforms.jacobian_dtau_dt(T) if eq == "VI" else 1.0 + 0j
    circle_args = _circle_time_args(eq, T, dT_dt)
    err = worst_over(seed, check_id, n_points, lambda rng: _pushforward_error(
        cal, pain, sample_calogero_state(eq, rank, rng), dT_dt, at, circle_args))
    return CheckReport(check_id, err, TOL_PUSHFORWARD, n_points,
                       metadata={"equation": eq, "rank": str(rank),
                                 "g4sq": format(complex(g4sq), "g"), "seed": str(seed)})


def run_dynamic_correspondence(eq: str, rank: int = 1, seed: int = 7,
                               g4sq: complex = 0j) -> CheckReport:
    """Two-path endpoint comparison over a Painleve-side arc of length
    ``ARC_LENGTH``, from a seeded initial point.

    Path A: integrate the Calogero flow, then map the endpoint.  Path B:
    map the initial point, then integrate the Painleve flow over the
    corresponding t-arc.  For VI the tau-interval matching the t-arc is
    found through the inverse time map.  An unknown equation tag raises
    ``UnsupportedEquation``.
    """
    aux = default_aux(eq)
    check_id = f"dynamic.{eq}.rank{rank}"
    initial = sample_calogero_state(eq, rank, rng_for(seed, check_id))
    cal = SystemDescriptor(eq, "calogero", rank, g4sq, aux)
    pain = SystemDescriptor(eq, "painleve", rank, g4sq, aux)

    start_pain = transforms.multi_transform(eq, "to_painleve", initial, aux)
    t_start = start_pain.time
    t_end = t_start + ARC_LENGTH * (1 + 0.2j) / abs(1 + 0.2j)
    if eq == "VI":
        T_end = transforms.time_map_pvi_inverse(t_end, initial.time)
    else:
        T_end = t_end

    traj_cal = integrate(cal, initial, T_end, *INTEGRATOR_TOLS)
    traj_pain = integrate(pain, start_pain, t_end, *INTEGRATOR_TOLS)
    meta = {"equation": eq, "rank": str(rank), "arc": str(ARC_LENGTH), "seed": str(seed),
            "cal_termination": traj_cal.termination, "pain_termination": traj_pain.termination}
    if not (traj_cal.completed and traj_pain.completed):
        return CheckReport(check_id, float("inf"), TOL_DYNAMIC, 1, metadata=meta)

    end_cal = traj_cal.samples[-1][1]
    mapped = transforms.multi_transform(eq, "to_painleve", end_cal, aux)
    end_pain = traj_pain.samples[-1][1]
    err = worst(abs(a - b) for a, b in zip((*mapped.coords, *mapped.momenta, mapped.time),
                                           (*end_pain.coords, *end_pain.momenta, end_pain.time)))
    return CheckReport(check_id, err, TOL_DYNAMIC, len(traj_cal.samples), metadata=meta)
