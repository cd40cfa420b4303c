"""Time-dependent canonical transformations (lambda, mu, t) <-> (q, p, T).

Coordinate maps (q primary; branches of sqrt(lambda) are induced by q):

    VI:  lambda = (wp(q) - e1)/(e2 - e1)           (t = (e3-e1)/(e2-e1))
    V:   sqrt(lambda) = -coth(q/2),  lambda = coth^2(q/2)
    IV:  lambda = (q/2)^2
    III: lambda = e^q
    II, I: lambda = q

The momentum maps are affine in p, so the inverse transformation solves
them exactly once q is recovered from lambda.  The PVI inversion is a
Newton iteration on f(q) - lambda with multistart over the fundamental
cell; an adaptive-quadrature Abel-map oracle cross-checks it in the test
suite but is not the production path.

Every map multiplies the 1-form pair by a constant factor c (1, 1/2, 1/4,
1/2, 1, 1 for VI..I); ``CANONICAL_FACTORS`` exposes these for reporting.
"""

from __future__ import annotations

import cmath
import math

from . import elliptic
from .elliptic import PI, TWO_PI_I, EllipticContext, context_at
from .errors import BadContext, BranchCut, MapSingularity, NoConvergence, TwoBodyCollision
from .params import AuxParams, check_equation
from .systems import PhaseState

CANONICAL_FACTORS = {"VI": 1.0, "V": 0.5, "IV": 0.25, "III": 0.5, "II": 1.0, "I": 1.0}

_NEWTON_STEPS = 50


# ---------------------------------------------------------------------------
# PVI time map t(tau) and its Jacobian
# ---------------------------------------------------------------------------

def time_map_pvi(tau: complex, ctx: EllipticContext | None = None) -> complex:
    """t = (e3 - e1)/(e2 - e1)."""
    ctx = context_at(tau, ctx)
    e1, e2, e3 = elliptic.half_period_values(ctx)
    return (e3 - e1) / (e2 - e1)


def jacobian_dtau_dt(tau: complex, ctx: EllipticContext | None = None) -> complex:
    """dtau/dt = pi*i / (t(t-1)(e2-e1)), with t from the forward map."""
    ctx = context_at(tau, ctx)
    e1, e2, e3 = elliptic.half_period_values(ctx)
    t = (e3 - e1) / (e2 - e1)
    return PI * 1j / (t * (t - 1) * (e2 - e1))


def time_map_pvi_inverse(t: complex, tau_seed: complex,
                         ctx: EllipticContext | None = None,
                         tol: float = 1e-11) -> complex:
    """Solve t = time_map_pvi(tau) by Newton iteration from tau_seed."""
    t = complex(t)
    if min(abs(t), abs(t - 1)) < 1e-12:
        raise MapSingularity(f"t={t} is a fixed singular point of the inverse map")
    tau = complex(tau_seed)
    for _ in range(_NEWTON_STEPS):
        if not tau.imag > 0:
            raise NoConvergence(f"Newton left the upper half plane from seed {tau_seed}", seed=tau_seed)
        c = context_at(tau, ctx)
        try:
            val = time_map_pvi(tau, c) - t
        except BadContext as exc:
            raise NoConvergence(f"Newton reached tau={tau}, where e2 - e1 is lost to rounding",
                                seed=tau_seed) from exc
        if abs(val) < tol:
            return tau
        tau = tau - val * jacobian_dtau_dt(tau, c)
    raise NoConvergence(f"time map inversion failed from seed {tau_seed}", seed=tau_seed)


# ---------------------------------------------------------------------------
# lambda(q) and q(lambda)
# ---------------------------------------------------------------------------

def lambda_of_q(eq: str, q: complex, time: complex, ctx: EllipticContext | None = None) -> complex:
    """Evaluate the printed coordinate map q -> lambda."""
    eq = check_equation(eq)
    q = complex(q)
    if eq == "VI":
        c = context_at(time, ctx)
        e1, e2, _ = elliptic.half_period_values(c)
        return (elliptic.weierstrass_p(q, c) - e1) / (e2 - e1)
    if eq == "V":
        s = cmath.sinh(q / 2)
        if abs(s) < 1e-12:
            raise MapSingularity(f"q={q} lies on the sinh zero set of the PV map")
        r = cmath.cosh(q / 2) / s
        return r * r
    if eq == "IV":
        return (q / 2) ** 2
    if eq == "III":
        return cmath.exp(q)
    return q  # II, I


def _nearest_in_lattice(cands, hint, tau):
    """Representative among cands + m + n*tau closest to hint."""
    best = None
    best_d = math.inf
    for q0 in cands:
        # center the search window on the hint
        base = q0 - hint
        b = round(base.imag / tau.imag)
        a = round((base - b * tau).real)
        for dm in (-1, 0, 1):
            for dn in (-1, 0, 1):
                cand = q0 - (a + dm) - (b + dn) * tau
                d = abs(cand - hint)
                if d < best_d:
                    best_d = d
                    best = cand
    return best


def _newton_wp(q, target, ctx, step_cap):
    """Newton on wp(q) = target from q: the root, or None if it stalls."""
    for _ in range(_NEWTON_STEPS):
        try:
            val = elliptic.weierstrass_p(q, ctx) - target
            dp = elliptic.weierstrass_p_prime(q, ctx)
        except elliptic.PoleAt:
            return None
        if abs(val) < 1e-11 * max(1.0, abs(target)):
            return q
        if abs(dp) < 1e-13:
            return None
        step = val / dp
        if abs(step) > step_cap:
            step *= step_cap / abs(step)
        q = q - step
    return None


def _q_of_lambda_pvi(lam, ctx, branch_hint):
    """Newton multistart over the fundamental cell for wp(q) = target.

    A supplied branch hint seeds a direct Newton run first; the cell-wide
    multistart is the fallback and stops at the first seed that converges.
    """
    e1, e2, _ = elliptic.half_period_values(ctx)
    target = e1 + (e2 - e1) * lam
    tau = ctx.tau
    if branch_hint is not None:
        q = _newton_wp(complex(branch_hint), target, ctx, 0.5)
        if q is not None:
            return _nearest_in_lattice((q, -q), complex(branch_hint), tau)
    seeds = ((ia / 6.0) + (ib / 6.0) * tau for ia in range(1, 6) for ib in range(1, 6))
    attempts = (_newton_wp(q, target, ctx, 1.0) for q in seeds)
    root = next((q for q in attempts if q is not None), None)
    if root is None:
        raise NoConvergence(f"PVI inversion found no preimage of lambda={lam}")
    root = elliptic.reduce_to_cell(root, tau)
    cands = (root, -root)
    if branch_hint is not None:
        return _nearest_in_lattice(cands, complex(branch_hint), tau)
    # deterministic principal choice: cell representative with the larger
    # imaginary part (ties broken by real part)
    reps = [elliptic.reduce_to_cell(c, tau) for c in cands]
    reps.sort(key=lambda z: (-z.imag, z.real))
    return reps[0]


def q_of_lambda(eq: str, lam: complex, time: complex, ctx: EllipticContext | None = None,
                branch_hint: complex | None = None) -> complex:
    """Invert the coordinate map: a q with lambda_of_q(q) = lam.

    The branch is chosen nearest to ``branch_hint`` when given, otherwise a
    deterministic principal branch.
    """
    eq = check_equation(eq)
    lam = complex(lam)
    if eq == "VI":
        c = context_at(time, ctx)
        t = time_map_pvi(c.tau, c)
        if min(abs(lam), abs(lam - 1), abs(lam - t)) < 1e-12:
            raise BranchCut(f"lambda={lam} lies on the PVI branch set {{0, 1, t}}")
        return _q_of_lambda_pvi(lam, c, branch_hint)
    if eq == "V":
        if min(abs(lam), abs(lam - 1)) < 1e-12:
            raise BranchCut(f"lambda={lam} lies on the PV branch set {{0, 1}}")
        s = cmath.sqrt(lam)
        q0 = cmath.log((s - 1) / (s + 1))
        cands = [q0, -q0]
    elif eq == "IV":
        q0 = 2 * cmath.sqrt(lam)
        cands = [q0, -q0]
    elif eq == "III":
        if abs(lam) < 1e-12:
            raise BranchCut("lambda=0 lies on the PIII branch cut")
        q0 = cmath.log(lam)
        cands = [q0]
    else:  # II, I
        return lam
    if branch_hint is None:
        return cands[0]
    hint = complex(branch_hint)
    period = 2 * PI * 1j if eq in ("V", "III") else None
    best, best_d = cands[0], abs(cands[0] - hint)
    for q0 in cands:
        shifts = range(-3, 4) if period is not None else (0,)
        for k in shifts:
            cand = q0 + (k * period if period is not None else 0)
            d = abs(cand - hint)
            if d < best_d:
                best, best_d = cand, d
    return best


# ---------------------------------------------------------------------------
# mu(q, p) and its affine inversion
# ---------------------------------------------------------------------------

def _mu_pieces(eq, q, time, aux: AuxParams, ctx):
    """Returns (coef, rest) with mu = coef * p + rest, and lambda(q)."""
    if eq == "VI":
        c = context_at(time, ctx)
        e1, e2, e3 = elliptic.half_period_values(c)
        wp = elliptic.weierstrass_p(q, c)
        _, _, ftau = elliptic.f_and_derivatives(q, c)
        pp = elliptic.weierstrass_p_prime(q, c)
        lam = (wp - e1) / (e2 - e1)
        coef = (e2 - e1) / pp
        rest = (TWO_PI_I * (e2 - e1) ** 2 / pp**2 * ftau
                + (e2 - e1) / 2 * (aux.kappa0 / (wp - e1)
                                   + aux.kappa1 / (wp - e2)
                                   + (aux.theta - 1) / (wp - e3)))
        return coef, rest, lam
    if eq == "V":
        s = cmath.sinh(q / 2)
        if abs(s) < 1e-12:
            raise MapSingularity(f"q={q} lies on the sinh zero set of the PV map")
        sqrt_lam = -cmath.cosh(q / 2) / s  # branch induced by q
        lam = sqrt_lam * sqrt_lam
        coef = 1 / (2 * sqrt_lam * (lam - 1))
        rest = (aux.kappa0 / lam + aux.theta1 / (lam - 1)
                - aux.eta1 * time / (lam - 1) ** 2) / 2
        return coef, rest, lam
    if eq == "IV":
        if abs(q) < 1e-12:
            raise MapSingularity("q=0 is singular for the PIV momentum map")
        sqrt_lam = q / 2  # branch induced by q
        lam = sqrt_lam * sqrt_lam
        coef = 1 / (4 * sqrt_lam)
        rest = (lam + 2 * time + 2 * aux.kappa0 / lam) / 4
        return coef, rest, lam
    if eq == "III":
        lam = cmath.exp(q)
        coef = 1 / (2 * lam)
        rest = (aux.eta_inf + aux.theta0 / lam - aux.eta0 * time / lam**2) / 2
        return coef, rest, lam
    if eq == "II":
        lam = q
        return 1.0 + 0j, lam * lam + time / 2, lam
    return 1.0 + 0j, 0j, q  # PI: mu = p


def mu_of_pq(eq: str, q: complex, p: complex, time: complex, aux: AuxParams,
             ctx: EllipticContext | None = None) -> complex:
    """Evaluate the printed momentum map mu(q, p, T)."""
    eq = check_equation(eq)
    coef, rest, _ = _mu_pieces(eq, complex(q), complex(time), aux, ctx)
    return coef * complex(p) + rest


def pq_of_lambdamu(eq: str, lam: complex, mu: complex, time: complex, aux: AuxParams,
                   ctx: EllipticContext | None = None,
                   branch_hint: complex | None = None) -> tuple[complex, complex]:
    """Invert the pair map: q from lambda, then p exactly (mu is affine in p).

    For VI, ``time`` is tau (the Calogero-side time of the target point).
    """
    eq = check_equation(eq)
    q = q_of_lambda(eq, lam, time, ctx, branch_hint)
    coef, rest, _ = _mu_pieces(eq, q, complex(time), aux, ctx)
    return q, (complex(mu) - rest) / coef


# ---------------------------------------------------------------------------
# componentwise transform of full phase states
# ---------------------------------------------------------------------------

def multi_transform(eq: str, direction: str, state: PhaseState, aux: AuxParams,
                    ctx: EllipticContext | None = None,
                    branch_hints: tuple[complex, ...] | None = None) -> PhaseState:
    """Apply the rank-1 maps componentwise; the time passes through (VI maps it).

    direction 'to_painleve' takes a Calogero state (q, p, T) to (lambda,
    mu, t); 'to_calogero' inverts.  For VI 'to_calogero' the target tau is
    found from t by Newton, seeded by ``ctx.tau`` (required).
    """
    eq = check_equation(eq)
    if direction not in ("to_painleve", "to_calogero"):
        raise ValueError(f"direction must be to_painleve|to_calogero, got {direction!r}")
    if direction == "to_painleve":
        T = state.time
        if eq == "VI":
            c = context_at(T, ctx)
            t_out = time_map_pvi(T, c)
        else:
            c, t_out = ctx, T
        lams = tuple(lambda_of_q(eq, qj, T, c) for qj in state.coords)
        mus = tuple(mu_of_pq(eq, qj, pj, T, aux, c)
                    for qj, pj in zip(state.coords, state.momenta))
        _check_pairwise(lams)
        return PhaseState(lams, mus, t_out)

    t = state.time
    if eq == "VI":
        if ctx is None:
            raise ValueError("VI inversion needs ctx.tau as the Newton seed for the time map")
        T = time_map_pvi_inverse(t, ctx.tau, ctx)
        c = context_at(T, ctx)
    else:
        T, c = t, ctx
    hints = branch_hints if branch_hints is not None else (None,) * state.rank
    out = [pq_of_lambdamu(eq, lam, mu, T, aux, c, hint)
           for lam, mu, hint in zip(state.coords, state.momenta, hints)]
    qs = tuple(o[0] for o in out)
    _check_pairwise(qs)
    return PhaseState(qs, tuple(o[1] for o in out), T)


def _check_pairwise(coords):
    n = len(coords)
    for j in range(n):
        for k in range(j + 1, n):
            if abs(coords[j] - coords[k]) < 1e-12:
                raise TwoBodyCollision(f"components {j} and {k} collide after transform")

