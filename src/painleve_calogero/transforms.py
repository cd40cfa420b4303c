"""Time-dependent canonical transformations (lambda, mu, t) <-> (q, p, T).

Coordinate maps (q primary; branches of sqrt(lambda) are induced by q):

    VI:  lambda = (wp(q) - e1)/(e2 - e1)           (t = (e3-e1)/(e2-e1))
    V:   sqrt(lambda) = -coth(q/2),  lambda = coth^2(q/2)
    IV:  lambda = (q/2)^2
    III: lambda = e^q
    II, I: lambda = q

The momentum maps are affine in p.  PVI's is written in f(q) = lambda and
its derivatives f_u, f_tau (``elliptic.f_and_derivatives``),

    mu = p/f_u + 2 pi i f_tau/f_u^2
         + (kappa0/lambda + kappa1/(lambda - 1) + (theta - 1)/(lambda - t))/2,

so that the forward map costs one f evaluation per coordinate and
``multi_transform`` takes lambda and mu from it together.  The inverse
transformation solves the momentum maps exactly once q is recovered from
lambda.  PVI's q is the elliptic
logarithm R_F(x - e1, x - e2, x - e3) of x = wp(q) (DLMF 19.25.35), checked
by one wp evaluation and cross-checked in the tests by an Abel-map
quadrature; its time map t(tau) is inverted by Newton iteration.

Every map multiplies the 1-form pair by a constant factor c (1, 1/2, 1/4,
1/2, 1, 1 for VI..I).
A public PVI map builds the one ``EllipticContext`` it reads at its time,
tau, and ``multi_transform`` shares one among all coordinates of a state.
The private maps take that context in place of the time for VI, as the
terms of ``systems._TERMS`` do, and the time itself for PV..PI
(``_time_arg``), so each reads its time from one input.  Given a
``branch_hint``, an inverse returns the q nearest it among the period
shifts of its candidates, and refuses a hint so far out that this q keeps
too few digits to map back to lambda.
"""

from __future__ import annotations

import cmath

from . import elliptic
from .elliptic import PI, TWO_PI_I, EllipticContext
from .errors import (
    BadContext,
    BranchCut,
    MapSingularity,
    NoConvergence,
    TwoBodyCollision,
    check_finite,
)
from .params import AuxParams, check_equation
from .systems import PhaseState

_NEWTON_STEPS = 50
# accepted residual of an inverse: |t(tau) - t|, and |wp(q) - x|/max(1, |x|)
INVERSE_TOL = 1e-11
_RF_TOL = (3 * 2.0**-53) ** (1 / 6)  # Carlson's (3 r)^(1/6) at r = one rounding
# wp(q) - e_k rounds to within 7.6e-16 max|e_j| (measured against mpmath
# near all three half periods at seven tau, Im tau 0.15 to 2), so below
# this fraction of max|e_j| fewer than 8 digits of it, and of
# lambda - lambda(omega_k), survive
_HALF_PERIOD_TOL = 1e-7


def _time_arg(eq: str, time: complex):
    """What a private map reads in place of the time: the ``EllipticContext``
    at tau = time for VI, as in ``systems._TERMS``, the time otherwise."""
    return EllipticContext(time) if eq == "VI" else time


# ---------------------------------------------------------------------------
# PVI time map t(tau) and its Jacobian
# ---------------------------------------------------------------------------

def _time_map(ctx: EllipticContext) -> complex:
    e1, e2, e3 = elliptic.half_period_values(ctx)
    return (e3 - e1) / (e2 - e1)


def _jacobian(ctx: EllipticContext) -> complex:
    e1, e2, _ = elliptic.half_period_values(ctx)
    t = _time_map(ctx)
    if t * (t - 1) == 0:
        raise BadContext(f"t(tau) = {t} at tau={ctx.tau} is a fixed singular point to rounding")
    return PI * 1j / (t * (t - 1) * (e2 - e1))


def time_map_pvi(tau: complex) -> complex:
    """t = (e3 - e1)/(e2 - e1)."""
    return _time_map(EllipticContext(tau))


def jacobian_dtau_dt(tau: complex) -> complex:
    """dtau/dt = pi*i / (t(t-1)(e2-e1)), with t from the forward map.

    Raises ``BadContext`` where t(t-1) rounds to 0, as it does once t(tau)
    rounds to 1 at large Im tau."""
    return _jacobian(EllipticContext(tau))


def time_map_pvi_inverse(t: complex, tau_seed: complex) -> complex:
    """Solve t = time_map_pvi(tau) to INVERSE_TOL by Newton from tau_seed.

    A step longer than Im tau, which would leave the neighbourhood of the
    current tau, raises ``NoConvergence`` naming the tau it starts from, as
    does an iterate (or seed) that the context or time map refuses."""
    t = complex(t)
    check_finite("t and tau_seed", t, tau_seed)
    if min(abs(t), abs(t - 1)) < 1e-12:
        raise MapSingularity(f"t={t} is a fixed singular point of the inverse map")
    tau = complex(tau_seed)
    for _ in range(_NEWTON_STEPS):
        try:
            c = EllipticContext(tau)
            val = _time_map(c) - t
            if abs(val) < INVERSE_TOL:
                return tau
            step = -val * _jacobian(c)
        except BadContext as exc:
            raise NoConvergence(f"Newton from seed {tau_seed} reached a tau the time map "
                                f"refuses: {exc}", seed=tau_seed) from exc
        if abs(step) > tau.imag:
            raise NoConvergence(f"Newton step {step:.4g} from tau={tau} exceeds Im tau "
                                f"(seed {tau_seed})", seed=tau_seed)
        tau += step
    raise NoConvergence(f"time map inversion failed from seed {tau_seed}", seed=tau_seed)


# ---------------------------------------------------------------------------
# lambda(q) and q(lambda)
# ---------------------------------------------------------------------------

def _out_of_range(eq: str, q: complex) -> MapSingularity:
    return MapSingularity(f"q={q} takes the P{eq} map to a pole or out of the double range")


def lambda_of_q(eq: str, q: complex, time: complex) -> complex:
    """Evaluate the printed coordinate map q -> lambda; non-finite q or time
    raise ``ValueError``, a q whose lambda overflows or is not finite
    ``MapSingularity``."""
    eq = check_equation(eq)
    q = complex(q)
    check_finite("q and time", q, time)
    return _lambda_of_q(eq, q, _time_arg(eq, time))


def _pv_sinh(q):
    """sinh(q/2), the PV maps' denominator; ``MapSingularity`` within 1e-12 of 0."""
    s = cmath.sinh(q / 2)
    if abs(s) < 1e-12:
        raise MapSingularity(f"q={q} lies on the sinh zero set of the PV map")
    return s


def _lambda_of_q(eq, q, at):
    lam = q  # II, I
    try:
        if eq == "VI":
            e1, e2, _ = elliptic.half_period_values(at)
            lam = (elliptic.weierstrass_p(q, at) - e1) / (e2 - e1)
        elif eq == "V":
            s = _pv_sinh(q)
            r = cmath.cosh(q / 2) / s
            lam = r * r
        elif eq == "IV":
            lam = (q / 2) ** 2
        elif eq == "III":
            lam = cmath.exp(q)
    except OverflowError as exc:
        raise _out_of_range(eq, q) from exc
    # complex products overflow to inf or nan without raising
    if not cmath.isfinite(lam):
        raise _out_of_range(eq, q)
    return lam


def _window(eq, q0, hint, at):
    """q0's period shifts in a window centred on the hint: q0 - m - n tau for
    VI, q0 + 2 pi i k for V and III; PIV has no period."""
    if eq == "VI":
        tau = at.tau
        base = q0 - hint
        b = round(base.imag / tau.imag)
        a = round((base - b * tau).real)
        return [q0 - (a + dm) - (b + dn) * tau for dm in (-1, 0, 1) for dn in (-1, 0, 1)]
    if eq in ("V", "III"):
        k = round((hint - q0).imag / (2 * PI))
        return [q0 + (k + dk) * TWO_PI_I for dk in (-1, 0, 1)]
    return [q0]


def _nearest_representative(eq, lam, cands, hint, at):
    """The q among cands and their period shifts nearest the hint.

    A representative keeps fewer digits of q the farther out it lies, so
    one whose lambda misses that of cands[0] by more than ``INVERSE_TOL``
    (relative, or absolute below 1) raises ``ValueError``, as a PVI hint
    that ``reduce_to_cell`` refuses (a lattice coordinate at or beyond 2^52,
    where no fractional bit is left) does first.  For VI, lambda(cands[0])
    is a lookup of the residual check's pass."""
    if eq == "VI":
        elliptic.reduce_to_cell(hint, at.tau)
    best = min((c for q0 in cands for c in _window(eq, q0, hint, at)),
               key=lambda c: abs(c - hint))
    ref = _lambda_of_q(eq, cands[0], at)
    if not abs(_lambda_of_q(eq, best, at) - ref) <= INVERSE_TOL * max(1.0, abs(ref)):
        raise ValueError(f"branch_hint={hint} is too far out: the q={best} nearest it keeps "
                         f"too few digits to map back to lambda={lam}")
    return best


def _carlson_rf(x: complex, y: complex, z: complex) -> complex:
    """Carlson's R_F(x, y, z) by duplication (Numer. Algorithms 10 (1995) 13-26),
    accurate to rounding off the square root's cut (-inf, 0], at most one zero."""
    a0 = a = (x + y + z) / 3
    dx, dy = a0 - x, a0 - y
    spread = max(abs(dx), abs(dy), abs(a0 - z)) / _RF_TOL
    scale = 1.0  # 4^-m after m duplications
    while scale * spread >= abs(a):
        sx, sy, sz = cmath.sqrt(x), cmath.sqrt(y), cmath.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        x, y, z, a = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4, (a + lam) / 4
        scale /= 4
    X, Y = dx * scale / a, dy * scale / a
    Z = -X - Y
    e2, e3 = X * Y - Z * Z, X * Y * Z
    return (1 - e2 / 10 + e3 / 14 + e2 * e2 / 24 - 3 * e2 * e3 / 44) / cmath.sqrt(a)


def _q_of_lambda_pvi(lam, ctx):
    """q = R_F(x - e1, x - e2, x - e3): the integral of dx/sqrt(4 prod(x - e_i))
    from x = wp(q) to infinity, along whatever path the square roots pick.

    Turning the arguments by c = i^k keeps them off R_F's cut, where it
    loses accuracy; sqrt(c) R_F(c args) is the same integral on a turned path.
    """
    e1, e2, e3 = elliptic.half_period_values(ctx)
    x = e1 + (e2 - e1) * lam
    args = (x - e1, x - e2, x - e3)
    c = next(c for c in (1, 1j, -1, -1j)  # each argument rules out at most one
             if all(abs(cmath.phase(c * a)) <= 0.75 * PI for a in args))
    q = cmath.sqrt(c) * _carlson_rf(*(c * a for a in args))
    if not abs(elliptic.weierstrass_p(q, ctx) - x) <= INVERSE_TOL * max(1.0, abs(x)):
        raise NoConvergence(f"PVI inversion of lambda={lam} failed its wp residual check")
    return q


def q_of_lambda(eq: str, lam: complex, time: complex,
                branch_hint: complex | None = None) -> complex:
    """Invert the coordinate map: a q with lambda_of_q(q) = lam.

    The branch is chosen nearest to ``branch_hint`` when given, otherwise a
    deterministic principal branch.  A non-finite lam or branch_hint, or a
    hint so far out that the q nearest it keeps too few digits, raises
    ``ValueError``; VI raises ``NoConvergence`` if its wp residual check
    fails, and ``PoleAt`` for q within ``POLE_TOL`` of a pole; V raises
    ``MapSingularity`` for a lambda so large (|lambda| beyond about 1e24)
    that q lies on the sinh zero set ``lambda_of_q`` refuses.
    """
    eq = check_equation(eq)
    return _q_of_lambda(eq, lam, _time_arg(eq, time), branch_hint)


def _q_of_lambda(eq, lam, at, branch_hint):
    lam = complex(lam)
    check_finite("lambda", lam)
    if branch_hint is not None:
        check_finite("branch_hint", branch_hint)
    if eq == "VI":
        t = _time_map(at)
        if min(abs(lam), abs(lam - 1), abs(lam - t)) < 1e-12:
            raise BranchCut(f"lambda={lam} lies on the PVI branch set {{0, 1, t}}")
        q0 = _q_of_lambda_pvi(lam, at)
        if branch_hint is None:
            # principal choice: the cell representative with the larger
            # imaginary part, then the smaller real part
            reps = (elliptic.reduce_to_cell(z, at.tau) for z in (q0, -q0))
            return max(reps, key=lambda z: (z.imag, -z.real))
        cands = [q0, -q0]
    elif eq == "V":
        if min(abs(lam), abs(lam - 1)) < 1e-12:
            raise BranchCut(f"lambda={lam} lies on the PV branch set {{0, 1}}")
        # log((s - 1)/(s + 1)), whose argument rounds near 1 as lambda grows; atanh's
        # cut keeps Im q0 = +pi on 0 < lambda < 1.  Past |lambda| ~ 1e24, q0 is refused
        q0 = 2 * cmath.atanh(-1 / cmath.sqrt(lam))
        _pv_sinh(q0)
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
    return _nearest_representative(eq, lam, cands, complex(branch_hint), at)


# ---------------------------------------------------------------------------
# mu(q, p) and its affine inversion
# ---------------------------------------------------------------------------

def _mu_pieces(eq, q, at, aux: AuxParams):
    """Returns (coef, rest) with mu = coef * p + rest, and lambda(q); ``at``
    is the context at tau for VI and the time otherwise (``_time_arg``).

    ``aux`` of another equation raises ``ValueError``; a term that divides
    by zero or overflows, e^q underflowing to 0, a non-finite rest, or a
    PVI q so near a half period that fewer than 8 digits of lambda,
    lambda - 1 or lambda - t survive raise ``MapSingularity``."""
    if aux.equation != eq:
        raise ValueError(f"P{eq} momentum map given parameters of P{aux.equation}")
    try:
        if eq == "VI":
            lam, f_u, f_tau = elliptic.f_and_derivatives(q, at)
            e1, e2, e3 = elliptic.half_period_values(at)
            gaps = (lam, lam - 1, lam - _time_map(at))  # (wp(q) - e_k)/(e2 - e1)
            if min(map(abs, gaps)) * abs(e2 - e1) < _HALF_PERIOD_TOL * max(map(abs, (e1, e2, e3))):
                raise MapSingularity(f"q={q} is so near a PVI half period that fewer than 8 "
                                     "digits of lambda, lambda - 1 or lambda - t survive")
            coef = 1 / f_u
            rest = (TWO_PI_I * f_tau / (f_u * f_u)
                    + (aux.kappa0 / gaps[0] + aux.kappa1 / gaps[1] + (aux.theta - 1) / gaps[2]) / 2)
        elif eq == "V":
            s = _pv_sinh(q)
            sqrt_lam = -cmath.cosh(q / 2) / s  # branch induced by q
            lam = sqrt_lam * sqrt_lam
            lam_1 = 1 / (s * s)  # lambda - 1, which would cancel as lambda -> 1 at large q
            coef = 1 / (2 * sqrt_lam * lam_1)
            rest = (aux.kappa0 / lam + aux.theta1 / lam_1 - aux.eta1 * at / lam_1**2) / 2
        elif eq == "IV":
            if abs(q) < 1e-12:
                raise MapSingularity("q=0 is singular for the PIV momentum map")
            sqrt_lam = q / 2  # branch induced by q
            lam = sqrt_lam * sqrt_lam
            coef = 1 / (4 * sqrt_lam)
            rest = (lam + 2 * at + 2 * aux.kappa0 / lam) / 4
        elif eq == "III":
            lam = cmath.exp(q)
            coef = 1 / (2 * lam)
            rest = (aux.eta_inf + aux.theta0 / lam - aux.eta0 * at / lam**2) / 2
        elif eq == "II":
            lam, coef, rest = q, 1.0 + 0j, q * q + at / 2
        else:  # PI: mu = p
            lam, coef, rest = q, 1.0 + 0j, 0j
    except (OverflowError, ZeroDivisionError) as exc:
        raise _out_of_range(eq, q) from exc
    if not cmath.isfinite(rest):
        raise _out_of_range(eq, q)
    return coef, rest, lam


def mu_of_pq(eq: str, q: complex, p: complex, time: complex, aux: AuxParams) -> complex:
    """Evaluate the printed momentum map mu(q, p, T); non-finite q, p or time
    raise ``ValueError``."""
    eq = check_equation(eq)
    q, p, time = complex(q), complex(p), complex(time)
    check_finite("q, p and time", q, p, time)
    coef, rest, _ = _mu_pieces(eq, q, _time_arg(eq, time), aux)
    return coef * p + rest


def pq_of_lambdamu(eq: str, lam: complex, mu: complex, time: complex, aux: AuxParams,
                   branch_hint: complex | None = None) -> tuple[complex, complex]:
    """Invert the pair map: q from lambda, then p exactly (mu is affine in p).

    For VI, ``time`` is tau (the Calogero-side time of the target point).
    A p that overflows raises ``MapSingularity`` naming q.
    """
    eq = check_equation(eq)
    check_finite("mu and time", mu, time)
    return _pq_of_lambdamu(eq, lam, mu, _time_arg(eq, complex(time)), aux, branch_hint)


def _pq_of_lambdamu(eq, lam, mu, at, aux, branch_hint):
    q = _q_of_lambda(eq, lam, at, branch_hint)
    coef, rest, _ = _mu_pieces(eq, q, at, aux)
    p = (complex(mu) - rest) / coef
    if not cmath.isfinite(p):
        raise _out_of_range(eq, q)
    return q, p


# ---------------------------------------------------------------------------
# componentwise transform of full phase states
# ---------------------------------------------------------------------------

def multi_transform(eq: str, direction: str, state: PhaseState, aux: AuxParams,
                    ctx: EllipticContext | None = None,
                    branch_hints: tuple[complex, ...] | None = None) -> PhaseState:
    """Apply the rank-1 maps componentwise; the time passes through (VI maps it).

    direction 'to_painleve' takes a Calogero state (q, p, T) to (lambda,
    mu, t): the refusals below, then the forward kernel ``_to_painleve``,
    which the circle rule of ``verify`` also calls.  'to_calogero' inverts.
    Every coordinate of a VI state shares one context: 'to_painleve' reads
    ``ctx`` when given, which must be the context at the state's time, and
    'to_calogero' finds the target tau from t by Newton, seeded by
    ``ctx.tau`` (required).  An input the call does not read (a ``ctx`` for
    PV..PI, ``branch_hints`` with 'to_painleve'), a VI ``ctx`` at another
    tau than the state's with 'to_painleve', a non-finite entry of the
    state, or ``branch_hints`` of another length than the state raises
    ``ValueError``.
    """
    eq = check_equation(eq)
    if direction not in ("to_painleve", "to_calogero"):
        raise ValueError(f"direction must be to_painleve|to_calogero, got {direction!r}")
    if ctx is not None and eq != "VI":
        raise ValueError(f"the P{eq} maps read no elliptic context; pass ctx=None")
    if branch_hints is not None and direction == "to_painleve":
        raise ValueError("branch_hints choose the branches of 'to_calogero'; "
                         "'to_painleve' reads none")
    check_finite("the state", *state.coords, *state.momenta, state.time)
    T = state.time
    if direction == "to_painleve":
        if ctx is not None and ctx.tau != T:
            raise ValueError(f"'to_painleve' reads the context at the state's tau={T}, "
                             f"got ctx.tau={ctx.tau}")
        at = _time_arg(eq, T) if ctx is None else ctx
        return PhaseState(*_to_painleve(eq, state.coords, state.momenta, at, aux))

    if eq == "VI":
        if ctx is None:
            raise ValueError("VI inversion needs ctx.tau as the Newton seed for the time map")
        T = time_map_pvi_inverse(T, ctx.tau)
    at = _time_arg(eq, T)
    hints = branch_hints if branch_hints is not None else (None,) * state.rank
    out = [_pq_of_lambdamu(eq, lam, mu, at, aux, hint)
           for lam, mu, hint in zip(state.coords, state.momenta, hints, strict=True)]
    qs = tuple(o[0] for o in out)
    _check_pairwise(qs)
    return PhaseState(qs, tuple(o[1] for o in out), T)


def _to_painleve(eq, coords, momenta, at, aux):
    """(lambdas, mus, t) of the finite Calogero entries (coords, momenta) at
    ``at``, the context at tau for VI and the time T otherwise, with no
    argument check."""
    t_out = _time_map(at) if eq == "VI" else at
    pieces = [_mu_pieces(eq, qj, at, aux) for qj in coords]
    lams = tuple(lam for _, _, lam in pieces)
    mus = tuple(coef * pj + rest for (coef, rest, _), pj in zip(pieces, momenta))
    _check_pairwise(lams)
    return lams, mus, t_out


def _check_pairwise(coords):
    n = len(coords)
    for j in range(n):
        for k in range(j + 1, n):
            if abs(coords[j] - coords[k]) < 1e-12:
                raise TwoBodyCollision(f"components {j} and {k} collide after transform")

