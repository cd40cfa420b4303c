"""Hamiltonians of the correspondence and their analytic gradients.

Both sides have one shape: a one-body term per component plus one
two-body block per unordered pair j < k (the multi-component extension).
A one-body term returns (H_j, dH/dx_j, dH/dm_j), a pair kernel
(value, d/dx_j, d/dx_k).  Each (equation, side) has its own one-body and
pair-term functions, bound once per ``SystemDescriptor`` from the table
``_TERMS``, and one loop sums the terms a system binds.  A term names a
repeated subexpression once but keeps every operation in its printed
order, so the verify report stays byte-identical across such rewrites.

Painleve side (coordinates lambda_j, momenta mu_j, plain time gauge d/dt):
the six polynomial Hamiltonians per component, and as pair blocks the
images of the Calogero blocks under the coordinate maps.  Calogero side
(coordinates q_j, momenta p_j): normal-form one-body terms p^2/2 + V(q)
with the Inozemtsev-type two-body blocks

    VI:  g4^2 * sum_{j<k} [wp(q_j - q_k) + wp(q_j + q_k)]
    V:   g4^2 * sum_{j<k} [1/sinh^2((q_j-q_k)/2) + 1/sinh^2((q_j+q_k)/2)]
    IV:  g4^2 * sum_{j<k} [1/(q_j-q_k)^2 + 1/(q_j+q_k)^2]
    III: g4^2 * sum_{j<k}  1/sinh^2((q_j-q_k)/2)
    II/I: g4^2 * sum_{j<k} 1/(q_j-q_k)^2

(each unordered pair counted once; both sides of the correspondence use
the same convention, so the transformation theorems are unaffected).
Rank 1 runs through the same code path with an empty pair loop.

Time gauges are forced by (equation, side): the PVI Calogero flow is in
tau with 2*pi*i*dq/dtau = dH/dp; PV and PIII Calogero flows carry the
logarithmic gauge t*dq/dt = dH/dp; everything else, and every Painleve
side, is a plain d/dt flow.  The fixed singular times are t = 0, 1 on the
PVI Painleve side and t = 0 for PV and PIII on either side.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from operator import add

from . import elliptic
from .elliptic import TWO_PI_I, EllipticContext
from .errors import CoordinateSingularity, TwoBodyCollision, check_index
from .params import AuxParams, PainleveParams, check_equation, param_to_painleve

SIDES = ("painleve", "calogero")
_SING_TOL = 1e-12
_setattr = object.__setattr__


@dataclass(frozen=True)
class SystemDescriptor:
    """Which Hamiltonian system: equation, side, rank, two-body coupling.

    ``params`` holds AuxParams (required on the Painleve side for VI..III)
    or PainleveParams (accepted on the Calogero side, whose potentials are
    written in the alpha..delta vocabulary), of the system's own equation:
    a set tagged with another raises ``ValueError``.  ``g4sq`` is the two-body
    coupling g_4^2; it only acts for rank > 1, and a non-finite one raises
    ``ValueError``.  Derived once, here: the PainleveParams; the one-body
    and pair terms of (equation, side), with the parameter set they read
    (AuxParams on the Painleve side, PainleveParams on the Calogero side);
    ``time_gauge`` ('tau' for 2 pi i d/dtau, 'log_t' for t d/dt, 't' for
    d/dt) and ``singular_times``, the fixed singular points of the time
    variable.
    """

    equation: str
    side: str
    rank: int = 1
    g4sq: complex = 0j
    params: AuxParams | PainleveParams | None = None
    time_gauge: str = field(init=False, repr=False, compare=False)
    singular_times: tuple[complex, ...] = field(init=False, repr=False, compare=False)
    _painleve: PainleveParams = field(init=False, repr=False, compare=False)
    # (one-body term, pair term, their parameter set), from _TERMS
    _terms: tuple = field(init=False, repr=False, compare=False)
    # the (j, k), j < k, of the pair terms; none where g4sq is 0
    _pairs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        eq = check_equation(self.equation)
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, got {self.side!r}")
        object.__setattr__(self, "rank", check_index(self.rank, "rank", 1))
        if self.params is not None and self.params.equation != eq:
            raise ValueError(f"P{eq} system given parameters of P{self.params.equation}")
        object.__setattr__(self, "g4sq", complex(self.g4sq))
        if not cmath.isfinite(self.g4sq):
            raise ValueError(f"g4sq must be finite, got {self.g4sq}")
        painleve = self.side == "painleve"
        if painleve and eq not in ("I", "II") and not isinstance(self.params, AuxParams):
            raise ValueError(f"P{eq} Painleve side requires AuxParams")
        if painleve and eq == "II" and self.params is None:
            raise ValueError("PII Painleve side requires parameters (alpha)")
        aux = self.params if isinstance(self.params, AuxParams) else None
        pp = param_to_painleve(aux) if aux is not None else self.params or PainleveParams(eq)
        if painleve and aux is None:  # PII's alpha or PI's none, given as PainleveParams
            aux = AuxParams(eq, alpha=pp.alpha)
        object.__setattr__(self, "_painleve", pp)
        object.__setattr__(self, "_terms", (*_TERMS[eq, self.side], aux if painleve else pp))
        n = self.rank if self.g4sq != 0 else 0
        object.__setattr__(self, "_pairs", tuple((j, k) for j in range(n) for k in range(j + 1, n)))
        logarithmic = eq in ("V", "III")
        object.__setattr__(self, "time_gauge", "t" if painleve else
                           "tau" if eq == "VI" else "log_t" if logarithmic else "t")
        object.__setattr__(self, "singular_times", (0j, 1 + 0j) if painleve and eq == "VI"
                           else (0j,) if logarithmic else ())

    def painleve_params(self) -> PainleveParams:
        return self._painleve


@dataclass(frozen=True, slots=True, init=False)
class PhaseState:
    """Coordinates, conjugate momenta and the time value of one phase point.

    Coordinates and momenta are stored as tuples of ``complex`` and the time
    as ``complex``; coordinates and momenta of unequal length raise
    ``ValueError``."""

    coords: tuple[complex, ...]
    momenta: tuple[complex, ...]
    time: complex

    # written out, not generated: a field call builds one per stage
    def __init__(self, coords, momenta, time):
        coords = tuple(map(complex, coords))
        momenta = tuple(map(complex, momenta))
        _setattr(self, "coords", coords)
        _setattr(self, "momenta", momenta)
        _setattr(self, "time", complex(time))
        if len(coords) != len(momenta):
            raise ValueError("coords and momenta must have equal length")

    @property
    def rank(self) -> int:
        return len(self.coords)


def check_state(sys: SystemDescriptor, state: PhaseState) -> None:
    if state.rank != sys.rank:
        raise ValueError(f"state rank {state.rank} != system rank {sys.rank}")
    t = state.time
    if sys.time_gauge == "tau":
        elliptic.check_tau(t)
    for b in sys.singular_times:
        if abs(t - b) < _SING_TOL:
            raise CoordinateSingularity(
                f"P{sys.equation} time t={t} hits the fixed singularity t={b.real:g}")


def gauge_factor(sys: SystemDescriptor, time: complex) -> complex:
    """gamma such that gamma * d(coords)/dT = dH/d(momenta)."""
    g = sys.time_gauge
    return TWO_PI_I if g == "tau" else complex(time) if g == "log_t" else 1.0 + 0j


def _guard(value: complex, what: str):
    if abs(value) < _SING_TOL:
        raise CoordinateSingularity(f"{what} vanishes (coordinate singularity)")
    return value


# ---------------------------------------------------------------------------
# Painleve side: H_1(lambda, mu, t) per component, returning (H1, dH1/dlam,
# dH1/dmu), and the lambda pair blocks (value, d/dlambda_j, d/dlambda_k).
# The pair blocks are the images of the Calogero two-body blocks under the
# coordinate maps:
#
#     VI:  g4^2/(2t(t-1)) * [2(P_j+P_k)/(l_j-l_k)^2 - 2(l_j+l_k)],
#          P(l) = l(l-1)(l-t)
#     V:   g4^2/(2t) * 2 (l_j-1)(l_k-1)(l_j+l_k)/(l_j-l_k)^2
#     IV:  g4^2 * (l_j+l_k)/(8 (l_j-l_k)^2)
#     III: g4^2/(2t) * 4 l_j l_k/(l_j-l_k)^2
#     II/I: g4^2/(l_j-l_k)^2
# ---------------------------------------------------------------------------

def _painleve_vi(lam, mu, t, a: AuxParams):
    l1, lt = lam - 1, lam - t
    _guard(lam, "lambda"); _guard(l1, "lambda-1"); _guard(lt, "lambda-t")
    ll1 = lam * l1
    th1 = a.theta - 1
    P = ll1 * lt
    dP = 3 * lam * lam - 2 * (1 + t) * lam + t
    B = a.kappa0 / lam + a.kappa1 / l1 + th1 / lt
    dB = -a.kappa0 / lam**2 - a.kappa1 / l1**2 - th1 / lt**2
    C = a.kappa / ll1
    dC = -a.kappa * (2 * lam - 1) / ll1**2
    pref = 1.0 / (t * (t - 1))
    bracket = mu * mu - B * mu + C
    pP = pref * P
    return pP * bracket, pref * (dP * bracket + P * (-dB * mu + dC)), pP * (2 * mu - B)


def _painleve_v(lam, mu, t, a: AuxParams):
    l1 = lam - 1
    _guard(lam, "lambda"); _guard(l1, "lambda-1")
    l1sq = l1**2
    ll1 = lam * l1
    P = lam * l1sq
    dP = l1sq + 2 * lam * l1
    B = a.kappa0 / lam + a.theta1 / l1 - a.eta1 * t / l1sq
    dB = -a.kappa0 / lam**2 - a.theta1 / l1sq + 2 * a.eta1 * t / l1**3
    C = a.kappa / ll1
    dC = -a.kappa * (2 * lam - 1) / ll1**2
    bracket = mu * mu - B * mu + C
    Pt = P / t
    return Pt * bracket, (dP * bracket + P * (-dB * mu + dC)) / t, Pt * (2 * mu - B)


def _painleve_iv(lam, mu, t, a: AuxParams):
    _guard(lam, "lambda")
    B = lam / 2 + t + a.kappa0 / lam
    dB = 0.5 - a.kappa0 / lam**2
    bracket = mu * mu - B * mu + a.theta_inf / 2
    lam2 = 2 * lam
    return lam2 * bracket, 2 * bracket + lam2 * (-dB * mu), lam2 * (2 * mu - B)


def _painleve_iii(lam, mu, t, a: AuxParams):
    _guard(lam, "lambda")
    lsq = lam**2
    th = a.theta0 + a.theta_inf
    B = a.eta_inf + a.theta0 / lam - a.eta0 * t / lsq
    dB = -a.theta0 / lsq + 2 * a.eta0 * t / lam**3
    C = a.eta_inf * th / (2 * lam)
    dC = -a.eta_inf * th / (2 * lsq)
    bracket = mu * mu - B * mu + C
    ll = lam * lam
    llt = ll / t
    return llt * bracket, (2 * lam * bracket + ll * (-dB * mu + dC)) / t, llt * (2 * mu - B)


def _painleve_ii(lam, mu, t, a: AuxParams):
    ll, t2, a5 = lam * lam, t / 2, a.alpha + 0.5
    return mu * mu / 2 - (ll + t2) * mu - a5 * lam, -2 * lam * mu - a5, mu - ll - t2


def _painleve_i(lam, mu, t, a: AuxParams):
    return mu * mu / 2 - 2 * lam**3 - t * lam, -6 * lam * lam - t, mu


def _painleve_pair_vi(lj, lk, t, g4sq):
    d = _guard(lj - lk, "lambda_j - lambda_k")
    d2, d3 = d**2, d**3
    c1 = 2 * (1 + t)
    S = lj * (lj - 1) * (lj - t) + lk * (lk - 1) * (lk - t)
    dPj = 3 * lj * lj - c1 * lj + t
    dPk = 3 * lk * lk - c1 * lk + t
    c = g4sq / (2 * t * (t - 1))
    w = 4 * S / d3
    return (c * (2 * S / d2 - 2 * (lj + lk)),
            c * (2 * dPj / d2 - w - 2),
            c * (2 * dPk / d2 + w - 2))


def _painleve_pair_v(lj, lk, t, g4sq):
    d = _guard(lj - lk, "lambda_j - lambda_k")
    d2 = d**2
    lj1, lk1, s = lj - 1, lk - 1, lj + lk
    p = lj1 * lk1
    num = p * s
    c = g4sq / t
    w = 2 * num / d**3
    return (c * num / d2,
            c * ((lk1 * s + p) / d2 - w),
            c * ((lj1 * s + p) / d2 + w))


def _painleve_pair_iv(lj, lk, t, g4sq):
    d = _guard(lj - lk, "lambda_j - lambda_k")
    d2 = d**2
    s = lj + lk
    c = g4sq / 8
    inv, w = 1 / d2, 2 * s / d**3
    return c * s / d2, c * (inv - w), c * (inv + w)


def _painleve_pair_iii(lj, lk, t, g4sq):
    d = _guard(lj - lk, "lambda_j - lambda_k")
    d2 = d**2
    c = 2 * g4sq / t
    w = 2 * lj * lk / d**3
    return c * lj * lk / d2, c * (lk / d2 - w), c * (lj / d2 + w)


def _painleve_pair_ii(lj, lk, t, g4sq):  # also PI's
    d = _guard(lj - lk, "lambda_j - lambda_k")
    d3 = d**3
    return g4sq / d**2, -2 * g4sq / d3, 2 * g4sq / d3


# ---------------------------------------------------------------------------
# Calogero side: p^2/2 + V_1(q, t) per component, returning (p^2/2 + V1,
# dV1/dq, p), and the q pair blocks (value, d/dq_j, d/dq_k).  The PVI terms
# take the EllipticContext at tau in place of the time.
# ---------------------------------------------------------------------------

def _calogero_vi(q, p, ctx: EllipticContext, pp: PainleveParams):
    # Manin's alpha_0 .. alpha_3, multiplying -wp(q + omega_n)
    alphas = pp.alpha, -pp.beta, pp.gamma, -pp.delta + 0.5
    v = 0j
    dv = 0j
    for alpha, omega in zip(alphas, ctx.half_periods):
        u = q + omega
        # wp' first: its joint pass makes wp at the same u a lookup
        dv -= alpha * elliptic.weierstrass_p_prime(u, ctx)
        v -= alpha * elliptic.weierstrass_p(u, ctx)
    return v + p * p / 2, dv, p


def _calogero_v(q, p, t, pp: PainleveParams):
    q2 = q / 2
    sh = _guard(cmath.sinh(q2), "sinh(q/2)")
    ch = _guard(cmath.cosh(q2), "cosh(q/2)")
    g2, dtt = pp.gamma * t / 2, pp.delta * t * t
    v = -pp.alpha / sh**2 - pp.beta / ch**2 + g2 * cmath.cosh(q) + dtt / 8 * cmath.cosh(2 * q)
    dv = pp.alpha * ch / sh**3 + pp.beta * sh / ch**3 + g2 * cmath.sinh(q) + dtt / 4 * cmath.sinh(2 * q)
    return v + p * p / 2, dv, p


def _calogero_iv(q, p, t, pp: PainleveParams):
    w = _guard(q, "q") / 2
    w2, ta = w**2, t * t - pp.alpha
    v = -w**6 / 2 - 2 * t * w**4 - 2 * ta * w2 + pp.beta / w2
    dv = (-3 * w**5 - 8 * t * w**3 - 4 * ta * w - 2 * pp.beta / w**3) / 2
    return v + p * p / 2, dv, p


def _calogero_iii(q, p, t, pp: PainleveParams):
    ep, em = cmath.exp(q), cmath.exp(-q)
    ta, tb, dtt = -pp.alpha / 4 * ep, pp.beta * t / 4 * em, pp.delta * t * t
    v = ta + tb - pp.gamma / 8 * ep * ep + dtt / 8 * em * em
    dv = ta - tb - pp.gamma / 4 * ep * ep - dtt / 4 * em * em
    return v + p * p / 2, dv, p


def _calogero_ii(q, p, t, pp: PainleveParams):
    w = q * q + t / 2
    return -w * w / 2 - pp.alpha * q + p * p / 2, -2 * q * w - pp.alpha, p


def _calogero_i(q, p, t, pp: PainleveParams):
    return -2 * q**3 - t * q + p * p / 2, -6 * q * q - t, p


def _inv_sinh2(z):
    """(1/sinh^2 z, its z-derivative) from one sinh."""
    s = cmath.sinh(z)
    if abs(s) < _SING_TOL:
        raise TwoBodyCollision("sinh of pair separation vanishes")
    return 1 / s**2, -2 * cmath.cosh(z) / s**3


def _calogero_pair_vi(qj, qk, ctx: EllipticContext, g4sq):
    dq = qj - qk
    if abs(dq) < _SING_TOL:
        raise TwoBodyCollision(f"q_j = q_k = {qj}")
    sq = qj + qk
    gd = g4sq * elliptic.weierstrass_p_prime(dq, ctx)  # wp' before wp, as above
    wd = elliptic.weierstrass_p(dq, ctx)
    gs = g4sq * elliptic.weierstrass_p_prime(sq, ctx)
    return g4sq * (wd + elliptic.weierstrass_p(sq, ctx)), gd + gs, -gd + gs


def _calogero_pair_v(qj, qk, t, g4sq):
    dq = qj - qk
    if abs(dq) < _SING_TOL:
        raise TwoBodyCollision(f"q_j = q_k = {qj}")
    vd, dd = _inv_sinh2(dq / 2)
    vs, ds = _inv_sinh2((qj + qk) / 2)
    gd = g4sq * dd / 2
    gs = g4sq * ds / 2
    return g4sq * (vd + vs), gd + gs, -gd + gs


def _calogero_pair_iv(qj, qk, t, g4sq):
    dq = qj - qk
    sq = qj + qk
    if abs(dq) < _SING_TOL:
        raise TwoBodyCollision(f"q_j = q_k = {qj}")
    if abs(sq) < _SING_TOL:
        raise TwoBodyCollision(f"q_j = -q_k = {qj}")
    m2g = -2 * g4sq
    gd = m2g / dq**3
    gs = m2g / sq**3
    return g4sq * (1 / dq**2 + 1 / sq**2), gd + gs, -gd + gs


def _calogero_pair_iii(qj, qk, t, g4sq):  # III, II and I have no q_j + q_k block
    dq = qj - qk
    if abs(dq) < _SING_TOL:
        raise TwoBodyCollision(f"q_j = q_k = {qj}")
    vd, dd = _inv_sinh2(dq / 2)
    gd = g4sq * dd / 2
    return g4sq * vd, gd, -gd


def _calogero_pair_ii(qj, qk, t, g4sq):  # also PI's
    dq = qj - qk
    if abs(dq) < _SING_TOL:
        raise TwoBodyCollision(f"q_j = q_k = {qj}")
    gd = -2 * g4sq / dq**3
    return g4sq / dq**2, gd, -gd


# (equation, side) -> (one-body term, pair term), bound by SystemDescriptor
_TERMS = {
    ("VI", "painleve"): (_painleve_vi, _painleve_pair_vi),
    ("V", "painleve"): (_painleve_v, _painleve_pair_v),
    ("IV", "painleve"): (_painleve_iv, _painleve_pair_iv),
    ("III", "painleve"): (_painleve_iii, _painleve_pair_iii),
    ("II", "painleve"): (_painleve_ii, _painleve_pair_ii),
    ("I", "painleve"): (_painleve_i, _painleve_pair_ii),
    ("VI", "calogero"): (_calogero_vi, _calogero_pair_vi),
    ("V", "calogero"): (_calogero_v, _calogero_pair_v),
    ("IV", "calogero"): (_calogero_iv, _calogero_pair_iv),
    ("III", "calogero"): (_calogero_iii, _calogero_pair_iii),
    ("II", "calogero"): (_calogero_ii, _calogero_pair_ii),
    ("I", "calogero"): (_calogero_i, _calogero_pair_ii),
}


# ---------------------------------------------------------------------------
# public evaluation API
# ---------------------------------------------------------------------------

def hamiltonian(sys: SystemDescriptor, state: PhaseState) -> complex:
    """Evaluate the printed Hamiltonian of the system at the phase point."""
    h, _, _ = _evaluate(sys, state)
    return h


def hamiltonian_gradients(
    sys: SystemDescriptor, state: PhaseState
) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """Closed-form (dH/dcoords, dH/dmomenta) of the printed Hamiltonian."""
    _, dc, dm = _evaluate(sys, state)
    return dc, dm


def _evaluate(sys, state):
    """(H, dH/dcoords, dH/dmomenta): one-body terms, then the j < k pairs.

    The PVI Calogero side builds one ``EllipticContext`` at tau =
    state.time.  One rule refuses overflow: the terms are summed under one
    ``try``, and a term that raises ``OverflowError`` or a result that is
    not finite (an overflow, or a non-finite state) raises
    ``CoordinateSingularity`` naming the coordinates.  So does an elliptic
    argument that ``reduce_to_cell`` refuses with ``ValueError`` (not
    finite, or too large to keep a fractional lattice bit), so that an
    integrator stage there is a singular rejection."""
    check_state(sys, state)
    t, g4sq, xs = state.time, sys.g4sq, state.coords
    one_body, pair, params = sys._terms
    # the PVI Calogero terms read the lattice at tau = t in place of t
    at = EllipticContext(t) if sys.time_gauge == "tau" else t
    n = len(xs)
    total = pairs = 0j
    dx = []
    dm = []
    pair_dx = [0j] * n
    try:
        for x, m in zip(xs, state.momenta):
            h1, d1, d2 = one_body(x, m, at, params)
            total += h1
            dx.append(d1)
            dm.append(d2)
        for j, k in sys._pairs:
            val, dj, dk = pair(xs[j], xs[k], at, g4sq)
            pairs += val
            pair_dx[j] += dj
            pair_dx[k] += dk
        h, dc, dm = total + pairs, tuple(map(add, dx, pair_dx)), tuple(dm)
        # complex products overflow to inf or nan without raising
        if not all(map(cmath.isfinite, (h, *dc, *dm))):
            raise OverflowError
    except OverflowError as exc:
        raise CoordinateSingularity(
            f"P{sys.equation} {sys.side} Hamiltonian overflows at coordinates {xs}") from exc
    except ValueError as exc:  # PVI: an elliptic argument the cell reduction refuses
        raise CoordinateSingularity(
            f"P{sys.equation} {sys.side} Hamiltonian at coordinates {xs}: {exc}") from exc
    return h, dc, dm


def canonical_field(
    sys: SystemDescriptor, state: PhaseState
) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """(d coords/dT, d momenta/dT) in the system's own time variable T.

    T is tau for the PVI Calogero flow and t otherwise; the gauge factor
    (2 pi i, t or 1) is applied to the canonical right-hand side.  A
    derivative that the division by t (PV and PIII Calogero) overflows
    raises ``CoordinateSingularity``.
    """
    _, dc, dm = _evaluate(sys, state)
    g = gauge_factor(sys, state.time)
    dq, dp = tuple([d / g for d in dm]), tuple([-d / g for d in dc])
    # only t can be small enough to overflow a finite gradient
    if sys.time_gauge == "log_t" and not all(map(cmath.isfinite, dq + dp)):
        raise CoordinateSingularity(f"P{sys.equation} {sys.side} field overflows at "
                                    f"coordinates {state.coords}, t={state.time}")
    return dq, dp
