"""Hamiltonians of the correspondence and their analytic gradients.

Both sides have one shape: a one-body term per component plus one
two-body block per unordered pair j < k (the multi-component extension).
A one-body term returns (H_j, dH/dx_j, dH/dm_j), a pair kernel
(value, d/dx_j, d/dx_k), and one loop sums them for either side.

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
from .errors import BadContext, CoordinateSingularity, TwoBodyCollision
from .params import AuxParams, PainleveParams, check_equation, param_to_painleve

SIDES = ("painleve", "calogero")
_SING_TOL = 1e-12


@dataclass(frozen=True)
class SystemDescriptor:
    """Which Hamiltonian system: equation, side, rank, two-body coupling.

    ``params`` holds AuxParams (required on the Painleve side for VI..III)
    or PainleveParams (accepted on the Calogero side, whose potentials are
    written in the alpha..delta vocabulary), of the system's own equation:
    a set tagged with another raises ``ValueError``.  ``g4sq`` is the two-body
    coupling g_4^2; it only acts for rank > 1, and a non-finite one raises
    ``ValueError``.  Derived once, here: the PainleveParams and the
    AuxParams of the one-body Painleve terms, ``time_gauge`` ('tau' for
    2 pi i d/dtau, 'log_t' for t d/dt, 't' for d/dt) and
    ``singular_times``, the fixed singular points of the time variable.
    """

    equation: str
    side: str
    rank: int = 1
    g4sq: complex = 0j
    params: AuxParams | PainleveParams | None = None
    time_gauge: str = field(init=False, repr=False, compare=False)
    singular_times: tuple[complex, ...] = field(init=False, repr=False, compare=False)
    _painleve: PainleveParams = field(init=False, repr=False, compare=False)
    _aux: AuxParams | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        eq = check_equation(self.equation)
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, got {self.side!r}")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
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
        object.__setattr__(self, "_aux", aux)
        logarithmic = eq in ("V", "III")
        object.__setattr__(self, "time_gauge", "t" if painleve else
                           "tau" if eq == "VI" else "log_t" if logarithmic else "t")
        object.__setattr__(self, "singular_times", (0j, 1 + 0j) if painleve and eq == "VI"
                           else (0j,) if logarithmic else ())

    def painleve_params(self) -> PainleveParams:
        return self._painleve


@dataclass(frozen=True)
class PhaseState:
    """Coordinates, conjugate momenta and the time value of one phase point."""

    coords: tuple[complex, ...]
    momenta: tuple[complex, ...]
    time: complex

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(map(complex, self.coords)))
        object.__setattr__(self, "momenta", tuple(map(complex, self.momenta)))
        object.__setattr__(self, "time", complex(self.time))
        if len(self.coords) != len(self.momenta):
            raise ValueError("coords and momenta must have equal length")

    @property
    def rank(self) -> int:
        return len(self.coords)


def check_state(sys: SystemDescriptor, state: PhaseState) -> None:
    if state.rank != sys.rank:
        raise ValueError(f"state rank {state.rank} != system rank {sys.rank}")
    t = state.time
    if sys.time_gauge == "tau" and not (t.imag > 0):
        raise BadContext(f"PVI Calogero flow needs Im tau > 0, got {t}")
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
# Painleve side: H_1(lambda, mu, t) per component and the lambda pair blocks
# (ctx is unused: no elliptic function appears on this side)
# ---------------------------------------------------------------------------

def _painleve_one_body(eq, lam, mu, t, a: AuxParams, ctx=None):
    """Returns (H1, dH1/dlam, dH1/dmu)."""
    if eq == "VI":
        _guard(lam, "lambda"); _guard(lam - 1, "lambda-1"); _guard(lam - t, "lambda-t")
        P = lam * (lam - 1) * (lam - t)
        dP = 3 * lam * lam - 2 * (1 + t) * lam + t
        B = a.kappa0 / lam + a.kappa1 / (lam - 1) + (a.theta - 1) / (lam - t)
        dB = -a.kappa0 / lam**2 - a.kappa1 / (lam - 1) ** 2 - (a.theta - 1) / (lam - t) ** 2
        C = a.kappa / (lam * (lam - 1))
        dC = -a.kappa * (2 * lam - 1) / (lam * (lam - 1)) ** 2
        pref = 1.0 / (t * (t - 1))
        bracket = mu * mu - B * mu + C
        h = pref * P * bracket
        dlam = pref * (dP * bracket + P * (-dB * mu + dC))
        dmu = pref * P * (2 * mu - B)
    elif eq == "V":
        _guard(lam, "lambda"); _guard(lam - 1, "lambda-1")
        P = lam * (lam - 1) ** 2
        dP = (lam - 1) ** 2 + 2 * lam * (lam - 1)
        B = a.kappa0 / lam + a.theta1 / (lam - 1) - a.eta1 * t / (lam - 1) ** 2
        dB = -a.kappa0 / lam**2 - a.theta1 / (lam - 1) ** 2 + 2 * a.eta1 * t / (lam - 1) ** 3
        C = a.kappa / (lam * (lam - 1))
        dC = -a.kappa * (2 * lam - 1) / (lam * (lam - 1)) ** 2
        bracket = mu * mu - B * mu + C
        h = P / t * bracket
        dlam = (dP * bracket + P * (-dB * mu + dC)) / t
        dmu = P / t * (2 * mu - B)
    elif eq == "IV":
        _guard(lam, "lambda")
        B = lam / 2 + t + a.kappa0 / lam
        dB = 0.5 - a.kappa0 / lam**2
        bracket = mu * mu - B * mu + a.theta_inf / 2
        h = 2 * lam * bracket
        dlam = 2 * bracket + 2 * lam * (-dB * mu)
        dmu = 2 * lam * (2 * mu - B)
    elif eq == "III":
        _guard(lam, "lambda")
        B = a.eta_inf + a.theta0 / lam - a.eta0 * t / lam**2
        dB = -a.theta0 / lam**2 + 2 * a.eta0 * t / lam**3
        C = a.eta_inf * (a.theta0 + a.theta_inf) / (2 * lam)
        dC = -a.eta_inf * (a.theta0 + a.theta_inf) / (2 * lam**2)
        bracket = mu * mu - B * mu + C
        h = lam * lam / t * bracket
        dlam = (2 * lam * bracket + lam * lam * (-dB * mu + dC)) / t
        dmu = lam * lam / t * (2 * mu - B)
    elif eq == "II":
        alpha = a.alpha
        h = mu * mu / 2 - (lam * lam + t / 2) * mu - (alpha + 0.5) * lam
        dlam = -2 * lam * mu - (alpha + 0.5)
        dmu = mu - lam * lam - t / 2
    else:  # PI
        h, dlam, dmu = mu * mu / 2 - 2 * lam**3 - t * lam, -6 * lam * lam - t, mu
    return h, dlam, dmu


def _painleve_pair(eq, lj, lk, t, g4sq, ctx=None):
    """One pair's lambda block: (value, d/dlambda_j, d/dlambda_k).

    These are the images of the Calogero two-body blocks under the
    coordinate maps:

        VI:  g4^2/(2t(t-1)) * [2(P_j+P_k)/(l_j-l_k)^2 - 2(l_j+l_k)],
             P(l) = l(l-1)(l-t)
        V:   g4^2/(2t) * 2 (l_j-1)(l_k-1)(l_j+l_k)/(l_j-l_k)^2
        IV:  g4^2 * (l_j+l_k)/(8 (l_j-l_k)^2)
        III: g4^2/(2t) * 4 l_j l_k/(l_j-l_k)^2
        II/I: g4^2/(l_j-l_k)^2
    """
    d = _guard(lj - lk, "lambda_j - lambda_k")
    if eq == "VI":
        Pj = lj * (lj - 1) * (lj - t)
        Pk = lk * (lk - 1) * (lk - t)
        dPj = 3 * lj * lj - 2 * (1 + t) * lj + t
        dPk = 3 * lk * lk - 2 * (1 + t) * lk + t
        c = g4sq / (2 * t * (t - 1))
        return (c * (2 * (Pj + Pk) / d**2 - 2 * (lj + lk)),
                c * (2 * dPj / d**2 - 4 * (Pj + Pk) / d**3 - 2),
                c * (2 * dPk / d**2 + 4 * (Pj + Pk) / d**3 - 2))
    if eq == "V":
        c = g4sq / t
        num = (lj - 1) * (lk - 1) * (lj + lk)
        return (c * num / d**2,
                c * (((lk - 1) * (lj + lk) + (lj - 1) * (lk - 1)) / d**2 - 2 * num / d**3),
                c * (((lj - 1) * (lj + lk) + (lj - 1) * (lk - 1)) / d**2 + 2 * num / d**3))
    if eq == "IV":
        c = g4sq / 8
        return (c * (lj + lk) / d**2,
                c * (1 / d**2 - 2 * (lj + lk) / d**3),
                c * (1 / d**2 + 2 * (lj + lk) / d**3))
    if eq == "III":
        c = 2 * g4sq / t
        return (c * lj * lk / d**2,
                c * (lk / d**2 - 2 * lj * lk / d**3),
                c * (lj / d**2 + 2 * lj * lk / d**3))
    # II, I
    return g4sq / d**2, -2 * g4sq / d**3, 2 * g4sq / d**3


# ---------------------------------------------------------------------------
# Calogero side: p^2/2 + V_1(q, t) per component and the q pair blocks
# ---------------------------------------------------------------------------

def _calogero_one_body(eq, q, p, t, pp: PainleveParams, ctx: EllipticContext | None):
    """Returns (p^2/2 + V1, dV1/dq, p) for the normal-form potential V1."""
    if eq == "VI":
        # Manin's alpha_0 .. alpha_3, multiplying -wp(q + omega_n)
        alphas = pp.alpha, -pp.beta, pp.gamma, -pp.delta + 0.5
        v = 0j
        dv = 0j
        for alpha, omega in zip(alphas, ctx.half_periods):
            u = q + omega
            # wp' first: its joint pass makes wp at the same u a lookup
            dv -= alpha * elliptic.weierstrass_p_prime(u, ctx)
            v -= alpha * elliptic.weierstrass_p(u, ctx)
    elif eq == "V":
        sh = _guard(cmath.sinh(q / 2), "sinh(q/2)")
        ch = _guard(cmath.cosh(q / 2), "cosh(q/2)")
        v = (-pp.alpha / sh**2 - pp.beta / ch**2
             + pp.gamma * t / 2 * cmath.cosh(q) + pp.delta * t * t / 8 * cmath.cosh(2 * q))
        dv = (pp.alpha * cmath.cosh(q / 2) / sh**3 + pp.beta * cmath.sinh(q / 2) / ch**3
              + pp.gamma * t / 2 * cmath.sinh(q) + pp.delta * t * t / 4 * cmath.sinh(2 * q))
    elif eq == "IV":
        w = _guard(q, "q") / 2
        v = -w**6 / 2 - 2 * t * w**4 - 2 * (t * t - pp.alpha) * w**2 + pp.beta / w**2
        dv = (-3 * w**5 - 8 * t * w**3 - 4 * (t * t - pp.alpha) * w - 2 * pp.beta / w**3) / 2
    elif eq == "III":
        ep, em = cmath.exp(q), cmath.exp(-q)
        v = (-pp.alpha / 4 * ep + pp.beta * t / 4 * em
             - pp.gamma / 8 * ep * ep + pp.delta * t * t / 8 * em * em)
        dv = (-pp.alpha / 4 * ep - pp.beta * t / 4 * em
              - pp.gamma / 4 * ep * ep - pp.delta * t * t / 4 * em * em)
    elif eq == "II":
        w = q * q + t / 2
        v, dv = -w * w / 2 - pp.alpha * q, -2 * q * w - pp.alpha
    else:  # PI
        v, dv = -2 * q**3 - t * q, -6 * q * q - t
    return v + p * p / 2, dv, p


def _inv_sinh2(z):
    """(1/sinh^2 z, its z-derivative) from one sinh."""
    s = cmath.sinh(z)
    if abs(s) < _SING_TOL:
        raise TwoBodyCollision("sinh of pair separation vanishes")
    return 1 / s**2, -2 * cmath.cosh(z) / s**3


def _calogero_pair(eq, qj, qk, t, g4sq, ctx: EllipticContext | None):
    """One pair's q block: (value, d/dq_j, d/dq_k)."""
    dq = qj - qk
    sq = qj + qk
    if abs(dq) < _SING_TOL:
        raise TwoBodyCollision(f"q_j = q_k = {qj}")
    if eq == "VI":
        gd = g4sq * elliptic.weierstrass_p_prime(dq, ctx)  # wp' before wp, as above
        wd = elliptic.weierstrass_p(dq, ctx)
        gs = g4sq * elliptic.weierstrass_p_prime(sq, ctx)
        val = g4sq * (wd + elliptic.weierstrass_p(sq, ctx))
    elif eq == "V":
        vd, dd = _inv_sinh2(dq / 2)
        vs, ds = _inv_sinh2(sq / 2)
        val = g4sq * (vd + vs)
        gd = g4sq * dd / 2
        gs = g4sq * ds / 2
    elif eq == "IV":
        if abs(sq) < _SING_TOL:
            raise TwoBodyCollision(f"q_j = -q_k = {qj}")
        val = g4sq * (1 / dq**2 + 1 / sq**2)
        gd = -2 * g4sq / dq**3
        gs = -2 * g4sq / sq**3
    elif eq == "III":  # III, II and I have no q_j + q_k block
        vd, dd = _inv_sinh2(dq / 2)
        gd = g4sq * dd / 2
        return g4sq * vd, gd, -gd
    else:  # II, I
        gd = -2 * g4sq / dq**3
        return g4sq / dq**2, gd, -gd
    return val, gd + gs, -gd + gs


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
    eq, t, g4sq, xs = sys.equation, state.time, sys.g4sq, state.coords
    if sys.side == "painleve":
        one_body, pair, params = _painleve_one_body, _painleve_pair, sys._aux
    else:
        one_body, pair, params = _calogero_one_body, _calogero_pair, sys._painleve
    cc = EllipticContext(t) if sys.time_gauge == "tau" else None
    n = len(xs)
    total = pairs = 0j
    dx = []
    dm = []
    pair_dx = [0j] * n
    try:
        for x, m in zip(xs, state.momenta):
            h1, d1, d2 = one_body(eq, x, m, t, params, cc)
            total += h1
            dx.append(d1)
            dm.append(d2)
        if g4sq != 0:
            for j in range(n):
                for k in range(j + 1, n):
                    val, dj, dk = pair(eq, xs[j], xs[k], t, g4sq, cc)
                    pairs += val
                    pair_dx[j] += dj
                    pair_dx[k] += dk
        h, dc, dm = total + pairs, tuple(map(add, dx, pair_dx)), tuple(dm)
        # complex products overflow to inf or nan without raising
        if not all(map(cmath.isfinite, (h, *dc, *dm))):
            raise OverflowError
    except OverflowError as exc:
        raise CoordinateSingularity(
            f"P{eq} {sys.side} Hamiltonian overflows at coordinates {xs}") from exc
    except ValueError as exc:  # PVI: an elliptic argument the cell reduction refuses
        raise CoordinateSingularity(
            f"P{eq} {sys.side} Hamiltonian at coordinates {xs}: {exc}") from exc
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
    dc, dm = hamiltonian_gradients(sys, state)
    g = gauge_factor(sys, state.time)
    dq, dp = tuple(d / g for d in dm), tuple(-d / g for d in dc)
    # only t can be small enough to overflow a finite gradient
    if sys.time_gauge == "log_t" and not all(map(cmath.isfinite, dq + dp)):
        raise CoordinateSingularity(f"P{sys.equation} {sys.side} field overflows at "
                                    f"coordinates {state.coords}, t={state.time}")
    return dq, dp
