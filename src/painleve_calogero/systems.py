"""Hamiltonians of the correspondence and their analytic gradients.

Painleve side (coordinates lambda_j, momenta mu_j, plain time gauge d/dt):
the six polynomial Hamiltonians, summed over components, plus two-body
terms in lambda for rank > 1.  Calogero side (coordinates q_j, momenta
p_j): normal-form Hamiltonians p^2/2 + V(q) with the Inozemtsev-type
two-body blocks

    VI:  g4^2 * sum_{j<k} [wp(q_j - q_k) + wp(q_j + q_k)]
    V:   g4^2 * sum_{j<k} [1/sinh^2((q_j-q_k)/2) + 1/sinh^2((q_j+q_k)/2)]
    IV:  g4^2 * sum_{j<k} [1/(q_j-q_k)^2 + 1/(q_j+q_k)^2]
    III: g4^2 * sum_{j<k}  1/sinh^2((q_j-q_k)/2)
    II/I: g4^2 * sum_{j<k} 1/(q_j-q_k)^2

(each unordered pair counted once; both sides of the correspondence use
the same convention, so the transformation theorems are unaffected).
Rank 1 runs through the same code path with an empty two-body loop.

Time gauges are forced by (equation, side): the PVI Calogero flow is in
tau with 2*pi*i*dq/dtau = dH/dp; PV and PIII Calogero flows carry the
logarithmic gauge t*dq/dt = dH/dp; everything else, and every Painleve
side, is a plain d/dt flow.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

from . import elliptic
from .elliptic import TWO_PI_I, EllipticContext
from .errors import BadContext, CoordinateSingularity, TwoBodyCollision
from .params import AuxParams, PainleveParams, check_equation, manin_alphas, to_painleve_params

SIDES = ("painleve", "calogero")
_SING_TOL = 1e-12


@dataclass(frozen=True)
class SystemDescriptor:
    """Which Hamiltonian system: equation, side, rank, two-body coupling.

    ``params`` holds AuxParams (required on the Painleve side for VI..III)
    or PainleveParams (accepted on the Calogero side, whose potentials are
    written in the alpha..delta vocabulary).  ``g4sq`` is the two-body
    coupling g_4^2; it only acts for rank > 1.  The PainleveParams and the
    AuxParams of the one-body Painleve terms are derived once, here.
    """

    equation: str
    side: str
    rank: int = 1
    g4sq: complex = 0j
    params: AuxParams | PainleveParams | None = None
    _painleve: PainleveParams = field(init=False, repr=False, compare=False)
    _aux: AuxParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_equation(self.equation)
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, got {self.side!r}")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        object.__setattr__(self, "g4sq", complex(self.g4sq))
        if self.side == "painleve" and self.equation not in ("I", "II") \
                and not isinstance(self.params, AuxParams):
            raise ValueError(f"P{self.equation} Painleve side requires AuxParams")
        if self.side == "painleve" and self.equation == "II" and self.params is None:
            raise ValueError("PII Painleve side requires parameters (alpha)")
        pp = to_painleve_params(self.params, self.equation) if self.params is not None \
            else PainleveParams(self.equation)
        object.__setattr__(self, "_painleve", pp)
        object.__setattr__(self, "_aux", self.params if isinstance(self.params, AuxParams)
                           else AuxParams(self.equation, alpha=pp.alpha))

    @property
    def time_gauge(self) -> str:
        """'tau' (2 pi i d/dtau), 'log_t' (t d/dt) or 't' (d/dt)."""
        if self.side == "calogero":
            if self.equation == "VI":
                return "tau"
            if self.equation in ("V", "III"):
                return "log_t"
        return "t"

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
    if sys.time_gauge == "tau":
        if not (t.imag > 0):
            raise BadContext(f"PVI Calogero flow needs Im tau > 0, got {t}")
    elif sys.equation == "VI" and sys.side == "painleve":
        if min(abs(t), abs(t - 1)) < _SING_TOL:
            raise CoordinateSingularity(f"PVI time t={t} hits a fixed singularity")
    elif sys.equation in ("V", "III") and abs(t) < _SING_TOL:
        raise CoordinateSingularity(f"P{sys.equation} time t={t} hits the fixed singularity t=0")


def gauge_factor(sys: SystemDescriptor, time: complex) -> complex:
    """gamma such that gamma * d(coords)/dT = dH/d(momenta)."""
    g = sys.time_gauge
    if g == "tau":
        return TWO_PI_I
    if g == "log_t":
        return complex(time)
    return 1.0 + 0j


def _guard(value: complex, what: str):
    if abs(value) < _SING_TOL:
        raise CoordinateSingularity(f"{what} vanishes (coordinate singularity)")
    return value


# ---------------------------------------------------------------------------
# Painleve side: H_1(lambda, mu, t) and its gradients, per equation
# ---------------------------------------------------------------------------

def _painleve_one_body(eq, lam, mu, t, a: AuxParams):
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
        return h, dlam, dmu
    if eq == "V":
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
        return h, dlam, dmu
    if eq == "IV":
        _guard(lam, "lambda")
        B = lam / 2 + t + a.kappa0 / lam
        dB = 0.5 - a.kappa0 / lam**2
        bracket = mu * mu - B * mu + a.theta_inf / 2
        h = 2 * lam * bracket
        dlam = 2 * bracket + 2 * lam * (-dB * mu)
        dmu = 2 * lam * (2 * mu - B)
        return h, dlam, dmu
    if eq == "III":
        _guard(lam, "lambda")
        B = a.eta_inf + a.theta0 / lam - a.eta0 * t / lam**2
        dB = -a.theta0 / lam**2 + 2 * a.eta0 * t / lam**3
        C = a.eta_inf * (a.theta0 + a.theta_inf) / (2 * lam)
        dC = -a.eta_inf * (a.theta0 + a.theta_inf) / (2 * lam**2)
        bracket = mu * mu - B * mu + C
        h = lam * lam / t * bracket
        dlam = (2 * lam * bracket + lam * lam * (-dB * mu + dC)) / t
        dmu = lam * lam / t * (2 * mu - B)
        return h, dlam, dmu
    if eq == "II":
        alpha = a.alpha
        h = mu * mu / 2 - (lam * lam + t / 2) * mu - (alpha + 0.5) * lam
        dlam = -2 * lam * mu - (alpha + 0.5)
        dmu = mu - lam * lam - t / 2
        return h, dlam, dmu
    # PI
    h = mu * mu / 2 - 2 * lam**3 - t * lam
    return h, -6 * lam * lam - t, mu


def _painleve_two_body(eq, lams, t, g4sq):
    """Two-body lambda-terms: (value, gradient wrt each lambda_j).

    These are the images of the Calogero two-body blocks under the
    coordinate maps, per unordered pair:

        VI:  g4^2/(2t(t-1)) * [2(P_j+P_k)/(l_j-l_k)^2 - 2(l_j+l_k)],
             P(l) = l(l-1)(l-t)
        V:   g4^2/(2t) * 2 (l_j-1)(l_k-1)(l_j+l_k)/(l_j-l_k)^2
        IV:  g4^2 * (l_j+l_k)/(8 (l_j-l_k)^2)
        III: g4^2/(2t) * 4 l_j l_k/(l_j-l_k)^2
        II/I: g4^2/(l_j-l_k)^2
    """
    n = len(lams)
    total = 0j
    grad = [0j] * n
    if n == 1 or g4sq == 0:
        return total, grad

    def add_pair(j, k, val, dj, dk):
        nonlocal total
        total += val
        grad[j] += dj
        grad[k] += dk

    for j in range(n):
        for k in range(j + 1, n):
            lj, lk = lams[j], lams[k]
            d = _guard(lj - lk, "lambda_j - lambda_k")
            if eq == "VI":
                Pj = lj * (lj - 1) * (lj - t)
                Pk = lk * (lk - 1) * (lk - t)
                dPj = 3 * lj * lj - 2 * (1 + t) * lj + t
                dPk = 3 * lk * lk - 2 * (1 + t) * lk + t
                c = g4sq / (2 * t * (t - 1))
                val = c * (2 * (Pj + Pk) / d**2 - 2 * (lj + lk))
                dj = c * (2 * dPj / d**2 - 4 * (Pj + Pk) / d**3 - 2)
                dk = c * (2 * dPk / d**2 + 4 * (Pj + Pk) / d**3 - 2)
            elif eq == "V":
                c = g4sq / t
                num = (lj - 1) * (lk - 1) * (lj + lk)
                val = c * num / d**2
                dj = c * (((lk - 1) * (lj + lk) + (lj - 1) * (lk - 1)) / d**2 - 2 * num / d**3)
                dk = c * (((lj - 1) * (lj + lk) + (lj - 1) * (lk - 1)) / d**2 + 2 * num / d**3)
            elif eq == "IV":
                c = g4sq / 8
                val = c * (lj + lk) / d**2
                dj = c * (1 / d**2 - 2 * (lj + lk) / d**3)
                dk = c * (1 / d**2 + 2 * (lj + lk) / d**3)
            elif eq == "III":
                c = 2 * g4sq / t
                val = c * lj * lk / d**2
                dj = c * (lk / d**2 - 2 * lj * lk / d**3)
                dk = c * (lj / d**2 + 2 * lj * lk / d**3)
            else:  # II, I
                val = g4sq / d**2
                dj = -2 * g4sq / d**3
                dk = 2 * g4sq / d**3
            add_pair(j, k, val, dj, dk)
    return total, grad


# ---------------------------------------------------------------------------
# Calogero side: V_1(q, t) and its gradient, per equation
# ---------------------------------------------------------------------------

def _calogero_one_body(eq, q, t, p: PainleveParams, ctx: EllipticContext | None):
    """Returns (V1, dV1/dq) for the normal-form potential."""
    if eq == "VI":
        alphas = manin_alphas(p)
        v = 0j
        dv = 0j
        for n in range(4):
            v -= alphas[n] * elliptic.shifted_p(q, n, ctx)
            dv -= alphas[n] * elliptic.weierstrass_p_prime(q + ctx.half_periods[n], ctx)
        return v, dv
    if eq == "V":
        sh = _guard(cmath.sinh(q / 2), "sinh(q/2)")
        ch = _guard(cmath.cosh(q / 2), "cosh(q/2)")
        v = (-p.alpha / sh**2 - p.beta / ch**2
             + p.gamma * t / 2 * cmath.cosh(q) + p.delta * t * t / 8 * cmath.cosh(2 * q))
        dv = (p.alpha * cmath.cosh(q / 2) / sh**3 + p.beta * cmath.sinh(q / 2) / ch**3
              + p.gamma * t / 2 * cmath.sinh(q) + p.delta * t * t / 4 * cmath.sinh(2 * q))
        return v, dv
    if eq == "IV":
        w = _guard(q, "q") / 2
        v = -w**6 / 2 - 2 * t * w**4 - 2 * (t * t - p.alpha) * w**2 + p.beta / w**2
        dv = (-3 * w**5 - 8 * t * w**3 - 4 * (t * t - p.alpha) * w - 2 * p.beta / w**3) / 2
        return v, dv
    if eq == "III":
        ep, em = cmath.exp(q), cmath.exp(-q)
        v = (-p.alpha / 4 * ep + p.beta * t / 4 * em
             - p.gamma / 8 * ep * ep + p.delta * t * t / 8 * em * em)
        dv = (-p.alpha / 4 * ep - p.beta * t / 4 * em
              - p.gamma / 4 * ep * ep - p.delta * t * t / 4 * em * em)
        return v, dv
    if eq == "II":
        w = q * q + t / 2
        return -w * w / 2 - p.alpha * q, -2 * q * w - p.alpha
    # PI
    return -2 * q**3 - t * q, -6 * q * q - t


def _calogero_two_body(eq, qs, g4sq, ctx: EllipticContext | None):
    """Two-body potential block and its gradient (ordered-pair sums)."""
    n = len(qs)
    total = 0j
    grad = [0j] * n
    if n == 1 or g4sq == 0:
        return total, grad

    def inv_sinh2(z):
        s = cmath.sinh(z)
        if abs(s) < _SING_TOL:
            raise TwoBodyCollision("sinh of pair separation vanishes")
        return 1 / s**2

    def d_inv_sinh2(z):
        s = cmath.sinh(z)
        return -2 * cmath.cosh(z) / s**3

    for j in range(n):
        for k in range(j + 1, n):
            dq = qs[j] - qs[k]
            sq = qs[j] + qs[k]
            if abs(dq) < _SING_TOL:
                raise TwoBodyCollision(f"q_{j} = q_{k}")
            if eq == "VI":
                val = g4sq * (elliptic.weierstrass_p(dq, ctx) + elliptic.weierstrass_p(sq, ctx))
                gd = g4sq * elliptic.weierstrass_p_prime(dq, ctx)
                gs = g4sq * elliptic.weierstrass_p_prime(sq, ctx)
                dj, dk = gd + gs, -gd + gs
            elif eq == "V":
                val = g4sq * (inv_sinh2(dq / 2) + inv_sinh2(sq / 2))
                gd = g4sq * d_inv_sinh2(dq / 2) / 2
                gs = g4sq * d_inv_sinh2(sq / 2) / 2
                dj, dk = gd + gs, -gd + gs
            elif eq == "IV":
                if abs(sq) < _SING_TOL:
                    raise TwoBodyCollision(f"q_{j} = -q_{k}")
                val = g4sq * (1 / dq**2 + 1 / sq**2)
                gd = -2 * g4sq / dq**3
                gs = -2 * g4sq / sq**3
                dj, dk = gd + gs, -gd + gs
            elif eq == "III":
                val = g4sq * inv_sinh2(dq / 2)
                gd = g4sq * d_inv_sinh2(dq / 2) / 2
                dj, dk = gd, -gd
            else:  # II, I
                val = g4sq / dq**2
                gd = -2 * g4sq / dq**3
                dj, dk = gd, -gd
            total += val
            grad[j] += dj
            grad[k] += dk
    return total, grad


# ---------------------------------------------------------------------------
# public evaluation API
# ---------------------------------------------------------------------------

def hamiltonian(sys: SystemDescriptor, state: PhaseState, ctx: EllipticContext | None = None) -> complex:
    """Evaluate the printed Hamiltonian of the system at the phase point."""
    h, _, _ = _evaluate(sys, state, ctx)
    return h


def hamiltonian_gradients(
    sys: SystemDescriptor, state: PhaseState, ctx: EllipticContext | None = None
) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """Closed-form (dH/dcoords, dH/dmomenta) of the printed Hamiltonian."""
    _, dc, dm = _evaluate(sys, state, ctx)
    return dc, dm


def _evaluate(sys, state, ctx):
    check_state(sys, state)
    t = state.time
    if sys.side == "painleve":
        aux = sys._aux
        total = 0j
        dlam = []
        dmu = []
        for lam, mu in zip(state.coords, state.momenta):
            h1, dl, dm = _painleve_one_body(sys.equation, lam, mu, t, aux)
            total += h1
            dlam.append(dl)
            dmu.append(dm)
        tb, tb_grad = _painleve_two_body(sys.equation, state.coords, t, sys.g4sq)
        total += tb
        dlam = [a + b for a, b in zip(dlam, tb_grad)]
        return total, tuple(dlam), tuple(dmu)

    pp = sys._painleve
    cc = elliptic.context_at(t, ctx) if sys.time_gauge == "tau" else None
    total = 0j
    dq = []
    for q in state.coords:
        v1, dv1 = _calogero_one_body(sys.equation, q, t, pp, cc)
        total += v1
        dq.append(dv1)
    for p in state.momenta:
        total += p * p / 2
    tb, tb_grad = _calogero_two_body(sys.equation, state.coords, sys.g4sq, cc)
    total += tb
    dq = [a + b for a, b in zip(dq, tb_grad)]
    return total, tuple(dq), tuple(state.momenta)


def canonical_field(
    sys: SystemDescriptor, state: PhaseState, ctx: EllipticContext | None = None
) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """(d coords/dT, d momenta/dT) in the system's own time variable T.

    T is tau for the PVI Calogero flow and t otherwise; the gauge factor
    (2 pi i, t or 1) is applied to the canonical right-hand side.
    """
    dc, dm = hamiltonian_gradients(sys, state, ctx)
    g = gauge_factor(sys, state.time)
    return tuple(d / g for d in dm), tuple(-d / g for d in dc)


def autonomous_check(sys: SystemDescriptor, state: PhaseState, ctx: EllipticContext | None = None,
                     dt: float = 1e-6) -> complex:
    """Chain-rule consistency diagnostic of the analytic gradients.

    Returns (dH/dT along the canonical flow, by central differences) minus
    (explicit dH/dT at frozen phase coordinates, by central differences).
    The difference vanishes identically when the analytic gradients match
    the Hamiltonian, so its magnitude measures gradient consistency.
    """
    qdot, pdot = canonical_field(sys, state, ctx)

    def h_at(s: float) -> complex:
        st = PhaseState(
            tuple(c + s * v for c, v in zip(state.coords, qdot)),
            tuple(m + s * v for m, v in zip(state.momenta, pdot)),
            state.time + s,
        )
        return hamiltonian(sys, st, ctx)

    def h_time(s: float) -> complex:
        return hamiltonian(sys, PhaseState(state.coords, state.momenta, state.time + s), ctx)

    along_flow = (h_at(dt) - h_at(-dt)) / (2 * dt)
    explicit = (h_time(dt) - h_time(-dt)) / (2 * dt)
    return along_flow - explicit
