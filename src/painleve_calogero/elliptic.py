"""Weierstrass p-function, theta function and related auxiliaries on the
lattice Z + tau*Z (primitive periods 1 and tau, Im tau >= 1e-3; see below).

Conventions
-----------
Half periods are omega_1 = 1/2, omega_2 = -(1+tau)/2, omega_3 = tau/2 and
e_n = wp(omega_n).  wp is the sine series

    wp(u) = -pi^2/3 + sum_n pi^2/sin^2(pi(u + n tau)) - sum_{n>=1} 2 pi^2/sin^2(pi n tau),

summed with u reduced to the fundamental cell.  The n = 0 term is kept as
the sine, which holds full relative accuracy near the pole.  The n >= 1
terms are written in nome form,

    pi^2/sin^2(pi(u +- n tau)) = -4 pi^2 x/(1-x)^2,   x = e^{2 pi i (n tau +- u)},

and wp' term-wise from the same x, through x(1+x)/(1-x)^3.  Each side
starts at x_1 = e^{2 pi i (tau +- u)}, which cannot overflow, and its
n = 1 term is summed as written.  With the nome Q = e^{2 pi i tau},
x_n = x_1 Q^{n-1}, and the n >= 2 terms of each side are summed regrouped
as a Lambert series (DLMF 23.8(i)),

    sum_{n>=2} x_n/(1-x_n)^2        = sum_{k>=1} k   y^k/(1-Q^k),
    sum_{n>=2} x_n(1+x_n)/(1-x_n)^3 = sum_{k>=1} k^2 y^k/(1-Q^k),   y = x_1 Q,

so a term costs one multiplication by y per side and two by the
coefficients (k/(1-Q^k), k^2/(1-Q^k)), which the context computes once.
In the cell |x_n| <= |Q|^{n-1/2} and |y| <= r = |Q|^{3/2}.  The tau-only
constant sums 1/sin^2(pi n tau) = -4 Q^n/(1-Q^n)^2 over n <= N, where N is
the least N >= 1 whose nome tail over both sides, 2|Q|^{N+1/2}/(1-|Q|), is
below e^{-39},

    N = ceil((39 + ln(2/(1-|Q|)))/(2 pi Im tau) - 1/2).

The Lambert sums run K terms, K the least K >= 0 whose tail over both
sides of the k^2 sum, at most 2 m^2 r^m/((1-rho)(1-|Q|^m)) with m = K+1
and rho = ((m+1)/m)^2 r, is below e^{-39}; K <= N, with K = 3 where N = 5
at Im tau = 1.17 and K = 6575 where N = 7125 at Im tau = 1e-3.

N grows like 1/Im tau, so ``check_tau``, the one test of the tau domain,
raises ``BadContext`` unless tau is finite with Im tau >= ``MIN_IM_TAU`` =
1e-3.  A context computes Q, N, the tau-only constant, the K coefficient
pairs and the half periods once, when it is built.
``weierstrass_p_and_prime`` sums both series from one run of the same y,
each rounded as the value-only loop of ``weierstrass_p`` rounds it, and
``weierstrass_p_prime`` is its second half.  The context keeps the last
joint pass as one (argument, (wp, wp')) entry, and ``weierstrass_p``
returns its wp without a pass when called with that same argument object
(``is``, not ``==``), so wp' then wp at one argument costs one pass; any
other argument gets the value-only loop.  The slow double lattice sum
survives only as a test oracle (tests/test_elliptic.py).

u is reduced as a + b tau with real a, b; once |a| or |b| reaches 2^52 no
fractional bit of them is left, and the reduction raises ``ValueError``
instead of returning a cell point that the digits of u do not fix.

The theta function is theta(u) = sum_n exp(pi i tau n^2 + 2 pi i n u) over
|n| <= N = ceil(|Im u|/Im tau + sqrt(40/(pi Im tau))) + 1: the terms peak
near n = |Im u|/Im tau and fall off like e^{-pi Im tau k^2} at k terms past
it, so the tail is below e^{-40} of the largest term; an overflowing term
is refused, which at Im tau >= 1e-3 ends any sum by about 600 terms.  Its
u- and tau-derivatives are term-wise, and one run of terms gives all of
them.  f(u) = (wp(u)-e1)/(e2-e1) and its tau-derivative f_tau are the
building blocks of the sixth Painleve transformation; f_tau is computed
analytically from the logarithmic theta derivative (4 pi^2 f_tau/f'
identity), with finite differences kept as a cross-check in the test suite.
``f_and_derivatives`` reduces u to the cell first and costs one joint
wp/wp' pass and one theta pass.  Where e2 - e1 is lost to rounding (small
Im tau) the half-period values raise ``BadContext`` instead of feeding a
meaningless denominator to f.  Non-finite arguments raise ``ValueError``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import BadContext, HalfPeriodSingularity, PoleAt, check_finite, check_index

PI = math.pi
TWO_PI_I = 2j * PI
# the pi powers of the wp and wp' sums, each evaluated as those sums wrote it
_PI2 = PI * PI
_4PI2 = 4 * PI * PI
_M2PI3 = -2 * PI**3
_8JPI3 = 8j * PI**3

POLE_TOL = 1e-12
# 1/sin^2 underflows to 0 well before |Im z| reaches this; guards overflow.
_IM_OVERFLOW = 300.0

# a double of this modulus or more has no fractional bit
_LOST_FRACTION = 2.0**52

# e2 - e1 is refused at or below this fraction of max|e_i|, where fewer
# than 8 significant digits of it survive (the rule of the PVI momentum
# map): against a 40-digit sine series, over 200 tau with Im tau in
# [0.08, 0.2], its relative error was about 7e-17 (at most 2.1e-16) divided
# by the fraction, and at most 7.2e-9 where the fraction is in [1e-8, 1e-6)
_E_SPLIT_TOL = 1e-8

# the least Im tau a context takes: the nome series run N ~ 7/Im tau terms
MIN_IM_TAU = 1e-3


def check_tau(tau: complex) -> complex:
    """tau as a complex, or ``BadContext`` unless it is finite with
    Im tau >= ``MIN_IM_TAU``: the one test of the lattice's domain."""
    tau = complex(tau)
    if not (tau.imag >= MIN_IM_TAU and cmath.isfinite(tau)):
        raise BadContext(f"tau must be finite with Im tau >= {MIN_IM_TAU:g}, got tau={tau}")
    return tau


@dataclass
class EllipticContext:
    """The modular parameter tau and its tau-only data, computed once.

    Building a context runs ``check_tau`` and computes the nome
    Q = e^{2 pi i tau}, the term count N of the nome series, the constant
    c = -pi^2/3 - 2 pi^2 sum_{n=1}^N 1/sin^2(pi n tau), the K <= N Lambert
    coefficient pairs (k/(1-Q^k), k^2/(1-Q^k)) and the half periods
    (0, 1/2, -(1+tau)/2, tau/2), so ``tau`` must not change afterwards.
    One loop over k <= N gives c and the pairs, with 1/sin^2(pi k tau) =
    -4 Q^k/(1-Q^k)^2.  The half-period values (e1, e2, e3) are cached on
    first use; the cache is write-once/read-many, and concurrent writers
    recompute the same values.  ``last_pass`` is (u, (wp(u), wp'(u))) from
    the last joint pass at a u of type ``complex``, and it hits only for
    that same u object.  It is replaced by one tuple store and read once
    per lookup, so concurrent use of a context can at worst miss, never
    return another argument's value.
    """

    tau: complex
    nome: complex = field(init=False, repr=False, compare=False)
    n_terms: int = field(init=False, repr=False, compare=False)
    const: complex = field(init=False, repr=False, compare=False)
    _lambert: tuple[tuple[complex, complex], ...] = field(init=False, repr=False, compare=False)
    half_periods: tuple[complex, ...] = field(init=False, repr=False, compare=False)
    cached_e: tuple[complex, complex, complex] | None = field(
        default=None, init=False, repr=False, compare=False)
    last_pass: tuple[complex, tuple[complex, complex]] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.tau = tau = check_tau(self.tau)
        decay = 2 * PI * tau.imag  # -ln|Q|; 1 - |Q| is -expm1(-decay)
        n_terms = max(1, math.ceil((39 + math.log(-2 / math.expm1(-decay))) / decay - 0.5))
        n_lambert = _lambert_count(math.exp(-decay), n_terms)
        # 1/sin^2(pi k tau) = -4 Q^k/(1-Q^k)^2; where |Q^k| >= 1/2, 1 - Q^k
        # would cancel, so it is taken as -2 e^z sinh z (z = pi i k tau)
        near = math.log(2) / decay
        self.nome = q = cmath.exp(TWO_PI_I * tau)
        self.n_terms = n_terms
        qk, tail, lambert = 1 + 0j, 0j, []
        for k in range(1, n_terms + 1):
            if k <= near:
                z = 1j * PI * k * tau
                ez = cmath.exp(z)
                qk = ez * ez
                inv = -0.5 / (ez * cmath.sinh(z))
            else:
                qk *= q
                inv = 1 / (1 - qk)
            tail += qk * inv * inv
            if k <= n_lambert:
                lambert.append((k * inv, k * k * inv))
        self.const = -PI * PI / 3 + 8 * PI * PI * tail
        self._lambert = tuple(lambert)
        self.half_periods = (0j, 0.5 + 0j, -(1 + tau) / 2, tau / 2)


def _lambert_tail(k: int, q: float) -> float:
    """Bound on the Lambert tails of both sides past k terms at |Q| = q:
    2 sum_{j>k} j^2 r^j/(1-q^j), r = q^{3/2} >= |y|, is at most
    2 m^2 r^m/((1-rho)(1-q^m)) with m = k+1 and rho = ((m+1)/m)^2 r, the
    largest ratio of consecutive terms j^2 r^j; inf where rho >= 1."""
    m = k + 1
    r = q * math.sqrt(q)
    rho = ((m + 1) / m) ** 2 * r
    return math.inf if rho >= 1 else 2 * m * m * r**m / ((1 - rho) * (1 - q**m))


def _lambert_count(q: float, n_terms: int) -> int:
    """The least K >= 0 whose Lambert tail bound is below e^{-39}, found by
    bisection on [0, N]: the bound falls with K, and K <= N at every tau
    ``check_tau`` takes."""
    lo, hi = -1, n_terms
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _lambert_tail(mid, q) < math.exp(-39):
            hi = mid
        else:
            lo = mid
    return hi


def reduce_to_cell(u: complex, tau: complex) -> complex:
    """Reduce u modulo Z + tau*Z to the cell centred at the origin.

    Returns a + b*tau with a, b in [-1/2, 1/2), which keeps every term of
    the sine series uniformly away from its poles.  A non-finite u, or one
    whose lattice coordinate a or b reaches 2^52 in modulus (no fractional
    bit left), raises ``ValueError``.
    """
    u = complex(u)
    if not cmath.isfinite(u):
        raise ValueError(f"u must be finite, got u={u}")
    b = u.imag / tau.imag
    a = u.real - b * tau.real
    if not (abs(a) < _LOST_FRACTION and abs(b) < _LOST_FRACTION):
        raise ValueError(f"u={u} cannot be reduced to the cell of tau={tau}: its lattice "
                         f"coordinates ({a:.3g}, {b:.3g}) keep no fractional bit")
    a -= math.floor(a + 0.5)
    b -= math.floor(b + 0.5)
    return complex(a + b * tau.real, b * tau.imag)


def _sine_terms(z: complex) -> tuple[complex, complex]:
    """(1/sin^2 z, cos z/sin^3 z) from one sine: the n = 0 terms of wp, wp'."""
    if abs(z.imag) > _IM_OVERFLOW:
        return 0j, 0j
    s = cmath.sin(z)
    # cot(z) first: sin^3 itself overflows to nan once |Im z| passes ~236
    r = 1.0 / s
    return 1.0 / (s * s), cmath.cos(z) * r * r * r


def _check_pole(u_red: complex) -> None:
    if abs(u_red) <= POLE_TOL:
        raise PoleAt(u_red)


def _nome_start(u: complex, ctx: EllipticContext):
    """Reduced u, the nome Q and x_1 = e^{2 pi i (tau +- u)}."""
    tau = ctx.tau
    u = reduce_to_cell(u, tau)
    _check_pole(u)
    return u, ctx.nome, cmath.exp(TWO_PI_I * (tau + u)), cmath.exp(TWO_PI_I * (tau - u))


def weierstrass_p(u: complex, ctx: EllipticContext) -> complex:
    """wp(u | 1, tau): the n = 0 sine term, the n = 1 nome term per side and
    K Lambert terms for n >= 2.

    N = ceil((39 + ln(2/(1-|Q|)))/(2 pi Im tau) - 1/2), at least 1, keeps
    the nome tail of both sides, 2|Q|^{N+1/2}/(1-|Q|), below e^{-39}, and
    K <= N keeps the Lambert tail below it too; see the module docstring
    for the series and the bounds.  When u is the argument object of the
    context's last joint pass, its wp is returned without reducing or
    summing; it equals the value this loop gives bit for bit, since both
    loops add the same terms in the same order.
    """
    last = ctx.last_pass
    if last is not None and last[0] is u:
        return last[1][0]
    u, q, xp, xm = _nome_start(u, ctx)
    dp, dm = 1 - xp, 1 - xm
    total = xp / (dp * dp) + xm / (dm * dm)
    yp, ym = xp * q, xm * q
    zp, zm = yp, ym
    for a, _ in ctx._lambert:
        total += a * (zp + zm)
        zp *= yp
        zm *= ym
    return ctx.const + _PI2 * _sine_terms(PI * u)[0] - _4PI2 * total


def weierstrass_p_prime(u: complex, ctx: EllipticContext) -> complex:
    """wp'(u), term-wise derivative of the series of ``weierstrass_p``: the
    second half of ``weierstrass_p_and_prime``, whose pass the context keeps,
    so that a following ``weierstrass_p`` at the same u object is a lookup."""
    return weierstrass_p_and_prime(u, ctx)[1]


def weierstrass_p_and_prime(u: complex, ctx: EllipticContext) -> tuple[complex, complex]:
    """(wp(u), wp'(u)) from one run of the n = 1 term and the K Lambert
    terms, the wp sum rounded as the value-only loop of ``weierstrass_p``
    rounds it, so the two agree bit for bit.  A u of type ``complex`` is
    kept with the pair as the context's ``last_pass``: its value cannot
    change, so the same object means the same argument."""
    u0, q, xp, xm = _nome_start(u, ctx)
    dp, dm = 1 - xp, 1 - xm
    dp2, dm2 = dp * dp, dm * dm
    total = xp / dp2 + xm / dm2
    total_prime = xp * (1 + xp) / (dp2 * dp) - xm * (1 + xm) / (dm2 * dm)
    yp, ym = xp * q, xm * q
    zp, zm = yp, ym
    for a, b in ctx._lambert:
        total += a * (zp + zm)
        total_prime += b * (zp - zm)
        zp *= yp
        zm *= ym
    inv_sin2, cos_inv_sin3 = _sine_terms(PI * u0)
    values = (ctx.const + _PI2 * inv_sin2 - _4PI2 * total,
              _M2PI3 * cos_inv_sin3 - _8JPI3 * total_prime)
    if type(u) is complex:
        ctx.last_pass = (u, values)
    return values


def half_period_values(ctx: EllipticContext) -> tuple[complex, complex, complex]:
    """(e1, e2, e3) = wp at the three half periods; cached on the context.

    Raises ``BadContext`` when fewer than 8 significant digits of e2 - e1,
    the denominator of f and of the PVI time map, survive rounding: where
    |e2 - e1| <= 1e-8 max|e_j|, on the imaginary axis once Im tau drops
    below about 0.145.
    """
    if ctx.cached_e is None:
        e = tuple(weierstrass_p(w, ctx) for w in ctx.half_periods[1:])
        if abs(e[1] - e[0]) <= _E_SPLIT_TOL * max(map(abs, e)):
            raise BadContext(f"e2 - e1 is lost to rounding at tau={ctx.tau}")
        ctx.cached_e = e
    return ctx.cached_e


def shifted_p(u: complex, n: int, ctx: EllipticContext) -> complex:
    """wp(u + omega_n) for an integer n in 0..3 (omega_0 = 0)."""
    return weierstrass_p(u + ctx.half_periods[check_index(n, "half-period index n", 0, 3)], ctx)


def _theta_sums(u: complex, ctx: EllipticContext) -> tuple[complex, complex, complex]:
    """(S_0, S_1, S_2), S_k = sum_{n=1}^N n^k (E_n(u) + (-1)^k E_n(-u)), with
    E_n(u) = exp(pi i tau n^2 + 2 pi i n u) and
    N = ceil(|Im u|/Im tau + sqrt(40/(pi Im tau))) + 1.  A u so far off the
    real axis that a term or a sum leaves the double range (|Im u| about
    14 Im tau at tau = 0.13+1.17i) raises ``ValueError``."""
    u = complex(u)
    if not cmath.isfinite(u):
        raise ValueError(f"u must be finite, got u={u}")
    tau = ctx.tau
    n_terms = math.ceil(abs(u.imag) / tau.imag + math.sqrt(40 / (PI * tau.imag))) + 1
    s0 = s1 = s2 = 0j
    try:
        for n in range(1, n_terms + 1):
            base = 1j * PI * tau * n * n
            plus, minus = cmath.exp(base + TWO_PI_I * n * u), cmath.exp(base - TWO_PI_I * n * u)
            even = plus + minus
            s0 += even
            s1 += n * (plus - minus)
            s2 += n * n * even
        if not (cmath.isfinite(s0) and cmath.isfinite(s1) and cmath.isfinite(s2)):
            raise OverflowError
    except OverflowError:
        raise ValueError(f"the theta sum overflows at u={u} (tau={tau})") from None
    return s0, s1, s2


def theta(u: complex, ctx: EllipticContext) -> complex:
    """theta(u) = sum_n exp(pi i tau n^2 + 2 pi i n u), |n| <= N (see ``_theta_sums``)."""
    return 1 + _theta_sums(u, ctx)[0]


def theta_du(u: complex, ctx: EllipticContext) -> complex:
    """d theta/du by term-wise differentiation."""
    return TWO_PI_I * _theta_sums(u, ctx)[1]


def theta_du2(u: complex, ctx: EllipticContext) -> complex:
    """d^2 theta/du^2 by term-wise differentiation."""
    return TWO_PI_I * TWO_PI_I * _theta_sums(u, ctx)[2]


def theta_dtau(u: complex, ctx: EllipticContext) -> complex:
    """d theta/dtau by term-wise differentiation (= theta''/(4 pi i))."""
    return 1j * PI * _theta_sums(u, ctx)[2]


def f_and_derivatives(u: complex, ctx: EllipticContext) -> tuple[complex, complex, complex]:
    """f(u) = (wp(u)-e1)/(e2-e1), its u-derivative, and its tau-derivative.

    f_tau is computed analytically via the logarithmic theta derivative,

        f_tau(u) = f'(u) * theta'(u + 1/2) / (2 pi i * theta(u + 1/2)),

    which is exact (not a finite difference) and valid away from the half
    periods, where wp'(u) = 0 makes the quotient f_tau/f' singular.  u is
    first reduced to the cell, u = u0 + m + n tau, so that the theta sum
    cannot overflow: f and f' are periodic and f_tau(u) = f_tau(u0) - n f'(u0).
    One joint wp/wp' pass and one theta pass at u0 + 1/2 give all three.
    """
    e1, e2, _ = half_period_values(ctx)
    u0 = reduce_to_cell(u, ctx.tau)
    n = round((u - u0).imag / ctx.tau.imag)
    wp, pp = weierstrass_p_and_prime(u0, ctx)
    if abs(pp) < 1e-12:
        raise HalfPeriodSingularity(f"wp'({u}) ~ 0; u is a half period")
    f_u = pp / (e2 - e1)
    s0, s1, _ = _theta_sums(u0 + 0.5, ctx)
    return (wp - e1) / (e2 - e1), f_u, f_u * (s1 / (1 + s0) - n)


def asymptotic_p(u: complex, n: int, tau: complex) -> complex:
    """Large-Im-tau approximation to wp(u + omega_n), leading order.

    n = 0: pi^2/sin^2(pi u) - pi^2/3
    n = 1: pi^2/cos^2(pi u) - pi^2/3
    n = 2: -pi^2/3 + 8 pi^2 cos(2 pi u) e^{pi i tau}
    n = 3: -pi^2/3 - 8 pi^2 cos(2 pi u) e^{pi i tau}

    Only the tests use it, as an independent check of ``weierstrass_p``.
    tau goes through ``check_tau``; u = 0 at n = 0 raises ``PoleAt``, and a
    non-finite u, an overflowing term or n not in 0..3 ``ValueError``.
    """
    tau = check_tau(tau)
    n = check_index(n, "half-period index n", 0, 3)
    u = complex(u)
    check_finite("u", u)
    try:
        if n == 0:
            return PI * PI / cmath.sin(PI * u) ** 2 - PI * PI / 3
        if n == 1:
            return PI * PI / cmath.cos(PI * u) ** 2 - PI * PI / 3
        q1 = cmath.exp(1j * PI * tau)
        if n == 2:
            return -PI * PI / 3 + 8 * PI * PI * cmath.cos(2 * PI * u) * q1
        return -PI * PI / 3 - 8 * PI * PI * cmath.cos(2 * PI * u) * q1
    except ZeroDivisionError:
        raise PoleAt(u) from None
    except OverflowError:
        raise ValueError(f"the leading-order term overflows at u={u} (tau={tau})") from None


def asymptotic_p23_sum(u: complex, tau: complex) -> complex:
    """wp(u+omega_2) + wp(u+omega_3) through order e^{2 pi i tau}.

    The e^{pi i tau} terms of the two shifts cancel; the surviving
    correction is (16 - 32 cos(4 pi u)) pi^2 e^{2 pi i tau}.  A non-finite
    u, or one whose cosine overflows, raises ``ValueError``; tau is held to
    ``check_tau``.
    """
    q2 = cmath.exp(2j * PI * check_tau(tau))
    u = complex(u)
    check_finite("u", u)
    try:
        return -2 * PI * PI / 3 + (16 * PI * PI - 32 * PI * PI * cmath.cos(4 * PI * u)) * q2
    except OverflowError:
        raise ValueError(f"the order-e^(2 pi i tau) term overflows at u={u} (tau={tau})") from None
