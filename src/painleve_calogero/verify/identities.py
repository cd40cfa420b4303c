"""Elliptic/theta identity checks: periodicity, addition and shift formulas,
the quasi-periodicity and theta lemmas, the heat equation, and the
large-Im-tau asymptotics."""

from __future__ import annotations

import cmath
import math

from .. import elliptic
from ..elliptic import PI, TWO_PI_I, EllipticContext
from .report import CheckReport, cbox, rng_for, worst, worst_over

DEFAULT_TAUS = (1j, 1.5j, 0.4 + 2j)


def _draw_u(rng, tau):
    """A generic point in the cell, away from the half-period lattice."""
    a = rng.uniform(0.06, 0.44)
    b = rng.uniform(0.06, 0.44)
    if rng.integers(2):
        a += 0.5
    return complex(a + b * tau.real, b * tau.imag)


def run_identity_suite(seed: int = 7) -> list[CheckReport]:
    """One CheckReport per identity per tau in ``DEFAULT_TAUS``, each over
    50 seeded points (16 for lemma3_fd, 30 for lemma4), then the asymptotics
    rows."""
    reports = [r for tau in DEFAULT_TAUS for r in _identities_for(EllipticContext(tau), seed)]
    return reports + asymptotics_checks()


def _identities_for(ctx: EllipticContext, seed: int):
    tag = format(complex(ctx.tau), "g")
    # (name, point error, pinned tolerance, points, metadata beyond tau)
    checks = (
        ("periodicity", _periodicity, 1e-11, 50, {}),
        ("addition", _addition, 1e-9, 50, {}),
        ("cubic", _cubic, 1e-9, 50, {}),
        ("shift", _shift, 1e-9, 50, {}),
        ("lemma_g", _lemma_g, 1e-10, 50, {}),
        ("lemma3_fd", _lemma3_fd, 1e-9, 16, {"fd_step": "5e-4"}),
        ("heat", _heat, 1e-6, 50, {"fd_step": "1e-4"}),
        ("sinh_pair", _sinh_pair, 1e-10, 50, {}),
    )
    out = []
    for name, point_error, tol, n, extra in checks:
        check_id = f"identity.{name}.{tag}"
        err = worst_over(seed, check_id, n, lambda rng: point_error(rng, ctx))
        out.append(CheckReport(check_id, err, tol, n, metadata={"tau": tag, **extra}))
    out.append(_lemma4(ctx, tag, seed, 30))
    return out


def _periodicity(rng, ctx):
    u = _draw_u(rng, ctx.tau)
    w = elliptic.weierstrass_p(u, ctx)
    return worst(abs(elliptic.weierstrass_p(z, ctx) - w) for z in (u + 1, u + ctx.tau, -u))


def _addition(rng, ctx):
    """wp(u - v) + wp(u + v) against the addition formula; a point where
    wp(u) and wp(v) nearly agree is skipped (error 0)."""
    u = cbox(rng, 0.08, 0.42, 0.05, 0.35 * ctx.tau.imag)
    v = cbox(rng, 0.08, 0.42, -0.35 * ctx.tau.imag, -0.05)
    pu, pv = elliptic.weierstrass_p(u, ctx), elliptic.weierstrass_p(v, ctx)
    if abs(pu - pv) < 1e-3:
        return 0.0
    lhs = elliptic.weierstrass_p(u - v, ctx) + elliptic.weierstrass_p(u + v, ctx)
    du, dv = elliptic.weierstrass_p_prime(u, ctx), elliptic.weierstrass_p_prime(v, ctx)
    rhs = -2 * pu - 2 * pv + (du * du + dv * dv) / (2 * (pu - pv) ** 2)
    return abs(lhs - rhs) / max(1.0, abs(lhs))


def _cubic(rng, ctx):
    e1, e2, e3 = elliptic.half_period_values(ctx)
    u = _draw_u(rng, ctx.tau)
    w = elliptic.weierstrass_p(u, ctx)
    dp = elliptic.weierstrass_p_prime(u, ctx)
    rhs = 4 * (w - e1) * (w - e2) * (w - e3)
    return abs(dp * dp - rhs) / max(1.0, abs(rhs))


def _shift(rng, ctx):
    e1, e2, e3 = elliptic.half_period_values(ctx)
    u = _draw_u(rng, ctx.tau)
    w = elliptic.weierstrass_p(u, ctx)
    rhs = [e + (e - a) * (e - b) / (w - e) for e, a, b in ((e1, e2, e3), (e2, e3, e1), (e3, e1, e2))]
    return worst(abs(elliptic.shifted_p(u, j + 1, ctx) - r) / max(1.0, abs(r))
                 for j, r in enumerate(rhs))


def _lemma_g(rng, ctx):
    """g(u + tau) = g(u) - 1 for g = f_tau/f'."""
    u = _draw_u(rng, ctx.tau)
    _, fu1, ft1 = elliptic.f_and_derivatives(u, ctx)
    _, fu2, ft2 = elliptic.f_and_derivatives(u + ctx.tau, ctx)
    return abs(ft2 / fu2 - (ft1 / fu1 - 1))


def _lemma3_fd(rng, ctx):
    """Cross-check of the analytic f_tau: 2 pi i f_tau/f' vs theta'/theta,
    with f_tau recomputed by 4th-order finite differences in tau.  The
    error is h^4 truncation, not roundoff: over seeds 1-60 at tau = i a
    1e-3 step reaches 1.8x the tolerance, 5e-4 stays below 0.11x."""
    h = 5e-4
    u = _draw_u(rng, ctx.tau)

    def f_of_tau(delta):
        c = EllipticContext(ctx.tau + delta)
        e1, e2, _ = elliptic.half_period_values(c)
        return (elliptic.weierstrass_p(u, c) - e1) / (e2 - e1)

    ft_fd = (8 * (f_of_tau(h) - f_of_tau(-h)) - (f_of_tau(2 * h) - f_of_tau(-2 * h))) / (12 * h)
    _, fu, _ = elliptic.f_and_derivatives(u, ctx)
    lhs = TWO_PI_I * ft_fd / fu
    rhs = elliptic.theta_du(u + 0.5, ctx) / elliptic.theta(u + 0.5, ctx)
    return abs(lhs - rhs)


def _heat(rng, ctx):
    """Heat equation 4 pi i theta_tau = theta'' by a second central
    difference.  Step 1e-4 balances the h^2 truncation against the
    4*eps/h^2 roundoff floor of a second difference (a 1e-5 step would
    drown in roundoff)."""
    h = 1e-4
    u = _draw_u(rng, ctx.tau)
    second = (elliptic.theta(u + h, ctx) - 2 * elliptic.theta(u, ctx)
              + elliptic.theta(u - h, ctx)) / (h * h)
    lhs = 4j * PI * elliptic.theta_dtau(u, ctx)
    return abs(lhs - second) / max(1.0, abs(second))


def _sinh_pair(rng, ctx):
    """The sinh pair identity used by the PV two-body rewrite (ctx unused)."""
    u = cbox(rng, 0.2, 1.2, 0.05, 0.6)
    v = cbox(rng, -1.2, -0.2, 0.05, 0.6)
    lhs = 1 / cmath.sinh(u - v) ** 2 + 1 / cmath.sinh(u + v) ** 2
    rhs = 4 * (cmath.cosh(2 * u) * cmath.cosh(2 * v) - 1) / \
        (cmath.cosh(2 * u) - cmath.cosh(2 * v)) ** 2
    return abs(lhs - rhs) / max(1.0, abs(lhs))


def _lemma4(ctx, tag, seed, n):
    """(log theta(u + 1/2))'' + wp(u + tau/2) is a function of tau only; the
    error is its spread (standard deviation) over n points, not a max."""
    check_id = f"identity.lemma4.{tag}"
    rng = rng_for(seed, check_id)
    vals = []
    for _ in range(n):
        u = _draw_u(rng, ctx.tau)
        th = elliptic.theta(u + 0.5, ctx)
        d1 = elliptic.theta_du(u + 0.5, ctx)
        d2 = elliptic.theta_du2(u + 0.5, ctx)
        vals.append(d2 / th - (d1 / th) ** 2 + elliptic.shifted_p(u, 3, ctx))
    mean = sum(vals) / n
    std = math.sqrt(sum(abs(v - mean) ** 2 for v in vals) / n)
    return CheckReport(check_id, std, 1e-8, n, metadata={"tau": tag})


# ---------------------------------------------------------------------------
# large-Im-tau asymptotics
# ---------------------------------------------------------------------------

def asymptotics_checks() -> list[CheckReport]:
    """e_k expansions, the t(tau) expansion and the wp decay-rate checks."""
    out = []
    tau8 = 8j
    ctx8 = EllipticContext(tau8)
    e1, e2, e3 = elliptic.half_period_values(ctx8)
    out.append(CheckReport("asymptotic.e2_minus_e1", abs(e2 - e1 + PI * PI), 1e-6, 1,
                           metadata={"im_tau": "8"}))
    out.append(CheckReport("asymptotic.e1", abs(e1 - 2 * PI * PI / 3), 1e-6, 1,
                           metadata={"im_tau": "8"}))
    t8 = (e3 - e1) / (e2 - e1)
    out.append(CheckReport(
        "asymptotic.t_expansion",
        abs(t8 - 1 - 16 * PI * PI * cmath.exp(1j * PI * tau8)), 1e-8, 1,
        metadata={"im_tau": "8", "note": "at Im tau = 8 the term e^{pi i tau} ~ 1e-11 makes "
                  "this absolute check insensitive to the coefficient prefactor; "
                  "asymptotic.t_coefficient pins the sharp form (t-1)/e^{pi i tau} -> 16"}))
    # coefficient-resolving check, sharp in double precision at Im tau = 4
    ctx4 = EllipticContext(4j)
    a1, a2, a3 = elliptic.half_period_values(ctx4)
    t4 = (a3 - a1) / (a2 - a1)
    q1 = cmath.exp(1j * PI * 4j)
    out.append(CheckReport("asymptotic.t_coefficient", abs((t4 - 1) / q1 - 16) / 16, 1e-3, 1,
                           metadata={"im_tau": "4"}))

    out.append(_wp_decay_check())

    # next-to-leading sum wp(u+w2)+wp(u+w3), coefficient of e^{2 pi i tau}
    out.append(_p23_coefficient_check())

    # e2 expansion error is O(e^{2 pi i tau}): err(6)/err(4) < e^{-2 pi * 1.9}
    errs = {}
    for im in (4.0, 6.0):
        c = EllipticContext(1j * im)
        _, b2, _ = elliptic.half_period_values(c)
        approx = -PI * PI / 3 + 8 * PI * PI * cmath.exp(1j * PI * 1j * im)
        errs[im] = abs(b2 - approx)
    ratio = errs[6.0] / max(errs[4.0], 1e-300)
    out.append(CheckReport("asymptotic.e2_decay", ratio, math.exp(-2 * PI * 1.9), 2,
                           metadata={"err4": f"{errs[4.0]:.4g}", "err6": f"{errs[6.0]:.4g}"}))
    return out


def _wp_twin(u, tau, n: int):
    """mpmath twin of the sine series for wp(u), |k| <= n, at the caller's workdps."""
    import mpmath as mp

    val = -mp.pi**2 / 3
    for k in range(-n, n + 1):
        val += mp.pi**2 / mp.sin(mp.pi * (u + k * tau)) ** 2
    for k in range(1, n + 1):
        val -= 2 * mp.pi**2 / mp.sin(mp.pi * k * tau) ** 2
    return val


def _wp_decay_check() -> CheckReport:
    """log-error slope of wp(u) vs pi^2/sin^2(pi u) - pi^2/3 over Im tau 4,6,8.

    The gap at Im tau = 8 is ~1e-19, below double precision, so the slope
    is measured on the mpmath twin of the same sine series; a
    double-precision variant at smaller Im tau lives in the test suite.
    """
    import mpmath as mp

    u0 = 0.31
    with mp.workdps(40):
        approx = mp.pi**2 / mp.sin(mp.pi * u0) ** 2 - mp.pi**2 / 3
        errs = [float(abs(_wp_twin(u0, mp.mpc(0, im), 30) - approx)) for im in (4, 6, 8)]
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    expected = math.exp(2 * PI * 2)  # e^{2 pi i tau} decay per Delta Im tau = 2
    err = worst(abs(math.log(r / expected)) for r in (r1, r2))
    return CheckReport("asymptotic.wp_decay_slope", err, math.log(3.0), 3,
                       metadata={"ratios": f"{r1:.4g},{r2:.4g}", "expected": f"{expected:.4g}"})


def _p23_coefficient_check() -> CheckReport:
    """Coefficient of e^{2 pi i tau} in wp(u+w2)+wp(u+w3) vs 16-32cos(4 pi u) pi^2.

    Run on the mpmath twin at Im tau = 6: in doubles the combination
    cancels to ~1e-14 and the coefficient drowns in rounding noise.
    """
    import mpmath as mp

    u0 = 0.31
    with mp.workdps(50):
        tau = mp.mpc(0.0, 6.0)
        w2 = _wp_twin(u0 - (1 + tau) / 2, tau, 40)
        w3 = _wp_twin(u0 + tau / 2, tau, 40)
        q2 = mp.e ** (2j * mp.pi * tau)
        coeff = (w2 + w3 + 2 * mp.pi**2 / 3) / q2
        target = 16 * mp.pi**2 - 32 * mp.pi**2 * mp.cos(4 * mp.pi * u0)
        rel = float(abs(coeff - target) / abs(target))
    return CheckReport("asymptotic.p23_coefficient", rel, 1e-3, 1,
                       metadata={"im_tau": "6", "u": str(u0)})
