"""Elliptic/theta identity checks: periodicity, addition and shift formulas,
the quasi-periodicity and theta lemmas, the heat equation, and the
large-Im-tau asymptotics."""

from __future__ import annotations

import cmath
import math

from .. import elliptic
from ..elliptic import PI, TWO_PI_I, EllipticContext
from .report import CheckReport, cbox, rng_for

DEFAULT_TAUS = (1j, 1.5j, 0.4 + 2j)

# pinned tolerances of the identity checks
TOL_PERIODICITY = 1e-11
TOL_ADDITION = 1e-9
TOL_SHIFT = 1e-9
TOL_LEMMA_G = 1e-10
TOL_LEMMA3_FD = 1e-9
TOL_HEAT = 1e-6
TOL_LEMMA4_STD = 1e-8
TOL_CUBIC = 1e-9
TOL_SINH_PAIR = 1e-10


def _tau_tag(tau: complex) -> str:
    return format(complex(tau), "g")


def _sample_u(rng, tau, n):
    """Generic points in the cell, away from the half-period lattice."""
    out = []
    while len(out) < n:
        a = rng.uniform(0.06, 0.44)
        b = rng.uniform(0.06, 0.44)
        if rng.integers(2):
            a += 0.5
        u = complex(a + b * tau.real, b * tau.imag)
        out.append(u)
    return out


def run_identity_suite(ctx_list=None, seed: int = 7, n_points: int = 50) -> list[CheckReport]:
    """One CheckReport per identity per tau."""
    if ctx_list is None:
        ctx_list = [EllipticContext(t) for t in DEFAULT_TAUS]
    reports = []
    for ctx in ctx_list:
        tag = _tau_tag(ctx.tau)
        reports.extend(_identities_for(ctx, tag, seed, n_points))
    reports.extend(asymptotics_checks())
    return reports


def _identities_for(ctx: EllipticContext, tag: str, seed: int, n_points: int):
    tau = ctx.tau
    meta = {"tau": tag}
    out = []

    rng = rng_for(seed, f"identity.periodicity.{tag}")
    us = _sample_u(rng, tau, n_points)
    err = 0.0
    for u in us:
        w = elliptic.weierstrass_p(u, ctx)
        err = max(err,
                  abs(elliptic.weierstrass_p(u + 1, ctx) - w),
                  abs(elliptic.weierstrass_p(u + tau, ctx) - w),
                  abs(elliptic.weierstrass_p(-u, ctx) - w))
    out.append(CheckReport(f"identity.periodicity.{tag}", err, TOL_PERIODICITY,
                           len(us), metadata=meta))

    rng = rng_for(seed, f"identity.addition.{tag}")
    err = 0.0
    for _ in range(n_points):
        u = cbox(rng, 0.08, 0.42, 0.05, 0.35 * tau.imag)
        v = cbox(rng, 0.08, 0.42, -0.35 * tau.imag, -0.05)
        if abs(elliptic.weierstrass_p(u, ctx) - elliptic.weierstrass_p(v, ctx)) < 1e-3:
            continue
        lhs = elliptic.weierstrass_p(u - v, ctx) + elliptic.weierstrass_p(u + v, ctx)
        pu, pv = elliptic.weierstrass_p(u, ctx), elliptic.weierstrass_p(v, ctx)
        du, dv = elliptic.weierstrass_p_prime(u, ctx), elliptic.weierstrass_p_prime(v, ctx)
        rhs = -2 * pu - 2 * pv + (du * du + dv * dv) / (2 * (pu - pv) ** 2)
        err = max(err, abs(lhs - rhs) / max(1.0, abs(lhs)))
    out.append(CheckReport(f"identity.addition.{tag}", err, TOL_ADDITION,
                           n_points, metadata=meta))

    rng = rng_for(seed, f"identity.cubic.{tag}")
    e1, e2, e3 = elliptic.half_period_values(ctx)
    err = 0.0
    for u in _sample_u(rng, tau, n_points):
        w = elliptic.weierstrass_p(u, ctx)
        dp = elliptic.weierstrass_p_prime(u, ctx)
        rhs = 4 * (w - e1) * (w - e2) * (w - e3)
        err = max(err, abs(dp * dp - rhs) / max(1.0, abs(rhs)))
    out.append(CheckReport(f"identity.cubic.{tag}", err, TOL_CUBIC,
                           n_points, metadata=meta))

    rng = rng_for(seed, f"identity.shift.{tag}")
    err = 0.0
    es = (e1, e2, e3)
    for u in _sample_u(rng, tau, n_points):
        w = elliptic.weierstrass_p(u, ctx)
        for j in range(3):
            ej = es[j]
            ek, el = es[(j + 1) % 3], es[(j + 2) % 3]
            rhs = ej + (ej - ek) * (ej - el) / (w - ej)
            lhs = elliptic.shifted_p(u, j + 1, ctx)
            err = max(err, abs(lhs - rhs) / max(1.0, abs(rhs)))
    out.append(CheckReport(f"identity.shift.{tag}", err, TOL_SHIFT,
                           n_points, metadata=meta))

    # g(u+tau) = g(u) - 1 for g = f_tau/f'
    rng = rng_for(seed, f"identity.lemma_g.{tag}")
    err = 0.0
    for u in _sample_u(rng, tau, n_points):
        _, fu1, ft1 = elliptic.f_and_derivatives(u, ctx)
        _, fu2, ft2 = elliptic.f_and_derivatives(u + tau, ctx)
        err = max(err, abs(ft2 / fu2 - (ft1 / fu1 - 1)))
    out.append(CheckReport(f"identity.lemma_g.{tag}", err, TOL_LEMMA_G,
                           n_points, metadata=meta))

    # cross-check of the analytic f_tau: 2 pi i f_tau/f' vs theta'/theta,
    # with f_tau recomputed by 4th-order finite differences in tau.  The
    # error is h^4 truncation, not roundoff: over seeds 1-60 at tau = i a
    # 1e-3 step reaches 1.8x the tolerance, 5e-4 stays below 0.11x
    rng = rng_for(seed, f"identity.lemma3_fd.{tag}")
    err = 0.0
    h = 5e-4
    for u in _sample_u(rng, tau, max(10, n_points // 3)):
        def f_of_tau(delta):
            c = EllipticContext(tau + delta)
            ee1, ee2, _ = elliptic.half_period_values(c)
            return (elliptic.weierstrass_p(u, c) - ee1) / (ee2 - ee1)
        ft_fd = (8 * (f_of_tau(h) - f_of_tau(-h)) - (f_of_tau(2 * h) - f_of_tau(-2 * h))) / (12 * h)
        _, fu, _ = elliptic.f_and_derivatives(u, ctx)
        lhs = TWO_PI_I * ft_fd / fu
        rhs = elliptic.theta_du(u + 0.5, ctx) / elliptic.theta(u + 0.5, ctx)
        err = max(err, abs(lhs - rhs))
    out.append(CheckReport(f"identity.lemma3_fd.{tag}", err, TOL_LEMMA3_FD,
                           max(10, n_points // 3), metadata={**meta, "fd_step": "5e-4"}))

    # heat equation: 4 pi i theta_tau = theta'' (second central difference).
    # step 1e-4 balances the h^2 truncation against the 4*eps/h^2 roundoff
    # floor of a second difference (a 1e-5 step would drown in roundoff)
    rng = rng_for(seed, f"identity.heat.{tag}")
    err = 0.0
    h = 1e-4
    for u in _sample_u(rng, tau, n_points):
        second = (elliptic.theta(u + h, ctx) - 2 * elliptic.theta(u, ctx)
                  + elliptic.theta(u - h, ctx)) / (h * h)
        lhs = 4j * PI * elliptic.theta_dtau(u, ctx)
        err = max(err, abs(lhs - second) / max(1.0, abs(second)))
    out.append(CheckReport(f"identity.heat.{tag}", err, TOL_HEAT,
                           n_points, metadata={**meta, "fd_step": "1e-4"}))

    # (log theta(u + 1/2))'' + wp(u + tau/2) is a function of tau only
    rng = rng_for(seed, f"identity.lemma4.{tag}")
    vals = []
    for u in _sample_u(rng, tau, max(30, n_points // 2)):
        th = elliptic.theta(u + 0.5, ctx)
        d1 = elliptic.theta_du(u + 0.5, ctx)
        d2 = elliptic.theta_du2(u + 0.5, ctx)
        log_dd = d2 / th - (d1 / th) ** 2
        vals.append(log_dd + elliptic.shifted_p(u, 3, ctx))
    mean = sum(vals) / len(vals)
    std = math.sqrt(sum(abs(v - mean) ** 2 for v in vals) / len(vals))
    out.append(CheckReport(f"identity.lemma4.{tag}", std, TOL_LEMMA4_STD,
                           len(vals), metadata=meta))

    # sinh pair identity used by the PV two-body rewrite
    rng = rng_for(seed, f"identity.sinh_pair.{tag}")
    err = 0.0
    for _ in range(n_points):
        u = cbox(rng, 0.2, 1.2, 0.05, 0.6)
        v = cbox(rng, -1.2, -0.2, 0.05, 0.6)
        lhs = 1 / cmath.sinh(u - v) ** 2 + 1 / cmath.sinh(u + v) ** 2
        rhs = 4 * (cmath.cosh(2 * u) * cmath.cosh(2 * v) - 1) / \
            (cmath.cosh(2 * u) - cmath.cosh(2 * v)) ** 2
        err = max(err, abs(lhs - rhs) / max(1.0, abs(lhs)))
    out.append(CheckReport(f"identity.sinh_pair.{tag}", err, TOL_SINH_PAIR,
                           n_points, metadata=meta))
    return out


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
    worst = max(abs(math.log(r1 / expected)), abs(math.log(r2 / expected)))
    return CheckReport("asymptotic.wp_decay_slope", worst, math.log(3.0), 3,
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
