"""Accuracy of ``weierstrass_p`` against a 40-digit mpmath copy of its sine
series, summed until the terms drop below the working precision.

The grid includes the small-Im tau values 0.05i, 0.1i and 0.3+0.08i, where
the fixed 24-term truncation is known to lose digits; the error there is
reported as it is.
"""

from __future__ import annotations

import random

import mpmath

from painleve_calogero import elliptic

TAU_GRID = (0.05j, 0.1j, 0.3 + 0.08j, 0.2 + 0.3j, 1j, 0.13 + 1.17j, 2j)
POINTS_PER_TAU = 4
DPS = 40


def wp_reference(u: complex, tau: complex, dps: int = DPS) -> complex:
    """wp(u | 1, tau) = -pi^2/3 + sum_n pi^2/sin^2(pi(u+n tau)) - sum_{n>=1} 2 pi^2/sin^2(pi n tau)."""
    with mpmath.workdps(dps):
        u, tau, pi2 = mpmath.mpc(u), mpmath.mpc(tau), mpmath.pi ** 2
        total = -pi2 / 3 + pi2 / mpmath.sin(mpmath.pi * u) ** 2
        eps = mpmath.mpf(10) ** (-dps - 5)
        n = 1
        while True:
            term = pi2 * (1 / mpmath.sin(mpmath.pi * (u + n * tau)) ** 2
                          + 1 / mpmath.sin(mpmath.pi * (u - n * tau)) ** 2
                          - 2 / mpmath.sin(mpmath.pi * n * tau) ** 2)
            total += term
            if abs(term) <= eps * abs(total):
                return complex(total)
            n += 1


def wp_rel_err_grid(seed: int) -> list[dict]:
    """Worst relative error of weierstrass_p per tau, over seeded cell points
    u = a + b tau with |a|, |b| in [0.1, 0.4]."""
    rng = random.Random(seed)
    rows = []
    for tau in TAU_GRID:
        ctx = elliptic.EllipticContext(tau)
        worst = 0.0
        for _ in range(POINTS_PER_TAU):
            a = rng.choice((-1, 1)) * rng.uniform(0.1, 0.4)
            b = rng.choice((-1, 1)) * rng.uniform(0.1, 0.4)
            u = a + b * tau
            ref = wp_reference(u, tau)
            worst = max(worst, abs(elliptic.weierstrass_p(u, ctx) - ref) / abs(ref))
        rows.append({"tau": [tau.real, tau.imag], "rel_err_max": worst})
    return rows
