import cmath
import math
import random
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from painleve_calogero import (
    EllipticContext,
    asymptotic_p,
    f_and_derivatives,
    half_period_values,
    lambda_of_q,
    shifted_p,
    theta,
    theta_dtau,
    theta_du,
    weierstrass_p,
    weierstrass_p_and_prime,
    weierstrass_p_prime,
)
from painleve_calogero.elliptic import asymptotic_p23_sum, reduce_to_cell, theta_du2
from painleve_calogero.errors import BadContext, HalfPeriodSingularity, PoleAt

PI = math.pi


def brute_force_wp(u, tau, n_max=200):
    """Double lattice sum oracle over |m|, |n| <= n_max.

    The square-truncated sum has an O(1/n_max^2) tail, so Richardson
    extrapolation over truncations at n_max/2 and n_max removes it.
    """

    def partial(N):
        total = 1 / u**2
        for m in range(-N, N + 1):
            for n in range(-N, N + 1):
                if m == 0 and n == 0:
                    continue
                w = m + n * tau
                total += 1 / (u + w) ** 2 - 1 / w**2
        return total

    return (4 * partial(n_max) - partial(n_max // 2)) / 3


def test_periodicity_and_evenness():
    ctx = EllipticContext(2j)
    u = 0.23 + 0.11j
    w = weierstrass_p(u, ctx)
    assert abs(weierstrass_p(u + 1, ctx) - w) < 1e-12
    assert abs(weierstrass_p(-u, ctx) - w) < 1e-12


def test_large_imtau_matches_sine_leading_term():
    ctx = EllipticContext(8j)
    u = 0.3
    expected = PI**2 / math.sin(PI * u) ** 2 - PI**2 / 3
    assert abs(weierstrass_p(u, ctx) - expected) < 1e-10


def test_against_double_lattice_sum_oracle():
    tau = 1.5j
    u = 0.3 + 0.2j
    # frozen from brute_force_wp(u, tau, 200); the O(1/n_max) tail of the
    # conditionally convergent double sum limits the agreement
    oracle = brute_force_wp(u, tau, 200)
    assert abs(weierstrass_p(u, EllipticContext(tau)) - oracle) < 1e-8


def test_wp_prime_vanishes_at_half_period():
    ctx = EllipticContext(1.3j)
    assert abs(weierstrass_p_prime(0.5, ctx)) < 1e-10


def test_wp_prime_odd():
    ctx = EllipticContext(2j)
    u = 0.2 + 0.3j
    assert abs(weierstrass_p_prime(-u, ctx) + weierstrass_p_prime(u, ctx)) < 1e-11


def test_wp_prime_matches_finite_difference():
    ctx = EllipticContext(1.2j)
    u = 0.27 + 0.19j
    h = 1e-6
    fd = (weierstrass_p(u + h, ctx) - weierstrass_p(u - h, ctx)) / (2 * h)
    pp = weierstrass_p_prime(u, ctx)
    assert abs(pp - fd) / abs(pp) < 1e-7


def test_cubic_identity(rng):
    ctx = EllipticContext(1.1j + 0.2)
    e1, e2, e3 = half_period_values(ctx)
    for _ in range(20):
        u = complex(rng.uniform(0.08, 0.42), rng.uniform(0.1, 0.4))
        w = weierstrass_p(u, ctx)
        lhs = weierstrass_p_prime(u, ctx) ** 2
        rhs = 4 * (w - e1) * (w - e2) * (w - e3)
        assert abs(lhs - rhs) / abs(rhs) < 1e-9


def test_trace_identity():
    e1, e2, e3 = half_period_values(EllipticContext(1.3j))
    assert abs(e1 + e2 + e3) < 1e-10


def test_e_asymptotics_at_large_imtau():
    e1, e2, e3 = half_period_values(EllipticContext(8j))
    assert abs(e2 - e1 + PI**2) < 1e-6
    assert abs(e1 - 2 * PI**2 / 3) < 1e-6


def test_shifted_p_index_zero_is_wp():
    ctx = EllipticContext(1.4j)
    u = 0.21 + 0.13j
    assert shifted_p(u, 0, ctx) == weierstrass_p(u, ctx)


def test_shift_formula():
    ctx = EllipticContext(1.2j)
    u = 0.31 + 0.07j
    es = half_period_values(ctx)
    w = weierstrass_p(u, ctx)
    for j in range(3):
        ej, ek, el = es[j], es[(j + 1) % 3], es[(j + 2) % 3]
        rhs = ej + (ej - ek) * (ej - el) / (w - ej)
        assert abs(shifted_p(u, j + 1, ctx) - rhs) / abs(rhs) < 1e-9


def test_shifted_p_omega2_asymptotics():
    tau = 8j
    ctx = EllipticContext(tau)
    u = 0.25
    expected = -PI**2 / 3 + 8 * PI**2 * math.cos(2 * PI * u) * cmath.exp(1j * PI * tau)
    assert abs(shifted_p(u, 2, ctx) - expected) < 1e-8


def test_theta_unit_periodicity():
    ctx = EllipticContext(1.5j)
    u = 0.4 + 0.1j
    assert abs(theta(u + 1, ctx) - theta(u, ctx)) < 1e-13


def test_theta_quasi_periodicity():
    ctx = EllipticContext(1.5j)
    u = 0.4 + 0.1j
    lhs = theta(u + ctx.tau, ctx)
    rhs = cmath.exp(-1j * PI * ctx.tau - 2j * PI * u) * theta(u, ctx)
    assert abs(lhs - rhs) / abs(rhs) < 1e-12


def test_heat_equation_against_second_difference():
    ctx = EllipticContext(1.2j)
    u = 0.17 + 0.23j
    h = 1e-5
    second = (theta(u + h, ctx) - 2 * theta(u, ctx) + theta(u - h, ctx)) / h**2
    lhs = 4j * PI * theta_dtau(u, ctx)
    assert abs(lhs - second) / abs(second) < 1e-6


def test_theta_du_and_du2_are_series_derivatives():
    ctx = EllipticContext(1.1j)
    u = 0.31 + 0.12j
    h = 1e-6
    fd1 = (theta(u + h, ctx) - theta(u - h, ctx)) / (2 * h)
    assert abs(theta_du(u, ctx) - fd1) / abs(fd1) < 1e-8
    fd2 = (theta_du(u + h, ctx) - theta_du(u - h, ctx)) / (2 * h)
    assert abs(theta_du2(u, ctx) - fd2) / abs(fd2) < 1e-8


def test_f_at_omega3_equals_t():
    ctx = EllipticContext(1.3j)
    e1, e2, e3 = half_period_values(ctx)
    t = (e3 - e1) / (e2 - e1)
    f, _, _ = f_and_derivatives(ctx.tau / 2 + 1e-7, ctx)  # omega_3 itself is a half period
    assert abs(f - t) / abs(t) < 1e-6
    # exact statement: f(omega_3) = t via a plain evaluation of wp
    f_exact = (weierstrass_p(ctx.tau / 2, ctx) - e1) / (e2 - e1)
    assert abs(f_exact - t) / abs(t) < 1e-12


def test_f_tau_matches_finite_difference(rng):
    tau = 1.2j + 0.1
    ctx = EllipticContext(tau)
    h = 1e-6
    for _ in range(20):
        u = complex(rng.uniform(0.08, 0.42), rng.uniform(0.05, 0.5))

        def f_at(tt):
            c = EllipticContext(tt)
            a1, a2, _ = half_period_values(c)
            return (weierstrass_p(u, c) - a1) / (a2 - a1)

        fd = (f_at(tau + h) - f_at(tau - h)) / (2 * h)
        _, _, ft = f_and_derivatives(u, ctx)
        assert abs(ft - fd) / max(1.0, abs(fd)) < 1e-6


@pytest.mark.parametrize("n", (14, 20, 40, -14, -40))
def test_f_and_derivatives_far_from_the_cell(n):
    # the theta sum overflowed here before u was reduced to the cell first
    ctx = EllipticContext(0.13 + 1.17j)
    u = 0.21 + 0.17j
    f0, fu0, ft0 = f_and_derivatives(u, ctx)
    f, fu, ft = f_and_derivatives(u + 3 + n * ctx.tau, ctx)
    assert abs(f - f0) <= 1e-13 * abs(f0)
    assert abs(fu - fu0) <= 1e-13 * abs(fu0)
    assert abs(ft - (ft0 - n * fu0)) <= 1e-13 * abs(ft0 - n * fu0)


def test_g_quasi_periodicity(rng):
    ctx = EllipticContext(1.25j)
    for _ in range(10):
        u = complex(rng.uniform(0.08, 0.42), rng.uniform(0.05, 0.45))
        _, fu1, ft1 = f_and_derivatives(u, ctx)
        _, fu2, ft2 = f_and_derivatives(u + ctx.tau, ctx)
        assert abs(ft2 / fu2 - (ft1 / fu1 - 1)) < 1e-10


def test_lemma4_constancy(rng):
    ctx = EllipticContext(1.15j)
    vals = []
    for _ in range(30):
        u = complex(rng.uniform(0.08, 0.42), rng.uniform(0.05, 0.45))
        th = theta(u + 0.5, ctx)
        val = theta_du2(u + 0.5, ctx) / th - (theta_du(u + 0.5, ctx) / th) ** 2
        vals.append(val + shifted_p(u, 3, ctx))
    mean = sum(vals) / len(vals)
    std = math.sqrt(sum(abs(v - mean) ** 2 for v in vals) / len(vals))
    assert std < 1e-8


def test_asymptotic_p_leading_forms():
    val = asymptotic_p(0.2, 1, 6j)
    assert abs(val - (PI**2 / math.cos(0.2 * PI) ** 2 - PI**2 / 3)) < 1e-14
    # decay of the n=3 remainder like e^{2 pi i tau}, resolvable in doubles
    u = 0.3
    errs = []
    for im in (2.0, 3.0, 4.0):
        ctx = EllipticContext(1j * im)
        errs.append(abs(weierstrass_p(u + ctx.tau / 2, ctx) - asymptotic_p(u, 3, 1j * im)))
    for r in (errs[0] / errs[1], errs[1] / errs[2]):
        assert math.exp(2 * PI) / 3 < r < math.exp(2 * PI) * 3


def test_asymptotic_p_slope_imtau_468_high_precision():
    """Decay of the shifted-wp remainder across Im tau in {4, 6, 8}; the gaps
    reach 1e-19, so the measurement runs on an mpmath twin of the sine series."""
    u0 = 0.3
    errs = []
    with mp.workdps(40):
        for im in (4, 6, 8):
            tau = mp.mpc(0, im)
            val = -mp.pi**2 / 3
            for n in range(-30, 31):
                val += mp.pi**2 / mp.sin(mp.pi * (u0 + (n + mp.mpf(1) / 2) * tau)) ** 2
            for n in range(1, 31):
                val -= 2 * mp.pi**2 / mp.sin(mp.pi * n * tau) ** 2
            approx = -mp.pi**2 / 3 - 8 * mp.pi**2 * mp.cos(2 * mp.pi * u0) * mp.e ** (1j * mp.pi * tau)
            errs.append(float(abs(val - approx)))
    for r in (errs[0] / errs[1], errs[1] / errs[2]):
        assert math.exp(4 * PI) / 3 < r < math.exp(4 * PI) * 3


def test_p23_combination_coefficient():
    # coefficient of e^{2 pi i tau} is 16 pi^2 - 32 pi^2 cos(4 pi u); at
    # Im tau = 5 the combination is still resolvable in double precision
    tau = 5j
    ctx = EllipticContext(tau)
    u = 0.31
    value = shifted_p(u, 2, ctx) + shifted_p(u, 3, ctx)
    assert abs(value - asymptotic_p23_sum(u, tau)) / abs(value + 2 * PI**2 / 3 + 1) < 1e-3
    q2 = cmath.exp(2j * PI * tau)
    coeff = (value + 2 * PI**2 / 3) / q2
    target = 16 * PI**2 - 32 * PI**2 * math.cos(4 * PI * u)
    assert abs(coeff - target) / abs(target) < 1e-3


@pytest.mark.parametrize("tau", (1j, 1.5j, 0.3 + 2j))
def test_double_periodicity_grid(tau):
    ctx = EllipticContext(tau)
    worst = 0.0
    for i in range(10):
        for j in range(10):
            u = (0.04 + 0.0415 * i) + (0.04 + 0.0415 * j) * tau
            w = weierstrass_p(u, ctx)
            worst = max(worst,
                        abs(weierstrass_p(u + 1, ctx) - w),
                        abs(weierstrass_p(u + tau, ctx) - w))
    assert worst <= 1e-11


def test_pole_and_context_errors():
    ctx = EllipticContext(1.5j)
    with pytest.raises(PoleAt):
        weierstrass_p(0, ctx)
    with pytest.raises(PoleAt):
        weierstrass_p(1 + ctx.tau, ctx)
    with pytest.raises(BadContext):
        EllipticContext(-1j)
    with pytest.raises(BadContext):
        half_period_values(EllipticContext(0.05j))  # e2 - e1 lost to rounding
    with pytest.raises(HalfPeriodSingularity):
        f_and_derivatives(0.5, ctx)


@pytest.mark.parametrize("tau", (complex(0, math.inf), complex(math.nan, math.inf),
                                 complex(math.inf, 1), complex(math.nan, 1)))
def test_nonfinite_tau_is_refused(tau):
    with pytest.raises(BadContext):
        EllipticContext(tau)


@pytest.mark.parametrize("fn", (weierstrass_p, weierstrass_p_prime, weierstrass_p_and_prime,
                                f_and_derivatives, theta))
@pytest.mark.parametrize("u", (math.inf, math.nan, complex(0.2, math.inf)))
def test_nonfinite_argument_is_refused(fn, u):
    with pytest.raises(ValueError, match="u must be finite"):
        fn(u, EllipticContext(1.2j))


@pytest.mark.parametrize("fn", (theta, theta_du, theta_du2, theta_dtau))
def test_theta_overflow_is_refused(fn):
    # the terms grow like exp(pi Im tau n^2); fourteen periods up they leave
    # the double range, ten periods up the value (about 1e164) is still finite
    ctx = EllipticContext(0.13 + 1.17j)
    assert cmath.isfinite(fn(0.21 + 0.17j + 10 * ctx.tau, ctx))
    u = 0.21 + 0.17j + 14 * ctx.tau
    with pytest.raises(ValueError, match=f"overflows at u={re.escape(str(u))}"):
        fn(u, ctx)


def test_cache_roundtrip():
    ctx = EllipticContext(1.5j)
    first = half_period_values(ctx)
    assert ctx.cached_e == first
    assert half_period_values(ctx) == first


def _reuse_cases():
    """Seeded tau and arguments: four in the cell, two a few periods out."""
    rng = random.Random(20)
    for _ in range(4):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 2.0))
        us = [rng.uniform(-0.45, 0.45) + rng.uniform(-0.45, 0.45) * tau for _ in range(4)]
        us += [u + rng.randint(-3, 3) + rng.choice((-2, 1, 3)) * tau for u in us[:2]]
        yield tau, us


@pytest.mark.parametrize("between", (None, weierstrass_p, weierstrass_p_prime),
                         ids=("adjacent", "wp-between", "wp_prime-between"))
@pytest.mark.parametrize("first, second", ((weierstrass_p_prime, weierstrass_p),
                                           (weierstrass_p, weierstrass_p_prime)),
                         ids=("wp_prime-then-wp", "wp-then-wp_prime"))
def test_last_pass_reuse_is_bit_identical(first, second, between):
    # a reused pass returns what a fresh context computes, in either order
    # and with a call at another argument between the two
    for tau, us in _reuse_cases():
        ctx = EllipticContext(tau)
        for u, v in zip(us, us[1:] + us[:1]):
            got = {first: first(u, ctx)}
            if between is not None:
                between(v, ctx)
            got[second] = second(u, ctx)
            for fn in (weierstrass_p, weierstrass_p_prime):
                assert got[fn] == fn(u, EllipticContext(tau)), (fn.__name__, tau, u)


def test_equal_but_distinct_argument_takes_a_fresh_pass(passes):
    tau, u = 0.13 + 1.17j, 0.21 + 0.17j
    ctx = EllipticContext(tau)
    weierstrass_p_prime(u, ctx)
    wp = weierstrass_p(u, ctx)
    assert passes[0] == 1 and ctx.last_pass[0] is u
    twin = complex(u.real, u.imag)
    assert twin == u and twin is not u
    assert weierstrass_p(twin, ctx) == wp
    assert passes[0] == 2


def test_a_freed_argument_cannot_pass_its_identity_on():
    # the context holds the argument it keeps, so a temporary is not freed
    # and a new object cannot take its address and read its values
    tau = 0.13 + 1.17j
    ctx = EllipticContext(tau)
    for k in range(20):
        weierstrass_p_prime(complex(0.1, 0.01 * k), ctx)
        assert weierstrass_p(complex(0.3, 0.01 * k), ctx) == \
            weierstrass_p(complex(0.3, 0.01 * k), EllipticContext(tau))


def test_only_a_complex_argument_is_kept():
    # an object whose value can change in place must not be reused by identity
    ctx = EllipticContext(0.13 + 1.17j)
    for u in (0.21, np.array(0.21 + 0.17j)):
        weierstrass_p_and_prime(u, ctx)
        assert ctx.last_pass is None


def test_shared_context_never_returns_another_arguments_value():
    # threads share one context and interleave wp'/wp pairs at their own
    # arguments; a lookup may miss, but each value is its argument's own
    import concurrent.futures
    import sys

    tau = 0.13 + 1.17j
    ctx = EllipticContext(tau)
    us = [0.05 * k + 0.031j * k - 0.2 for k in range(1, 9)]
    expected = {u: (weierstrass_p(u, EllipticContext(tau)),
                    weierstrass_p_prime(u, EllipticContext(tau))) for u in us}

    def work(u):
        for _ in range(100):
            arg = complex(u.real, u.imag)  # a new object each round
            pp = weierstrass_p_prime(arg, ctx)
            if (weierstrass_p(arg, ctx), pp) != expected[u]:
                return False
        return True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(len(us)) as pool:
            results = [f.result(timeout=60) for f in [pool.submit(work, u) for u in us]]
    finally:
        sys.setswitchinterval(interval)
    assert results == [True] * len(us)


@pytest.mark.parametrize("call", (
    lambda: weierstrass_p(1e16 + 0.3j, EllipticContext(0.5 + 0.1j)),
    lambda: weierstrass_p_prime(0.3 + 3e16j, EllipticContext(0.13 + 1.17j)),
    lambda: f_and_derivatives(1e16 + 0.3j, EllipticContext(0.5 + 0.1j)),
    lambda: lambda_of_q("VI", 1e200 + 1e200j, 0.5 + 0.1j),
), ids=("wp-a-1e16", "wp_prime-b-2.6e16", "f-a-1e16", "lambda_of_q-VI-1e200"))
def test_argument_without_a_fractional_lattice_bit_is_refused(call):
    # the lattice coordinates a, b of u keep no fractional bit, so the cell
    # point is rounding noise: it was refused as a pole, or summed as given
    with pytest.raises(ValueError, match="keep no fractional bit"):
        call()


def test_reduction_keeps_a_fractional_bit_below_2_to_52():
    # the spacing of doubles just below 2^52 is 1/2, and that half survives
    assert reduce_to_cell((2.0**52 - 1.5) + 0.25j, 1j) == -0.5 + 0.25j


def test_cache_is_thread_safe():
    import concurrent.futures

    ctx = EllipticContext(1.3j)
    with concurrent.futures.ThreadPoolExecutor(8) as pool:
        results = list(pool.map(lambda _: half_period_values(ctx), range(64)))
    assert all(r == results[0] for r in results)


# bound by tau: at small Im tau the phases pi Re tau n^2 reach ~10^3 and
# their rounding, not the truncation, sets the error
THETA_TWIN_BOUND = {0.5j: 1e-13, 0.2 + 0.4j: 1e-13, 0.5 + 0.03j: 1e-12, 0.5 + 0.02j: 1e-11}


@pytest.mark.parametrize("tau", THETA_TWIN_BOUND)
def test_theta_against_mpmath_twin(tau):
    # theta(u) = jtheta(3, pi u, e^{pi i tau}); each u-derivative brings a factor pi
    ctx, q, bound = EllipticContext(tau), mp.exp(1j * mp.pi * tau), THETA_TWIN_BOUND[tau]
    for u in (0.23 + 0.11j, 0.41 + 0.2j * tau.imag):
        for k, fn in enumerate((theta, theta_du, theta_du2)):
            ref = complex(mp.jtheta(3, mp.pi * u, q, k) * mp.pi**k)
            assert abs(fn(u, ctx) - ref) <= bound * max(1.0, abs(ref)), (fn.__name__, u)
        # f_tau/f' = theta'(u + 1/2)/(2 pi i theta(u + 1/2))
        w = mp.pi * (u + 0.5)
        ref = complex(mp.jtheta(3, w, q, 1) / (2j * mp.jtheta(3, w, q)))
        _, fu, ft = f_and_derivatives(u, ctx)
        assert abs(ft / fu - ref) <= bound * max(1.0, abs(ref)), ("f_tau/f'", u)


@st.composite
def cell_points(draw):
    a = draw(st.floats(0.05, 0.45))
    b = draw(st.floats(0.05, 0.45))
    return a, b


@given(cell_points(), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=50, deadline=None)
def test_lattice_periodicity_property(ab, m, n):
    tau = 0.3 + 1.4j
    ctx = EllipticContext(tau)
    a, b = ab
    u = a + b * tau
    w = weierstrass_p(u, ctx)
    shifted = weierstrass_p(u + m + n * tau, ctx)
    assert abs(shifted - w) <= 1e-11 * max(1.0, abs(w))


@given(cell_points())
@settings(max_examples=50, deadline=None)
def test_reduce_to_cell_idempotent(ab):
    tau = 0.2 + 1.1j
    a, b = ab
    u = (a - 0.5) + (b - 0.5) * tau
    red = reduce_to_cell(u, tau)
    assert abs(reduce_to_cell(red, tau) - red) < 1e-13
    assert abs(red - u) < 1e-12  # already in the centred cell


def mp_sine_series(u, tau, derivative=False, dps=40):
    """wp(u) (or wp'(u)) from the sine series at dps digits, summed until the
    terms drop below the working precision."""
    with mp.workdps(dps):
        u, tau = mp.mpc(u), mp.mpc(tau)

        def term(z):
            s = mp.sin(mp.pi * z)
            return -2 * mp.pi**3 * mp.cos(mp.pi * z) / s**3 if derivative else mp.pi**2 / s**2

        total = term(u) if derivative else term(u) - mp.pi**2 / 3
        eps = mp.mpf(10) ** (-dps - 5)
        n = 1
        while True:
            t = term(u + n * tau) + term(u - n * tau)
            if not derivative:
                t -= 2 * mp.pi**2 / mp.sin(mp.pi * n * tau) ** 2
            total += t
            if abs(t) <= eps * abs(total):
                return complex(total)
            n += 1


@pytest.mark.parametrize("im_tau", (0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.95, 1.0, 1.17, 1.35, 2.0, 4.0,
                                    8.0))
def test_nome_series_against_mpmath_twin(im_tau):
    tau = complex(0.13, im_tau)
    ctx = EllipticContext(tau)
    # (a, b) of u = a + b tau; |b| = 0.49 sits at the cell edge, where the
    # first nome term is largest
    for a, b in ((0.23, 0.49), (-0.37, -0.49), (0.11, 0.31), (0.42, -0.17), (-0.05, 0.12)):
        u = a + b * tau
        joint = weierstrass_p_and_prime(u, ctx)
        # a fresh context runs the value-only loop: no joint pass at u to reuse
        wp = weierstrass_p(u, EllipticContext(tau))
        assert joint == (wp, weierstrass_p_prime(u, ctx))  # same sums
        for name, value, derivative in (("wp", wp, False),
                                        ("joint wp", joint[0], False),
                                        ("wp'", joint[1], True)):
            ref = mp_sine_series(u, tau, derivative)
            assert abs(value - ref) <= 1e-13 * abs(ref), (name, u)


@pytest.mark.parametrize("im_tau", (0.05, 0.1, 0.5, 0.95, 1.17, 1.35, 2.0, 8.0))
def test_nome_term_count_is_the_least_that_meets_the_tail_bound(im_tau):
    # |x_n| <= |Q|^{n-1/2} in the cell, so the tails of both sides past N
    # terms sum to at most 2|Q|^{N+1/2}/(1-|Q|)
    q = math.exp(-2 * PI * im_tau)

    def tail(n):
        return 2 * q ** (n + 0.5) / (1 - q)

    n_terms = EllipticContext(complex(0.13, im_tau)).n_terms
    assert tail(n_terms) <= math.exp(-39)
    assert n_terms == 1 or tail(n_terms - 1) > math.exp(-39)


def lambert_tail(k, im_tau):
    """Bound on the Lambert tails of both sides past k terms.

    Past n = 1 each side is summed as sum_k k^j y^k/(1-Q^k), j = 1, 2, with
    |y| <= r = |Q|^{3/2} in the cell; the j = 2 tail past k terms is at most
    2 m^2 r^m/((1-rho)(1-|Q|^m)), m = k+1, where rho = ((m+1)/m)^2 r bounds
    the ratio of consecutive terms.
    """
    q = math.exp(-2 * PI * im_tau)
    r, m = q**1.5, k + 1
    rho = ((m + 1) / m) ** 2 * r
    return math.inf if rho >= 1 else 2 * m * m * r**m / ((1 - rho) * (1 - q**m))


@pytest.mark.parametrize("im_tau", (0.05, 0.1, 0.5, 0.95, 1.17, 1.35, 2.0, 8.0))
def test_lambert_term_count_is_the_least_that_meets_its_tail_bound(im_tau):
    n_lambert = len(EllipticContext(complex(0.13, im_tau))._lambert)
    assert lambert_tail(n_lambert, im_tau) < math.exp(-39)
    assert n_lambert == 0 or lambert_tail(n_lambert - 1, im_tau) >= math.exp(-39)


def test_lambert_terms_never_outnumber_the_nome_terms():
    # the context builds both from one loop over its N nome terms, so the
    # Lambert bound has to be met within N terms
    for im_tau in np.geomspace(1e-3, 10, 400):
        ctx = EllipticContext(complex(0.13, im_tau))
        n_lambert = len(ctx._lambert)
        assert n_lambert <= ctx.n_terms and lambert_tail(n_lambert, im_tau) < math.exp(-39), im_tau
    for im_tau, counts in ((1e-3, (7125, 6575)), (1.17, (5, 3))):
        ctx = EllipticContext(complex(0.13, im_tau))
        assert (ctx.n_terms, len(ctx._lambert)) == counts


@pytest.mark.parametrize("tau", (0.001j, 0.003j, 0.13 + 0.001j))
def test_context_coefficients_against_mpmath_where_q_to_the_k_nears_one(tau):
    # 1 - Q^k taken directly lost 1.5e-14 of k/(1-Q^k) and 2.6e-14 of the
    # constant at tau = 0.001i; the sinh form keeps them to rounding
    ctx = EllipticContext(tau)
    with mp.workdps(30):
        t = mp.mpc(tau)
        const = -mp.pi**2 / 3 - 2 * mp.pi**2 * mp.fsum(
            1 / mp.sin(mp.pi * n * t) ** 2 for n in range(1, ctx.n_terms + 1))
        assert abs(ctx.const - const) <= 2e-14 * abs(const)
        for k in (1, 2, 5, 50):
            inv = 1 / (1 - mp.exp(2j * mp.pi * k * t))
            for value, ref in zip(ctx._lambert[k - 1], (k * inv, k * k * inv)):
                assert abs(value - ref) <= 1e-15 * abs(ref), k


def test_no_overflow_at_large_imtau():
    ctx = EllipticContext(300j)
    # at Im u = 80 the sine term's sin^3 overflows unless cot is formed first
    for u in (0.3, 0.2 + 147j, -0.1 - 149j, 0.4 + 60j, 0.2 + 80j):
        w, wp1 = weierstrass_p(u, ctx), weierstrass_p_prime(u, ctx)
        assert cmath.isfinite(w) and cmath.isfinite(wp1)
    assert abs(weierstrass_p(0.3, ctx) - (PI**2 / math.sin(0.3 * PI) ** 2 - PI**2 / 3)) < 1e-12
