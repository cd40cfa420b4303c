import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from painleve_calogero import (
    EllipticContext,
    PhaseState,
    f_and_derivatives,
    half_period_values,
    jacobian_dtau_dt,
    lambda_of_q,
    mu_of_pq,
    multi_transform,
    pq_of_lambdamu,
    q_of_lambda,
    time_map_pvi,
    time_map_pvi_inverse,
    weierstrass_p,
    weierstrass_p_prime,
)
from painleve_calogero import transforms
from painleve_calogero.elliptic import TWO_PI_I, reduce_to_cell
from painleve_calogero.errors import BranchCut
from painleve_calogero.verify.correspondence import default_aux, sample_calogero_state

PI = math.pi
EQS = ("VI", "V", "IV", "III", "II", "I")


# ---------------------------------------------------------------------------
# time map
# ---------------------------------------------------------------------------

def test_time_map_round_trip():
    tau = 1.1j
    t = time_map_pvi(tau)
    back = time_map_pvi_inverse(t, tau + 0.05 + 0.1j)
    assert abs(back - tau) / abs(tau) < 1e-9


def test_time_map_large_imtau_expansion():
    tau = 8j
    t = time_map_pvi(tau)
    assert abs(t - 1 - 16 * PI**2 * cmath.exp(1j * PI * tau)) < 1e-8
    # coefficient-resolving form: (t - 1)/e^{pi i tau} -> 16
    tau4 = 4j
    t4 = time_map_pvi(tau4)
    assert abs((t4 - 1) / cmath.exp(1j * PI * tau4) - 16) < 1e-2


def test_jacobian_against_finite_difference():
    tau = 1.3j + 0.2
    h = 1e-6
    dt_dtau = (time_map_pvi(tau + h) - time_map_pvi(tau - h)) / (2 * h)
    assert abs(jacobian_dtau_dt(tau) * dt_dtau - 1) < 1e-6


# ---------------------------------------------------------------------------
# coordinate maps
# ---------------------------------------------------------------------------

def test_lambda_of_q_values():
    assert lambda_of_q("IV", 2, 0.3) == 1
    assert lambda_of_q("III", 0, 0.3) == 1
    assert abs(lambda_of_q("V", 1j * PI, 0.3)) < 1e-15  # coth(i pi/2) = 0


@pytest.mark.parametrize("eq,q", [("V", 0.7 + 0.3j), ("IV", 1.1 - 0.2j),
                                  ("III", 0.4 + 0.6j), ("II", 0.9 + 0.1j), ("I", -0.3 + 0.4j)])
def test_q_lambda_round_trip(eq, q):
    t = 0.8 + 0.2j
    lam = lambda_of_q(eq, q, t)
    q_back = q_of_lambda(eq, lam, t, branch_hint=q)
    assert abs(q_back - q) < 1e-9


def test_q_lambda_round_trip_vi():
    tau = 0.13 + 1.17j
    q = 0.23 + 0.31 * tau
    lam = lambda_of_q("VI", q, tau)
    q_back = q_of_lambda("VI", lam, tau, branch_hint=q)
    assert abs(q_back - q) < 1e-9
    assert abs(lambda_of_q("VI", q_back, tau) - lam) < 1e-9


def test_q_of_lambda_vi_at_t_is_omega3():
    tau = 1.2j + 0.1
    t = time_map_pvi(tau)
    q = q_of_lambda("VI", t * (1 + 1e-9), tau, branch_hint=tau / 2)
    assert abs(q - tau / 2) < 1e-4  # wp is critical at omega_3, so sqrt-accuracy


@pytest.mark.parametrize("eq", EQS)
@pytest.mark.parametrize("lam", (complex("nan"), complex("inf"), complex(1, float("-inf"))))
def test_nonfinite_lambda_is_refused(eq, lam):
    tau = 0.13 + 1.17j
    with pytest.raises(ValueError):
        q_of_lambda(eq, lam, tau)


def test_branch_cuts_raise():
    with pytest.raises(BranchCut):
        q_of_lambda("V", 1, 0.5)
    with pytest.raises(BranchCut):
        q_of_lambda("III", 0, 0.5)


@pytest.mark.parametrize("lam", (1e12, 1e16, 1e20, -1e16, 1e12j, 3e23))
def test_pv_inverse_keeps_the_digits_of_a_large_lambda(lam):
    # log((s - 1)/(s + 1)) rounds its argument near 1: a relative error growing like sqrt(lambda)
    q = q_of_lambda("V", lam, 0.5)
    assert abs(lambda_of_q("V", q, 0.5) - lam) <= 1e-15 * abs(lam)


@pytest.mark.parametrize("lam", (1e-11, 0.3, 0.7, 0.9))
@pytest.mark.parametrize("zero", (0.0, -0.0))
def test_pv_inverse_on_the_segment_takes_im_q_pi(lam, zero):
    # on 0 < lambda < 1, (s - 1)/(s + 1) is negative: the principal q has Im q = +pi
    q = q_of_lambda("V", complex(lam, zero), 0.5)
    assert q.imag == PI
    assert abs(q.real + 2 * math.atanh(math.sqrt(lam))) <= 1e-15 * abs(q)


@pytest.mark.parametrize("lam", (4e24, 1e30, -1e300, 1e300j))
def test_pv_inverse_of_a_lambda_whose_q_lies_on_the_sinh_zero_set_is_refused(lam):
    # the q of such a lambda is within 1e-12 of 0, where lambda_of_q refuses it
    from painleve_calogero.errors import MapSingularity
    with pytest.raises(MapSingularity, match="sinh zero set"):
        q_of_lambda("V", lam, 0.5)


def test_abel_map_quadrature_oracle():
    """Incomplete integral of dz/sqrt(z(z-1)(z-t)), branch-tracked along a
    straight pole-free path, rescaled by 2 sqrt(e2-e1), against the
    wp-based inversion modulo the lattice."""
    tau = 0.13 + 1.17j
    ctx = EllipticContext(tau)
    e1, e2, e3 = half_period_values(ctx)
    t = time_map_pvi(tau)

    q_base = 0.37 + 0.41 * tau
    lam_base = lambda_of_q("VI", q_base, tau)
    q_true = 0.19 + 0.27 * tau
    lam_target = lambda_of_q("VI", q_true, tau)

    # composite Gauss-Legendre with sign continuity of the square root
    nodes, weights = np.polynomial.legendre.leggauss(10)
    segments = 60
    total = 0j
    prev_w = None
    for k in range(segments):
        a = k / segments
        b = (k + 1) / segments
        mid, half = (a + b) / 2, (b - a) / 2
        for x, wgt in zip(nodes, weights):
            s = mid + half * x
            z = lam_base + s * (lam_target - lam_base)
            w = cmath.sqrt(z * (z - 1) * (z - t))
            if prev_w is not None and abs(w - prev_w) > abs(-w - prev_w):
                w = -w
            prev_w = w
            total += wgt * half * (lam_target - lam_base) / w
    dq = total / (2 * cmath.sqrt(e2 - e1))

    q_prod = q_of_lambda("VI", lam_target, tau, branch_hint=q_true)
    best = math.inf
    for sign in (1, -1):
        q_oracle = q_base + sign * dq
        for image in (q_prod, -q_prod):
            diff = reduce_to_cell(image - q_oracle, tau)
            for m in (-1, 0, 1):
                for n in (-1, 0, 1):
                    best = min(best, abs(diff + m + n * tau))
    assert best < 1e-6


def _invert_unhinted(q, tau, ctx):
    """The un-hinted VI inverse of lambda(q), its wp residual checked
    against the stated bound."""
    e1, e2, _ = half_period_values(ctx)
    lam = lambda_of_q("VI", q, tau)
    x = e1 + (e2 - e1) * lam
    got = q_of_lambda("VI", lam, tau)
    assert abs(weierstrass_p(got, ctx) - x) <= 1e-11 * max(1.0, abs(x))
    return got


def _principal(q, tau):
    """The cell representative of +-q with the larger imaginary part."""
    return max((reduce_to_cell(z, tau) for z in (q, -q)), key=lambda z: (z.imag, -z.real))


@pytest.mark.parametrize("radius", (0.02, 0.05))
def test_unhinted_vi_inversion_near_the_pole(radius):
    tau = 0.13 + 1.17j
    ctx = EllipticContext(tau)
    for k in range(24):
        q = radius * cmath.exp(2j * PI * (k + 0.5) / 24)
        assert abs(_invert_unhinted(q, tau, ctx) - _principal(q, tau)) < 1e-9


@pytest.mark.parametrize("tau", (0.13 + 1.17j, -0.4 + 0.5j, 0.3 + 2j))
def test_unhinted_vi_inversion_over_the_cell(tau, rng):
    ctx = EllipticContext(tau)
    for k in range(500):
        if k % 5 == 0:  # near the pole, down to |q| = 1e-4
            q = 10 ** rng.uniform(-4, -1) * cmath.exp(2j * PI * rng.uniform())
        else:
            q = rng.uniform(-0.5, 0.5) + rng.uniform(-0.5, 0.5) * tau
        assert abs(_invert_unhinted(q, tau, ctx) - _principal(q, tau)) < 1e-9


@pytest.mark.parametrize("tau", (0.3j, 2j))
def test_vi_inversion_on_the_real_lines(tau, rng):
    """At imaginary tau, wp is real on the axes and on the half-period
    lines, so some x - e_i sit on the cut of the square root in R_F.  The
    principal pick is a tie there, so the check is +-q modulo the lattice."""
    ctx = EllipticContext(tau)
    for _ in range(100):
        a, b = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        for q in (complex(a), b * tau, 0.5 + b * tau, a + tau / 2):
            got = _invert_unhinted(q, tau, ctx)
            assert min(abs(reduce_to_cell(got - s * q, tau)) for s in (1, -1)) < 1e-9


def test_carlson_rf_against_mpmath_twin(rng):
    import mpmath as mp

    worst = 0.0
    for _ in range(500):
        args = [complex(*rng.uniform(-3, 3, 2)) for _ in range(3)]
        ref = complex(mp.elliprf(*args))
        worst = max(worst, abs(transforms._carlson_rf(*args) - ref) / abs(ref))
    assert worst < 2e-15
    # one zero argument and the equal-argument case R_F(x, x, x) = x^(-1/2)
    assert abs(transforms._carlson_rf(0, 1, 2) - complex(mp.elliprf(0, 1, 2))) < 1e-15
    assert transforms._carlson_rf(4 + 0j, 4 + 0j, 4 + 0j) == 0.5


@pytest.mark.parametrize("eq", ("V", "III"))
@pytest.mark.parametrize("periods", (0, 4, 6, -5))
def test_periodic_branch_hint_far_away(eq, periods):
    q = 0.7 + 0.3j + periods * TWO_PI_I
    t = 0.8 + 0.2j
    lam = lambda_of_q(eq, q, t)
    assert abs(q_of_lambda(eq, lam, t, branch_hint=q) - q) < 1e-9


_PVI_STATE = PhaseState((0.3 + 0.2j,), (0.4,), time_map_pvi(0.5j))


@pytest.mark.parametrize("call", (
    lambda h: q_of_lambda("VI", 0.3 + 0.2j, 0.5j, branch_hint=h),
    lambda h: pq_of_lambdamu("VI", 0.3 + 0.2j, 0.4, 0.5j, default_aux("VI"), branch_hint=h),
    lambda h: multi_transform("VI", "to_calogero", _PVI_STATE, default_aux("VI"),
                              EllipticContext(0.5j), branch_hints=(h,)),
), ids=("q_of_lambda", "pq_of_lambdamu", "multi_transform"))
@pytest.mark.parametrize("hint", (1e308j, -1.7e308j, 1e17, 2.0**52))
def test_pvi_branch_hint_without_a_fractional_lattice_bit_is_refused(call, hint):
    # rounding the hint's lattice coordinates overflowed (1e308j, -1.7e308j),
    # or the q returned near it kept no fractional bit (1e17 + 0.0945j)
    with pytest.raises(ValueError, match="keep no fractional bit"):
        call(hint)


_FAR_HINTS = (("VI", 0.5j, 2.0**40), ("V", 0.5 + 0.1j, 1e300j), ("III", 0.5 + 0.1j, 1e300j))


@pytest.mark.parametrize("call", (
    lambda eq, time, h: q_of_lambda(eq, 0.3 + 0.2j, time, branch_hint=h),
    lambda eq, time, h: pq_of_lambdamu(eq, 0.3 + 0.2j, 0.4, time, default_aux(eq),
                                       branch_hint=h),
    lambda eq, time, h: multi_transform(
        eq, "to_calogero", PhaseState((0.3 + 0.2j,), (0.4,),
                                      time_map_pvi(time) if eq == "VI" else time),
        default_aux(eq), EllipticContext(time) if eq == "VI" else None, branch_hints=(h,)),
), ids=("q_of_lambda", "pq_of_lambdamu", "multi_transform"))
@pytest.mark.parametrize("eq, time, hint", _FAR_HINTS, ids=[c[0] for c in _FAR_HINTS])
def test_branch_hint_too_far_out_to_keep_the_digits_of_q_is_refused(call, eq, time, hint):
    # the q nearest these hints maps back to 0.29995+0.20031i (VI),
    # 0.305-0.432i (V) and -0.207-0.295i (III), not to lambda = 0.3+0.2i
    with pytest.raises(ValueError, match="branch_hint=.* too far out"):
        call(eq, time, hint)


def test_to_painleve_refuses_a_vi_context_at_another_tau(rng):
    aux = default_aux("VI")
    st = sample_calogero_state("VI", 2, rng)
    with pytest.raises(ValueError, match="ctx.tau"):
        multi_transform("VI", "to_painleve", st, aux, EllipticContext(st.time + 0.01j))
    # the context at the state's tau is read, and gives what a fresh one gives
    assert (multi_transform("VI", "to_painleve", st, aux, EllipticContext(st.time))
            == multi_transform("VI", "to_painleve", st, aux))


# ---------------------------------------------------------------------------
# momentum maps
# ---------------------------------------------------------------------------

def test_mu_pii_value():
    aux = default_aux("II")
    assert mu_of_pq("II", 1, 0, 2, aux) == 2  # 0 + 1 + 1


def test_mu_piv_value():
    aux = default_aux("IV").__class__("IV", kappa0=0.5)
    mu = mu_of_pq("IV", 2, 0, 0, aux)
    assert abs(mu - 0.5) < 1e-15  # (1/4)(1 + 0 + 1)


def test_mu_pvi_termwise_oracle():
    tau = 0.13 + 1.17j
    ctx = EllipticContext(tau)
    aux = default_aux("VI")
    q, p = 0.21 + 0.26 * tau, 0.5 - 0.25j
    e1, e2, e3 = half_period_values(ctx)
    wp = weierstrass_p(q, ctx)
    pp = weierstrass_p_prime(q, ctx)
    _, _, ftau = f_and_derivatives(q, ctx)
    term1 = (e2 - e1) / pp * p
    term2 = TWO_PI_I * (e2 - e1) ** 2 / pp**2 * ftau
    term3 = (e2 - e1) / 2 * (aux.kappa0 / (wp - e1) + aux.kappa1 / (wp - e2)
                             + (aux.theta - 1) / (wp - e3))
    mu = mu_of_pq("VI", q, p, tau, aux)
    assert abs(mu - (term1 + term2 + term3)) < 1e-10


@pytest.mark.parametrize("eq", EQS)
def test_pq_round_trip(eq, rng):
    aux = default_aux(eq)
    st = sample_calogero_state(eq, 1, rng)
    q, p, T = st.coords[0], st.momenta[0], st.time
    lam = lambda_of_q(eq, q, T)
    mu = mu_of_pq(eq, q, p, T, aux)
    q2, p2 = pq_of_lambdamu(eq, lam, mu, T, aux, branch_hint=q)
    assert abs(q2 - q) < 1e-9
    assert abs(p2 - p) < 1e-9


def test_pq_of_lambdamu_pii_value():
    aux = default_aux("II")
    q, p = pq_of_lambdamu("II", 1, 2, 2, aux)
    assert q == 1 and abs(p) < 1e-15


def test_pq_round_trip_pv_with_hint(rng):
    aux = default_aux("V")
    for _ in range(5):
        q = complex(rng.uniform(0.4, 1.4), rng.uniform(0.1, 0.6))
        p = complex(rng.uniform(0.2, 0.8), rng.uniform(-0.3, 0.3))
        t = 0.83 + 0.21j
        lam = lambda_of_q("V", q, t)
        mu = mu_of_pq("V", q, p, t, aux)
        q2, p2 = pq_of_lambdamu("V", lam, mu, t, aux, branch_hint=q)
        assert abs(q2 - q) < 1e-9 and abs(p2 - p) < 1e-9


@pytest.mark.parametrize("q", (10, 30, 36, 60))
def test_mu_pv_at_large_q_against_mpmath(q):
    # lambda = coth^2(q/2) -> 1: lambda - 1 taken from lambda lost 2.8e-12,
    # 3.3e-4 and 9.1e-2 of mu at q = 10, 30, 36, and overflowed at q = 60
    import mpmath as mp

    aux = default_aux("V")
    p, t = 1, 1
    with mp.workdps(60):
        sqrt_lam = -mp.coth(mp.mpf(q) / 2)
        lam = sqrt_lam**2
        k0, th1, eta1 = (mp.mpc(complex(v)) for v in (aux.kappa0, aux.theta1, aux.eta1))
        ref = complex(p / (2 * sqrt_lam * (lam - 1))
                      + (k0 / lam + th1 / (lam - 1) - eta1 * t / (lam - 1) ** 2) / 2)
    assert abs(mu_of_pq("V", q, p, t, aux) - ref) <= 1e-14 * abs(ref)


def mp_wp(u, tau, derivative=False):
    """wp(u | 1, tau), or wp' with ``derivative``, from the sine series at
    the working precision of mpmath."""
    import mpmath as mp

    def term(z):
        s = mp.sin(mp.pi * z)
        return -2 * mp.pi**3 * mp.cos(mp.pi * z) / s**3 if derivative else mp.pi**2 / s**2

    total = term(u) if derivative else term(u) - mp.pi**2 / 3
    n = 1
    while True:
        t = term(u + n * tau) + term(u - n * tau)
        if not derivative:
            t -= 2 * mp.pi**2 / mp.sin(mp.pi * n * tau) ** 2
        total += t
        if abs(t) <= mp.mpf(10) ** (-mp.mp.dps - 5) * abs(total):
            return total
        n += 1


def mp_half_period_values(tau):
    """(e1, e2, e3) at the working precision, in the order of ``half_period_values``."""
    import mpmath as mp

    return [mp_wp(w, tau) for w in (mp.mpf(0.5), -(1 + tau) / 2, tau / 2)]


def mp_mu_pvi(q, p, tau, aux, dps=40):
    """The PVI momentum map at dps digits: wp and wp' from the sine series,
    f_tau = d lambda/d tau at fixed q by mpmath's numerical derivative."""
    import mpmath as mp

    with mp.workdps(dps):
        q, tau = mp.mpc(q), mp.mpc(tau)

        def lam(tau):
            e1, e2, _ = mp_half_period_values(tau)
            return (mp_wp(q, tau) - e1) / (e2 - e1)

        e1, e2, e3 = mp_half_period_values(tau)
        lam0, t = lam(tau), (e3 - e1) / (e2 - e1)
        f_u, f_tau = mp_wp(q, tau, True) / (e2 - e1), mp.diff(lam, tau)
        k0, k1, th = (mp.mpc(complex(v)) for v in (aux.kappa0, aux.kappa1, aux.theta))
        return complex(p / f_u + 2j * mp.pi * f_tau / f_u**2
                       + (k0 / lam0 + k1 / (lam0 - 1) + (th - 1) / (lam0 - t)) / 2)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_mu_pvi_refuses_next_to_a_half_period(k):
    # (wp(q) - e_k)/(e2 - e1) is lambda, lambda - 1 or lambda - t; within
    # about 1e-7 of omega_k it cancels to rounding, and |mu| read 4.9e16 near
    # omega_1 at all three d below, whatever the kappa0/lambda term's size
    from painleve_calogero.errors import MapSingularity

    tau, aux, p = complex(0.13, 1.17), default_aux("VI"), 0.1
    w = EllipticContext(tau).half_periods[k]
    for d in (1e-13, 1e-11, 1e-9):
        with pytest.raises(MapSingularity, match="fewer than 8 digits"):
            mu_of_pq("VI", w + d, p, tau, aux)
    # the inverse lands on the same q; at 1e-5, lambda is off the branch set
    with pytest.raises(MapSingularity, match="fewer than 8 digits"):
        pq_of_lambdamu("VI", lambda_of_q("VI", w + 1e-5, tau), 1, tau, aux, branch_hint=w + 1e-5)
    q = w + 1e-3
    ref = mp_mu_pvi(q, p, tau, aux)
    assert abs(mu_of_pq("VI", q, p, tau, aux) - ref) <= 1e-8 * abs(ref)


@pytest.mark.parametrize("call", (
    lambda aux: mu_of_pq("V", 0.5 + 0.2j, 1, 0.8, aux),
    lambda aux: pq_of_lambdamu("V", 1.45 + 0.35j, 0.4, 0.8, aux),
    lambda aux: multi_transform("V", "to_painleve", PhaseState((0.5 + 0.2j,), (1,), 0.8), aux),
    lambda aux: multi_transform("V", "to_calogero", PhaseState((1.45 + 0.35j,), (0.4,), 0.8), aux),
), ids=("mu_of_pq", "pq_of_lambdamu", "to_painleve", "to_calogero"))
def test_maps_refuse_aux_of_another_equation(call):
    call(default_aux("V"))
    with pytest.raises(ValueError, match="PV momentum map given parameters of PVI"):
        call(default_aux("VI"))


# ---------------------------------------------------------------------------
# multi-component transform
# ---------------------------------------------------------------------------

def test_multi_transform_rank1_matches_componentwise(rng):
    for eq in EQS:
        aux = default_aux(eq)
        st = sample_calogero_state(eq, 1, rng)
        ctx = EllipticContext(st.time) if eq == "VI" else None
        out = multi_transform(eq, "to_painleve", st, aux, ctx)
        lam = lambda_of_q(eq, st.coords[0], st.time)
        mu = mu_of_pq(eq, st.coords[0], st.momenta[0], st.time, aux)
        assert abs(out.coords[0] - lam) < 1e-14
        assert abs(out.momenta[0] - mu) < 1e-14


@pytest.mark.parametrize("rank", (1, 3))
@pytest.mark.parametrize("eq", EQS)
def test_fused_forward_map_matches_componentwise(eq, rank, rng):
    aux = default_aux(eq)
    st = sample_calogero_state(eq, rank, rng)
    ctx = EllipticContext(st.time) if eq == "VI" else None
    out = multi_transform(eq, "to_painleve", st, aux, ctx)
    lams = tuple(lambda_of_q(eq, q, st.time) for q in st.coords)
    mus = tuple(mu_of_pq(eq, q, p, st.time, aux) for q, p in zip(st.coords, st.momenta))
    if eq != "VI":
        assert (out.coords, out.momenta) == (lams, mus)
        return
    for got, want in zip(out.coords + out.momenta, lams + mus):
        assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("eq", EQS)
def test_nonfinite_arguments_are_refused(eq):
    aux = default_aux(eq)
    st = sample_calogero_state(eq, 1, np.random.default_rng(3))
    q, p, T = st.coords[0], st.momenta[0], st.time
    ctx = EllipticContext(T) if eq == "VI" else None
    for bad in (math.nan, math.inf, complex(0.1, -math.inf)):
        with pytest.raises(ValueError):
            lambda_of_q(eq, bad, T)
        with pytest.raises(ValueError):
            lambda_of_q(eq, q, bad)
        with pytest.raises(ValueError):
            mu_of_pq(eq, bad, p, T, aux)
        with pytest.raises(ValueError):
            mu_of_pq(eq, q, bad, T, aux)
        with pytest.raises(ValueError):
            mu_of_pq(eq, q, p, bad, aux)
        with pytest.raises(ValueError):
            multi_transform(eq, "to_painleve", PhaseState((q,), (bad,), T), aux, ctx)
    with pytest.raises(ValueError):
        time_map_pvi_inverse(math.nan, 1.2j)


def test_multi_transform_permutation_equivariance(rng):
    aux = default_aux("IV")
    st = sample_calogero_state("IV", 3, rng)
    perm = (1, 2, 0)
    st_p = PhaseState(tuple(st.coords[i] for i in perm),
                      tuple(st.momenta[i] for i in perm), st.time)
    a = multi_transform("IV", "to_painleve", st, aux)
    b = multi_transform("IV", "to_painleve", st_p, aux)
    for i, j in enumerate(perm):
        assert abs(b.coords[i] - a.coords[j]) < 1e-14
        assert abs(b.momenta[i] - a.momenta[j]) < 1e-14


def test_multi_transform_round_trip_vi(rng):
    aux = default_aux("VI")
    st = sample_calogero_state("VI", 2, rng)
    ctx = EllipticContext(st.time)
    img = multi_transform("VI", "to_painleve", st, aux, ctx)
    seed_ctx = EllipticContext(st.time + 0.03j)
    back = multi_transform("VI", "to_calogero", img, aux, seed_ctx,
                           branch_hints=st.coords)
    assert abs(back.time - st.time) < 1e-9
    for a, b in zip(back.coords, st.coords):
        assert abs(a - b) < 1e-8
    for a, b in zip(back.momenta, st.momenta):
        assert abs(a - b) < 1e-7


def test_to_calogero_shares_one_context_for_all_coordinates(rng, contexts):
    # the seed, one per Newton step of the time map (5 from 0.02 off), one
    # for the three coordinates
    aux = default_aux("VI")
    st = sample_calogero_state("VI", 3, rng)
    img = multi_transform("VI", "to_painleve", st, aux, EllipticContext(st.time))
    contexts[0] = 0
    multi_transform("VI", "to_calogero", img, aux, EllipticContext(st.time + 0.02j))
    assert contexts[0] <= 7


def test_pv_two_body_identity(rng):
    # per-pair rewrite of the hyperbolic pair potential in lambda variables
    for _ in range(10):
        q1 = complex(rng.uniform(0.4, 1.0), rng.uniform(0.1, 0.5))
        q2 = complex(rng.uniform(1.1, 1.7), rng.uniform(0.1, 0.5))
        l1, l2 = lambda_of_q("V", q1, 1.0), lambda_of_q("V", q2, 1.0)
        lhs = 1 / cmath.sinh((q1 - q2) / 2) ** 2 + 1 / cmath.sinh((q1 + q2) / 2) ** 2
        rhs = 2 * (l1 - 1) * (l2 - 1) * (l1 + l2) / (l1 - l2) ** 2
        assert abs(lhs - rhs) / abs(lhs) < 1e-10


def test_pvi_two_body_identity(rng):
    # wp(qj - qk) + wp(qj + qk) equals its lambda-form from the addition formula
    tau = 0.13 + 1.17j
    ctx = EllipticContext(tau)
    e1, e2, _ = half_period_values(ctx)
    t = time_map_pvi(tau)
    for _ in range(10):
        q1 = rng.uniform(0.08, 0.2) + rng.uniform(0.1, 0.2) * tau
        q2 = rng.uniform(0.26, 0.4) + rng.uniform(0.26, 0.4) * tau
        l1 = lambda_of_q("VI", q1, tau)
        l2 = lambda_of_q("VI", q2, tau)
        P1 = l1 * (l1 - 1) * (l1 - t)
        P2 = l2 * (l2 - 1) * (l2 - t)
        lhs = weierstrass_p(q1 - q2, ctx) + weierstrass_p(q1 + q2, ctx)
        rhs = -4 * e1 - 2 * (e2 - e1) * (l1 + l2) + 2 * (e2 - e1) * (P1 + P2) / (l1 - l2) ** 2
        assert abs(lhs - rhs) / abs(lhs) < 1e-9


@pytest.mark.parametrize("eq", EQS)
@pytest.mark.parametrize("rank", (1, 3))
def test_round_trip_invariant(eq, rank, rng):
    """(lambda, mu) <-> (q, p) round trips to 1e-9 at generic random points."""
    aux = default_aux(eq)
    for _ in range(50):
        st = sample_calogero_state(eq, rank, rng)
        ctx = EllipticContext(st.time) if eq == "VI" else None
        img = multi_transform(eq, "to_painleve", st, aux, ctx)
        seed_ctx = EllipticContext(st.time + 0.02j) if eq == "VI" else None
        back = multi_transform(eq, "to_calogero", img, aux, seed_ctx,
                               branch_hints=st.coords)
        for a, b in zip(back.coords + back.momenta, st.coords + st.momenta):
            assert abs(a - b) < 1e-9
        assert abs(back.time - st.time) < 1e-9


def test_multi_transform_collision_raises():
    from painleve_calogero.errors import TwoBodyCollision

    aux = default_aux("II")
    st = PhaseState((0.4, 0.4), (0.1, 0.2), 0.5)
    with pytest.raises(TwoBodyCollision):
        multi_transform("II", "to_painleve", st, aux)


def test_phase_state_length_mismatch():
    with pytest.raises(ValueError):
        PhaseState((1, 2), (1,), 0)


def test_time_map_inverse_failure_modes():
    from painleve_calogero.errors import MapSingularity, NoConvergence

    with pytest.raises(MapSingularity):
        time_map_pvi_inverse(0, 1.2j)
    with pytest.raises(MapSingularity):
        time_map_pvi_inverse(1, 1.2j)
    with pytest.raises(NoConvergence):
        # target far outside the reachable neighbourhood of this seed drives
        # Newton out of the upper half plane
        time_map_pvi_inverse(1e6, 0.001 + 0.05j)
    with pytest.raises(NoConvergence):
        # a seed below the tau floor is refused before any series
        time_map_pvi_inverse(0.5, 1e-300j)


def test_time_map_refuses_lost_e2_minus_e1():
    from painleve_calogero.errors import BadContext

    # e2 and e1 agree to about 1e-35 relative at tau = 0.05i
    with pytest.raises(BadContext):
        time_map_pvi(0.05j)
    with pytest.raises(BadContext):
        jacobian_dtau_dt(0.05j)


def test_pvi_maps_refuse_where_e2_minus_e1_keeps_6_digits():
    from painleve_calogero.errors import BadContext

    # |e2 - e1| is 1.0e-10 of max|e_j| at tau = 0.12i; both maps read 3.6e-7
    # relative off a 40-digit evaluation when e2 - e1 was taken there
    tau = 0.12j
    with pytest.raises(BadContext):
        lambda_of_q("VI", 0.2 + 0.3 * tau, tau)
    with pytest.raises(BadContext):
        time_map_pvi(tau)


@pytest.mark.parametrize("tau", (0.15j, 0.2j))
def test_pvi_maps_at_small_im_tau_against_mpmath(tau):
    # |e2 - e1| / max|e_j| is 1.9e-8 and 3.6e-6: past the refusal at 1e-8,
    # so 8 significant digits of e2 - e1, lambda and t survive
    import mpmath as mp

    q = 0.2 + 0.3 * tau
    with mp.workdps(40):
        mp_tau = mp.mpc(tau)
        e1, e2, e3 = mp_half_period_values(mp_tau)
        lam = complex((mp_wp(mp.mpc(q), mp_tau) - e1) / (e2 - e1))
        t = complex((e3 - e1) / (e2 - e1))
    assert abs(lambda_of_q("VI", q, tau) - lam) <= 1e-8 * abs(lam)
    assert abs(time_map_pvi(tau) - t) <= 1e-8 * abs(t)


def test_jacobian_refuses_t_rounded_to_one():
    from painleve_calogero.errors import BadContext

    # t(20i) is 1 to rounding, so t(t-1) is 0
    with pytest.raises(BadContext):
        jacobian_dtau_dt(20j)


@pytest.mark.parametrize("tau_seed", (3j, 20j))
def test_time_map_inverse_where_t_rounds_to_one(tau_seed):
    from painleve_calogero.errors import NoConvergence

    # Newton from 3i would step to about 126i, where t(tau) rounds to 1; at 20i it starts there
    with pytest.raises(NoConvergence):
        time_map_pvi_inverse(0.5, tau_seed)


def test_time_map_inverse_refuses_a_step_longer_than_im_tau():
    from painleve_calogero.errors import NoConvergence

    # the first step from 3i is about +123i; the refusal names the tau it starts from
    with pytest.raises(NoConvergence, match=r"from tau=3j ") as info:
        time_map_pvi_inverse(0.5, 3j)
    assert info.value.seed == 3j


@pytest.mark.parametrize("eq, call, q", (
    ("V", lambda aux: lambda_of_q("V", 2000, 1), 2000),
    ("V", lambda aux: mu_of_pq("V", 5000, 1, 1, aux), 5000),
    ("III", lambda aux: lambda_of_q("III", 1e8, 0.5 + 0.5j), 1e8),
    ("III", lambda aux: mu_of_pq("III", 800, 0, 1, aux), 800),
    ("III", lambda aux: pq_of_lambdamu("III", 1e300, 0.5, 1, aux), cmath.log(1e300)),
    ("III", lambda aux: mu_of_pq("III", -800, 1, 1, aux), -800),  # e^q underflows to 0
    ("IV", lambda aux: lambda_of_q("IV", 1e300, 1e-300), 1e300),
    ("IV", lambda aux: mu_of_pq("IV", 1e300, 1, 1, aux), 1e300),  # rest overflows silently
    ("IV", lambda aux: multi_transform("IV", "to_painleve", PhaseState((1e300,), (1,), 1), aux),
     1e300),
    ("IV", lambda aux: pq_of_lambdamu("IV", 1e300, 0.5, 1, aux), 2e150),  # p overflows
), ids=("lambda-V", "mu-V", "lambda-III", "mu-III", "pq-III", "mu-III-underflow", "lambda-IV",
        "mu-IV", "multi-IV", "pq-IV"))
def test_maps_leaving_the_double_range_raise_map_singularity(eq, call, q):
    from painleve_calogero.errors import MapSingularity

    with pytest.raises(MapSingularity, match=re.escape(f"q={complex(q)} ")):
        call(default_aux(eq))


def test_multi_transform_argument_validation(rng):
    aux = default_aux("VI")
    st = sample_calogero_state("VI", 1, rng)
    with pytest.raises(ValueError):
        multi_transform("VI", "sideways", st, aux)
    img = multi_transform("VI", "to_painleve", st, aux, EllipticContext(st.time))
    with pytest.raises(ValueError):
        multi_transform("VI", "to_calogero", img, aux)  # no tau seed
    with pytest.raises(ValueError):  # the forward map takes no branches
        multi_transform("VI", "to_painleve", st, aux, EllipticContext(st.time),
                        branch_hints=st.coords)
    two = PhaseState((1.45 + 0.35j, 2.1 + 0.3j), (0.4, 0.3), 0.8)
    with pytest.raises(ValueError):  # one hint for two components
        multi_transform("V", "to_calogero", two, default_aux("V"), branch_hints=(0.5,))
    for direction in ("to_painleve", "to_calogero"):  # PV..PI read no context
        with pytest.raises(ValueError):
            multi_transform("V", direction, two, default_aux("V"), EllipticContext(1j))


def test_bad_context_for_calogero_vi():
    from painleve_calogero import SystemDescriptor, hamiltonian
    from painleve_calogero.errors import BadContext

    sd = SystemDescriptor("VI", "calogero", params=default_aux("VI"))
    with pytest.raises(BadContext):
        hamiltonian(sd, PhaseState((0.2 + 0.3j,), (0.1,), 0.5))  # Im tau <= 0


@given(st.sampled_from(["V", "IV", "III"]),
       st.floats(0.3, 2.0), st.floats(-0.8, 0.8))
@settings(max_examples=60, deadline=None)
def test_lambda_q_inverse_property(eq, re, im):
    q = complex(re, im)
    t = 0.8 + 0.2j
    lam = lambda_of_q(eq, q, t)
    q_back = q_of_lambda(eq, lam, t, branch_hint=q)
    assert abs(lambda_of_q(eq, q_back, t) - lam) <= 1e-9 * max(1.0, abs(lam))
    assert abs(q_back - q) <= 1e-9 * max(1.0, abs(q))
