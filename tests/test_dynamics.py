import cmath
import json
import math
import re

import numpy as np
import pytest

from painleve_calogero import (
    AuxParams,
    PhaseState,
    SystemDescriptor,
    integrate,
    painleve_ode_rhs,
    painleve_residual,
)
from painleve_calogero import dynamics
from painleve_calogero.dynamics import COMPLETED, MAX_STEPS, POLE_DETECTED, Trajectory
from painleve_calogero.errors import BadContext, CoordinateSingularity, PoleAt
from painleve_calogero.systems import canonical_field
from painleve_calogero.verify.correspondence import default_aux, sample_calogero_state
from tests.conftest import painleve_state, run_without_numpy

# (t0, t1, lambda0) arcs with comfortable residual margins
RESIDUAL_CASES = {
    "VI": (2.2 + 0.4j, 2.8 + 0.6j, 1.45 + 0.35j),
    "V": (0.83 + 0.21j, 1.4 + 0.4j, 1.45 + 0.35j),
    "IV": (0.62 + 0.18j, 0.62 + 0.18j + 0.48 * (1 + 0.5j) / abs(1 + 0.5j), 0.9 + 0.25j),
    "III": (0.91 + 0.24j, 1.5 + 0.4j, 1.45 + 0.35j),
    "II": (0.54 + 0.13j, 1.1 + 0.3j, 1.45 + 0.35j),
    "I": (0.1 + 0j, 0.7 + 0j, 0.2 + 0.1j),
}


def _endpoint(traj):
    st = traj.samples[-1][1]
    return np.array(list(st.coords) + list(st.momenta))


def test_zero_interval_returns_initial():
    sd = SystemDescriptor("I", "painleve")
    st = PhaseState((0.3,), (0.4,), 1.0)
    traj = integrate(sd, st, 1.0)
    assert traj.termination == COMPLETED
    assert traj.samples == [(1.0 + 0j, st)]


def test_pi_second_difference_residual():
    sd = SystemDescriptor("I", "painleve")
    st = PhaseState((0.2 + 0.1j,), (0.3,), 0.1)
    traj = integrate(sd, st, 0.7, 1e-10, 1e-12)
    # second differences of the resampled lambda(t), Richardson-combined at
    # steps h and 2h to beat their own h^2 truncation
    times, states = traj.resample(81)
    h = (times[-1] - times[0]) / 80
    worst = 0.0
    for i in range(2, 79):
        d2_h = (states[i + 1][0] - 2 * states[i][0] + states[i - 1][0]) / h**2
        d2_2h = (states[i + 2][0] - 2 * states[i][0] + states[i - 2][0]) / (2 * h) ** 2
        second = (4 * d2_h - d2_2h) / 3
        worst = max(worst, abs(second - (6 * states[i][0] ** 2 + times[i])))
    assert worst < 1e-6
    res = painleve_residual(traj)
    assert type(res) is float and res < 1e-5


def test_a_nan_dense_segment_is_refused_where_it_serves():
    sd = SystemDescriptor("I", "painleve")
    traj = integrate(sd, PhaseState((0.1,), (0.1,), 0), 0.5, 1e-10, 1e-12)
    assert painleve_residual(traj) < 1e-5
    mid = len(traj._dense) // 2
    s0, s1, y0, *rest = traj._dense[mid]
    traj._dense[mid] = (s0, s1, np.full(len(y0), np.nan + 0j), *rest)
    # the retaken step's first stage refuses the grid points in (s0, s1],
    # and only they
    grid = np.linspace(0.0, traj._dense[-1][1], 41)
    served = (s0 < grid) & (grid <= s1)
    assert served.sum() == 9
    with pytest.raises(CoordinateSingularity):
        traj.interpolate(grid[served][0])
    with pytest.raises(CoordinateSingularity):
        painleve_residual(traj)
    assert all(np.isfinite(traj.interpolate(s)).all() for s in grid[~served])


def test_tolerance_scaling_on_pii():
    sd = SystemDescriptor("II", "painleve", params=default_aux("II"))
    st = PhaseState((0.3 + 0.1j,), (0.2 - 0.05j,), 0.4 + 0.1j)
    t_end = 1.2 + 0.3j
    ref = _endpoint(integrate(sd, st, t_end, 1e-12, 1e-14))
    err = {}
    for tol in (1e-6, 1e-8):
        err[tol] = float(np.max(np.abs(_endpoint(integrate(sd, st, t_end, tol, tol * 1e-2)) - ref)))
    # reducing rel_tol by 100x must reduce the endpoint error at least 4x,
    # and the reduction should track tol^(8/9) (order 8) within a factor 3
    ratio = err[1e-6] / err[1e-8]
    assert ratio >= 4
    expected = 100 ** (8 / 9)
    assert expected / 3 < ratio < expected * 3


def test_observed_order_on_pii():
    # fixed DOP853 steps of 1/128 and 1/256 of t in [0, -20], where PII
    # oscillates, in the path parameter s = t / -20 as integrate takes them
    sd = SystemDescriptor("II", "painleve", params=default_aux("II"))
    st = PhaseState((0.3 + 0.1j,), (0.2 - 0.05j,), 0.0)
    ref = _endpoint(integrate(sd, st, -20.0, 1e-13, 1e-15))

    def rhs(s, y):
        dq, dp = canonical_field(sd, PhaseState(y[:1], y[1:], -20.0 * s))
        return [-20.0 * d for d in dq + dp]

    err = {}
    for steps in (128, 256):
        y = [*st.coords, *st.momenta]
        for i in range(steps):
            y, _ = dynamics._step(rhs, i / steps, y, 1 / steps, rhs(i / steps, y))
        err[steps] = float(np.max(np.abs(np.array(y) - ref)))
    assert err[256] > 1e-12  # well above the reference's own error
    assert np.log2(err[128] / err[256]) >= 7.5


@pytest.mark.parametrize("eq", sorted(RESIDUAL_CASES))
def test_painleve_residuals(eq):
    t0, t1, lam0 = RESIDUAL_CASES[eq]
    sd = SystemDescriptor(eq, "painleve", params=default_aux(eq))
    st = PhaseState((lam0,), (0.4 - 0.1j,) if eq != "I" else (0.3,), t0)
    traj = integrate(sd, st, t1, 1e-10, 1e-12)
    assert traj.termination == COMPLETED
    tol = 1e-4 if eq in ("III", "IV") else 1e-4
    assert painleve_residual(traj) < tol


def test_constant_zero_fake_trajectory_detects_wrong_dynamics():
    sd = SystemDescriptor("I", "painleve")
    t0, t1 = 1.0, 1.1
    n = 25
    samples = []
    dense = []
    zero = [0j, 0j]
    for i in range(n):
        s = i / (n - 1)
        t = t0 + s * (t1 - t0)
        samples.append((t, PhaseState((0,), (0,), t)))
        if i:
            dense.append(((i - 1) / (n - 1), s, zero, zero))
    # the dense output follows a zero field, not the PI flow
    traj = Trajectory(SystemDescriptor("I", "painleve"), samples, 1e-8, 1e-10,
                      COMPLETED, _dense=dense, _field=lambda s, y: [0j] * len(y))
    res = painleve_residual(traj)
    # residual of lambda = 0 is |0 - (6*0 + t)| = |t|, maximized over the
    # interior of the resampled grid
    times, _ = traj.resample(41)
    expected = max(abs(times[i]) for i in range(2, 39))
    assert abs(res - expected) < 1e-12


def test_interpolate_returns_every_sample_exactly(rng):
    pii = SystemDescriptor("II", "painleve", params=default_aux("II"))
    pvi = SystemDescriptor("VI", "calogero", 3, 0.7, default_aux("VI"))
    st = sample_calogero_state("VI", 3, rng)
    for traj in (integrate(pii, PhaseState((0.3 + 0.1j,), (0.2 - 0.05j,), 0.4 + 0.1j), 40.4 + 0.1j),
                 integrate(pvi, st, st.time + 0.01 * (1 + 0.2j), 1e-10, 1e-10)):
        assert len(traj._dense) == traj.n_accepted > 2
        ends = [0.0] + [seg[1] for seg in traj._dense]
        for s, (_, state) in zip(ends, traj.samples, strict=True):
            assert list(traj.interpolate(s)) == list(state.coords + state.momenta)


def test_painleve_residual_refuses_a_trajectory_without_a_step():
    sd = SystemDescriptor("I", "painleve")
    st = PhaseState((0.1,), (0.1,), 0.0)
    # a few steps are enough: the residual reads the dense output
    few = integrate(sd, st, 0.05, 1e-6, 1e-8)
    assert few.n_accepted == 2 and painleve_residual(few) < 1e-9
    for traj in (integrate(sd, st, 0.0), integrate(sd, st, 0.05, max_steps=0)):
        assert traj.n_accepted == 0
        with pytest.raises(ValueError):
            painleve_residual(traj)


def test_painleve_residual_refuses_a_coupled_system():
    # each component of a coupled system obeys no scalar Painleve equation
    for g4sq in (0j, 0.7):
        sd = SystemDescriptor("II", "painleve", 3, g4sq, default_aux("II"))
        st = PhaseState((1.45 + 0.35j, 1.1 + 0.5j, 0.8 + 0.2j), (0.4 - 0.1j, 0.3, 0.2j),
                        0.54 + 0.13j)
        traj = integrate(sd, st, st.time + 0.3, 1e-10, 1e-12)
        assert traj.completed
        if g4sq:
            with pytest.raises(ValueError):
                painleve_residual(traj)
        else:
            assert painleve_residual(traj) < 1e-4


def test_interpolate_refuses_s_outside_the_arc():
    sd = SystemDescriptor("I", "painleve")
    st = PhaseState((0.2 + 0.1j,), (0.3,), 0.0)
    traj = integrate(sd, st, 0.5)
    assert traj._dense[-1][1] == 1.0
    for s in (3.0, -0.5, 1.0 + 1e-12, np.nan, np.inf):
        with pytest.raises(ValueError):
            traj.interpolate(s)
    # one with no step holds only s = 0
    still = integrate(sd, st, 0.0)
    assert list(still.interpolate(0.0)) == [0.2 + 0.1j, 0.3]
    with pytest.raises(ValueError):
        still.interpolate(0.5)


@pytest.mark.parametrize("n", [2.5, "4", None, 0, 1, True, -3])
def test_resample_refuses_n_that_is_not_an_integer_of_at_least_2(n):
    traj = integrate(SystemDescriptor("I", "painleve"), PhaseState((0.2,), (0.3,), 0.0), 0.5)
    with pytest.raises(ValueError, match="n must be"):
        traj.resample(n)


def test_resample_takes_numpy_integers_and_spans_the_arc():
    traj = integrate(SystemDescriptor("I", "painleve"), PhaseState((0.2,), (0.3,), 0.0), 0.5)
    times, states = traj.resample(np.int64(2))
    assert type(times) is type(states) is type(states[0]) is tuple
    assert list(times) == [0.0, 0.5]
    assert list(map(list, states)) == [[0.2, 0.3], list(traj.samples[-1][1].coords
                                                        + traj.samples[-1][1].momenta)]


def test_pole_detection_on_pi_blowup():
    sd = SystemDescriptor("I", "painleve")
    traj = integrate(sd, PhaseState((1,), (1,), 0), 6.0, 1e-9, 1e-11)
    assert traj.termination == POLE_DETECTED
    # pole sits near t ~ 1.08 for this initial condition
    assert abs(traj.samples[-1][0] - 1.078) < 0.05
    assert len(traj.samples) > 10  # partial trajectory retained


def test_max_steps_tag():
    sd = SystemDescriptor("I", "painleve")
    traj = integrate(sd, PhaseState((0.2,), (0.3,), 0.0), 5.0, 1e-12, 1e-14, max_steps=3)
    assert traj.termination == "max_steps"
    assert traj.n_accepted + traj.n_rejected == 3  # step attempts are budgeted


def test_run_ending_on_its_last_attempt_is_completed():
    sd = SystemDescriptor("I", "painleve")
    st = PhaseState((0.2,), (0.3,), 0.0)
    free = integrate(sd, st, 0.05)
    attempts = free.n_accepted + free.n_rejected
    assert free.completed and attempts == 2
    last = integrate(sd, st, 0.05, max_steps=attempts)
    assert last.termination == COMPLETED
    assert last.samples == free.samples
    short = integrate(sd, st, 0.05, max_steps=attempts - 1)
    assert short.termination == "max_steps" and short.samples[-1][0] != 0.05


# fixed singular times of the time variable per (equation, side); none elsewhere
SINGULAR_TIMES = {("VI", "painleve"): (0, 1), ("V", "painleve"): (0,), ("V", "calogero"): (0,),
                  ("III", "painleve"): (0,), ("III", "calogero"): (0,)}


@pytest.mark.parametrize("eq", ("VI", "V", "IV", "III", "II", "I"))
@pytest.mark.parametrize("side", ("painleve", "calogero"))
def test_fixed_singularity_guard(eq, side, rng):
    sd = SystemDescriptor(eq, side, params=default_aux(eq))
    expected = SINGULAR_TIMES.get((eq, side), ())
    assert sd.singular_times == expected

    def start(time):
        return painleve_state(eq, 1, rng, time) if side == "painleve" \
            else sample_calogero_state(eq, 1, rng, time)

    for b in expected:
        with pytest.raises(CoordinateSingularity):
            integrate(sd, start(b - 0.5 + 0j), b + 0.5)  # segment passes through t = b
    if (eq, side) == ("VI", "calogero"):
        # the time variable is tau: a segment through tau = 0 leaves Im tau > 0
        with pytest.raises(BadContext):
            integrate(sd, start(-0.5 + 0.5j), 0.5 - 0.5j)
    elif not expected:
        traj = integrate(sd, start(-0.5 + 0j), 0.5, max_steps=1)
        assert traj.termination == MAX_STEPS


def test_calogero_vi_integration_runs(rng):
    aux = default_aux("VI")
    sd = SystemDescriptor("VI", "calogero", params=aux)
    st = sample_calogero_state("VI", 1, rng)
    traj = integrate(sd, st, st.time + 0.1j, 1e-9, 1e-11)
    assert traj.termination == COMPLETED
    assert traj.samples[-1][0] == st.time + 0.1j


def test_painleve_ode_rhs_matches_hamiltonian_flow():
    # lambda'' along the canonical flow equals the printed equation's RHS
    from painleve_calogero import hamiltonian_gradients

    for eq in ("VI", "V", "IV", "III", "II", "I"):
        sd = SystemDescriptor(eq, "painleve", params=default_aux(eq))
        st = PhaseState((1.45 + 0.35j,), (0.4 - 0.1j,), 0.83 + 0.21j)

        def lamdot(state):
            return hamiltonian_gradients(sd, state)[1][0]

        dl, dm = hamiltonian_gradients(sd, st)
        ldot, mdot = dm[0], -dl[0]
        h = 1e-6
        lam, mu, t = st.coords[0], st.momenta[0], st.time
        ldd = ((lamdot(PhaseState((lam + h,), (mu,), t))
                - lamdot(PhaseState((lam - h,), (mu,), t))) / (2 * h) * ldot
               + (lamdot(PhaseState((lam,), (mu + h,), t))
                  - lamdot(PhaseState((lam,), (mu - h,), t))) / (2 * h) * mdot
               + (lamdot(PhaseState((lam,), (mu,), t + h))
                  - lamdot(PhaseState((lam,), (mu,), t - h))) / (2 * h))
        rhs = painleve_ode_rhs(lam, ldot, t, sd.painleve_params())
        assert abs(ldd - rhs) / max(1.0, abs(rhs)) < 1e-6


def test_pvi_calogero_segment_leaving_upper_half_plane_is_refused(rng, no_field_calls):
    # before any field call, also when it ends above Im tau = 0 but below the
    # floor Im tau >= 1e-3, where a series would run ~10^4 terms per side
    sd = SystemDescriptor("VI", "calogero", params=default_aux("VI"))
    st = sample_calogero_state("VI", 1, rng, time=0.1 + 0.2j)
    for t_end in (0.1 - 0.2j, 0.1 + 5e-4j):
        with pytest.raises(BadContext):
            integrate(sd, st, t_end, max_steps=10)


@pytest.mark.parametrize("t0", (0.1 - 0.2j, 0.1 + 5e-4j))
def test_pvi_calogero_segment_starting_at_a_refused_tau_is_refused(t0, rng, no_field_calls):
    # the segment's start is tested with its end, before any field call
    sd = SystemDescriptor("VI", "calogero", params=default_aux("VI"))
    st = sample_calogero_state("VI", 1, rng, time=0.1 + 0.2j)
    start = PhaseState(st.coords, st.momenta, t0)
    with pytest.raises(BadContext, match=re.escape(f"got tau={t0}")):
        integrate(sd, start, 0.1 + 0.3j, max_steps=10)


def _reference_step_loop(sys, initial, t_end, rel_tol, abs_tol):
    """Reference: the DOP853 loop in plain complex arithmetic over the full
    tableau, zero coefficients included (they leave a finite sum as it is),
    with its starting step (HINIT of dop853.f), error estimate, step-size
    controller and singular rejections written out again.  Returns
    (samples, n_accepted, n_rejected, n_rhs, termination)."""
    A, B, C, E5, E3 = dynamics._A, dynamics._B, dynamics._C, dynamics._E5, dynamics._E3
    t0, n = complex(initial.time), len(initial.coords)
    span = complex(t_end) - t0
    samples, counts = [(t0, initial)], {"acc": 0, "rej": 0, "rhs": 0}
    singular_errors = (CoordinateSingularity, PoleAt, OverflowError, ZeroDivisionError)

    def rhs(s, y):  # every call counts, one the field refuses too
        counts["rhs"] += 1
        dq, dp = canonical_field(sys, PhaseState(tuple(y[:n]), tuple(y[n:]), t0 + s * span))
        return [span * v for v in list(dq) + list(dp)]

    def weighted(coeffs, k, c):  # coeffs[0] k[0][c] + coeffs[1] k[1][c] + ..., from 0j
        acc = 0j
        for a, kj in zip(coeffs, k):
            acc += a * kj[c]
        return acc

    def modulus(z):
        return math.hypot(z.real, z.imag)

    def done(termination):
        return samples, counts["acc"], counts["rej"], counts["rhs"], termination

    def start(y, f0):  # HINIT at order 8, on the requested tolerance, at most 1
        scales = [abs_tol + rel_tol * modulus(v) for v in y]

        def norm(v):
            sq = 0.0
            for c in range(2 * n):
                r = modulus(v[c]) / scales[c]
                sq += r * r
            return math.sqrt(sq)

        d0, d1 = norm(y), norm(f0)
        finite = 1e-5 < d0 < math.inf and 1e-5 < d1 < math.inf
        h0 = min(0.01 * d0 / d1, 1.0) if finite else 1e-6
        try:
            f1 = rhs(h0, [y[c] + h0 * f0[c] for c in range(2 * n)])
        except singular_errors:  # a refused probe starts at h0
            return h0
        der12 = max(norm([f1[c] - f0[c] for c in range(2 * n)]) / h0, d1)
        if not der12 < math.inf:
            return h0
        h1 = max(1e-6, h0 * 1e-3) if der12 <= 1e-15 else (0.01 / der12) ** (1 / 8)
        return min(100 * h0, h1, 1.0)

    y = list(initial.coords) + list(initial.momenta)
    s, rejected, f_now = 0.0, False, rhs(0.0, y)
    h = start(y, f_now)
    k = [None] * 12
    while s < 1.0:
        h = min(h, 1.0 - s)
        if h < dynamics._MIN_STEP_FRACTION:
            return done(dynamics.STEP_UNDERFLOW)
        s_new = s + h
        h = s_new - s
        k[0], err = f_now, math.inf
        try:
            for i in range(1, 12):
                k[i] = rhs(s + C[i] * h, [y[c] + h * weighted(A[i], k, c) for c in range(2 * n)])
            y_new = [y[c] + h * weighted(B, k, c) for c in range(2 * n)]
            if all(cmath.isfinite(v) for v in y_new):
                sq5 = sq3 = 0.0
                for c in range(2 * n):
                    scale = 0.1 * (abs_tol + rel_tol * max(modulus(y[c]), modulus(y_new[c])))
                    r5 = modulus(weighted(E5, k, c)) / scale
                    r3 = modulus(weighted(E3, k, c)) / scale
                    sq5 += r5 * r5
                    sq3 += r3 * r3
                err = 0.0 if sq5 == 0 else h * sq5 / math.sqrt((sq5 + 0.01 * sq3) * 2 * n)
            if err <= 1.0:
                if max(map(modulus, y_new)) > dynamics.BLOWUP_LIMIT:
                    return done(POLE_DETECTED)
                f_now = rhs(s_new, y_new)
        except singular_errors:
            err = math.inf
        if err <= 1.0:
            s, y = s_new, y_new
            samples.append((t0 + s * span, PhaseState(tuple(y[:n]), tuple(y[n:]), t0 + s * span)))
            counts["acc"] += 1
            # growth up to 1e4 after the first accepted step, 6 after any other
            fac_max = 1e4 if counts["acc"] == 1 else 6.0
            fac = fac_max if err == 0 else min(fac_max, max(0.333, 0.9 * err ** (-1 / 8)))
            h *= min(1.0, fac) if rejected else fac
            rejected = False
        else:
            counts["rej"] += 1
            h *= 0.2 if not math.isfinite(err) else max(0.333, 0.9 * err ** (-1 / 8))
            rejected = True
    return done(COMPLETED)


def _oracle_cases(rng):
    # a probe and stages the field refuses, until the step underflows
    yield (SystemDescriptor("I", "painleve"), PhaseState((0.3 + 0.1j,), (0.2 + 0.1j,), 0.5 + 0.1j),
           1e200, 1e-8, 1e-10)
    pii = SystemDescriptor("II", "painleve", params=default_aux("II"))
    yield pii, PhaseState((0.3 + 0.1j,), (0.2 - 0.05j,), 0.4 + 0.1j), 1.2 + 0.3j, 1e-10, 1e-12
    # a long first step that the error estimate rejects
    yield pii, PhaseState((0.3 + 0.1j,), (0.2 - 0.05j,), 0.4 + 0.1j), 40.4 + 0.1j, 1e-8, 1e-10
    # movable pole of PI
    yield SystemDescriptor("I", "painleve"), PhaseState((1,), (1,), 0), 6.0, 1e-9, 1e-11
    pvi = SystemDescriptor("VI", "calogero", 3, 0.7, default_aux("VI"))
    st = sample_calogero_state("VI", 3, rng)
    yield pvi, st, st.time + 0.01 * (1 + 0.2j), 1e-10, 1e-10


def test_step_loop_matches_reference(rng):
    rejected = 0
    for sd, st, t_end, rel_tol, abs_tol in _oracle_cases(rng):
        traj = integrate(sd, st, t_end, rel_tol, abs_tol)
        samples, n_acc, n_rej, n_rhs, termination = _reference_step_loop(
            sd, st, t_end, rel_tol, abs_tol)
        assert traj.termination == termination
        assert traj.samples == samples
        assert (traj.n_accepted, traj.n_rejected, traj.n_rhs) == (n_acc, n_rej, n_rhs)
        rejected += n_rej
    assert rejected > 0


def test_fsal_field_call_count():
    sd = SystemDescriptor("II", "painleve", params=default_aux("II"))
    traj = integrate(sd, PhaseState((0.3 + 0.1j,), (0.2 - 0.05j,), 0.4 + 0.1j), 40.4 + 0.1j)
    assert traj.completed and traj.n_rejected > 0 and traj.n_rejected_singular == 0
    # the field at the start and the starting-step probe, then 11 field calls
    # per rejected step and also the 13th stage per accepted one
    assert traj.n_rhs == 2 + 11 * (traj.n_accepted + traj.n_rejected) + traj.n_accepted


def test_pvi_rank3_arc_field_call_budget(rng):
    # the rank-3 tau-arc of _oracle_cases: the starting step and the growth
    # bound of the first step take it in 5 accepted steps and 1 rejected one
    # (73 field calls); a start at 1 % of the segment ramping up by 6 per
    # step took 6 and 1 (84)
    sd, st, t_end, rel_tol, abs_tol = list(_oracle_cases(rng))[-1]
    traj = integrate(sd, st, t_end, rel_tol, abs_tol)
    assert traj.completed and traj.n_rhs <= 73


def test_first_step_follows_the_field_not_the_segment():
    # on segments much longer than it, the start is 100 times the Euler guess
    # 0.01 |y0| / |f0|, a length in t that the segment does not change
    sd = SystemDescriptor("II", "painleve", params=default_aux("II"))
    st = PhaseState((0.3 + 0.1j,), (0.2 - 0.05j,), 0.4 + 0.1j)
    first = []
    for length in (20.0, 40.0):
        traj = integrate(sd, st, st.time + length, 1e-8, 1e-10, max_steps=4)
        dt = traj.samples[1][0] - traj.samples[0][0]
        assert abs(dt) < length / 20  # much shorter than either segment
        first.append(dt)
    # a start at 1 % of each segment accepted 0.2 and, after a rejection, 0.253
    assert abs(first[0] - first[1]) <= 1e-12 * abs(first[0])


def test_a_field_raising_on_the_probe_does_not_escape(monkeypatch):
    calls = []

    def field(*args):
        calls.append(None)
        if len(calls) == 2:  # the starting-step probe
            raise CoordinateSingularity("raised at the probe")
        return canonical_field(*args)

    monkeypatch.setattr(dynamics, "canonical_field", field)
    traj = integrate(SystemDescriptor("I", "painleve"), PhaseState((0.2,), (0.3,), 0.0), 0.05)
    assert traj.completed and traj.n_rejected == 0
    # the refused probe is counted
    assert traj.n_rhs == len(calls) == 2 + 12 * traj.n_accepted


def test_max_steps_zero_makes_one_field_call(monkeypatch):
    calls = []

    def field(*args):
        calls.append(None)
        return canonical_field(*args)

    monkeypatch.setattr(dynamics, "canonical_field", field)
    traj = integrate(SystemDescriptor("I", "painleve"), PhaseState((0.2,), (0.3,), 0.0), 0.5,
                     max_steps=0)
    assert traj.termination == MAX_STEPS and traj.n_rhs == len(calls) == 1


def test_starting_step_leaves_out_a_zero_error_scale():
    # abs_tol = 0 at a component that is 0: its scale is 0, and the estimate
    # measures the other component alone, or none
    def rhs(s, y):
        return [0.5 * y[0], 0j]

    for y in ([0.3 + 0j, 0j], [0j, 0j]):
        h = dynamics._initial_step(rhs, y, rhs(0.0, y), 1e-8, 0.0)
        assert 0 < h <= 1 and math.isfinite(h)
    # only the zero component has a scale of 0: its field is held out too
    assert dynamics._initial_step(rhs, [0.3 + 0j, 0j], [0.15 + 0j, 1.0 + 0j], 1e-8, 0.0) == \
        dynamics._initial_step(rhs, [0.3 + 0j, 0j], [0.15 + 0j, 0j], 1e-8, 0.0)


def test_singular_rejections_are_counted(monkeypatch):
    # the field's scaled norm overflows on this span, so the run starts at
    # 1e-6 of it; the first steps overflow inside the stages, and they are
    # rejected as singular until the step underflows
    calls = []

    def field(*args):
        calls.append(None)
        return canonical_field(*args)

    monkeypatch.setattr(dynamics, "canonical_field", field)
    sd = SystemDescriptor("I", "painleve")
    traj = integrate(sd, PhaseState((0.3 + 0.1j,), (0.2 + 0.1j,), 0.5 + 0.1j), 1e200)
    assert traj.termination == "step_underflow"
    assert 0 < traj.n_rejected_singular <= traj.n_rejected
    # a stage that raises ends its step early
    assert traj.n_rhs < 1 + 11 * (traj.n_accepted + traj.n_rejected) + traj.n_accepted
    # and is counted: the probe and the first stage of each of the 11
    # rejected steps raise, so only the field at the start returns
    assert traj.n_rejected_singular == 11
    assert traj.n_rhs == len(calls) == 13


def test_field_raising_at_the_accepted_point_rejects_the_step(monkeypatch):
    calls = []

    def field(*args):
        calls.append(None)
        if len(calls) == 14:  # the first step's thirteenth stage, after the probe
            raise CoordinateSingularity("raised at the accepted point")
        return canonical_field(*args)

    monkeypatch.setattr(dynamics, "canonical_field", field)
    sd = SystemDescriptor("I", "painleve")
    traj = integrate(sd, PhaseState((0.2,), (0.3,), 0.0), 0.05)
    assert traj.completed and traj.n_rejected == traj.n_rejected_singular == 1
    # the refused thirteenth stage is counted
    assert traj.n_rhs == len(calls) == 2 + 11 * (traj.n_accepted + 1) + traj.n_accepted + 1


def test_overflow_in_a_step_is_a_singular_rejection():
    # the PII field at alpha = -1/2 vanishes at (0, 0, t = 0), so the run
    # starts at 1e-6 of the span; at the first stage d lambda/dt = -t/2, the
    # span product overflows to inf without raising, and the field refuses
    # the non-finite stage it feeds
    sd = SystemDescriptor("II", "painleve", params=AuxParams("II", alpha=-0.5))
    traj = integrate(sd, PhaseState((0,), (0,), 0), 1e200, max_steps=5)
    assert traj.termination == "max_steps"
    assert traj.n_rejected == traj.n_rejected_singular == 5


def test_stage_beyond_the_cell_reduction_is_a_singular_rejection():
    # p = 1e150 moves the PVI coordinate of the first stage to about 1e145,
    # where the cell reduction keeps no fractional bit; the field refuses it
    sd = SystemDescriptor("VI", "calogero", params=default_aux("VI"))
    traj = integrate(sd, PhaseState((0.2 + 0.3j,), (1e150,), 0.1 + 1j), 0.1 + 1.3j)
    assert traj.termination == dynamics.STEP_UNDERFLOW and traj.n_accepted == 0
    assert traj.n_rejected == traj.n_rejected_singular > 0


def test_initial_momentum_with_overflowing_modulus_is_refused_by_the_field():
    # |1.5e308 - 1.5e308i| overflows: the step's moduli read inf rather than
    # raise, and the field refuses the state
    with pytest.raises(CoordinateSingularity):
        integrate(SystemDescriptor("I", "painleve"),
                  PhaseState((0.1,), (1.5e308 - 1.5e308j,), 0.5), 1.0)


def test_overflowing_error_sums_reject_the_step(monkeypatch):
    # stages 0, 8, 9, 10 of +-BIG: the 8th-order update stays finite, while
    # each error sum has parts near 1.4e308 and an overflowing modulus
    big = 1.79e308 * (1 + 1j)
    stages = {0: big, 8: -big, 9: big, 10: big}
    calls = []

    def field(sys, state):  # stage i of every step, after the initial call and the probe
        i = (len(calls) - 2) % 11 + 1 if len(calls) > 1 else 0
        calls.append(i)
        return (stages.get(i, 0j),), (stages.get(i, 0j),)

    k = [[stages.get(i, 0j)] * 2 for i in range(12)]
    assert math.isnan(dynamics._error_norm(0.01, k, [1.0, 1.0], 1e-8, 1e-10))
    monkeypatch.setattr(dynamics, "canonical_field", field)
    traj = integrate(SystemDescriptor("I", "painleve"), PhaseState((0.2,), (0.3,), 0.0), 1.0,
                     max_steps=3)
    assert traj.termination == MAX_STEPS
    assert traj.n_rejected == 3 and traj.n_rejected_singular == 0


def test_zero_error_scale_does_not_raise():
    # mu = 0 is invariant for PII at alpha = -1/2, so with abs_tol = 0 its
    # error scale is 0; its error sums are exactly 0 too, so it counts as
    # exact and the other component alone sets the step
    sd = SystemDescriptor("II", "painleve", params=AuxParams("II", alpha=-0.5))
    traj = integrate(sd, PhaseState((0.3,), (0,), 0.1), 1.0, abs_tol=0)
    assert traj.termination == COMPLETED
    assert traj.n_rejected_singular == 0
    assert all(state.momenta == (0j,) for _, state in traj.samples)


def test_zero_error_scale_with_a_nonzero_error_rejects_the_step():
    # a component at 0 with abs_tol = 0 whose error sums are not 0 has no
    # scale to measure them against: NaN, so the step is rejected
    k = [[0j, 0j] for _ in range(13)]
    assert dynamics._error_norm(0.1, k, [1.0, 0.0], 1e-8, 0.0) == 0.0
    j, _ = dynamics._E5_PAIRS[0]
    k[j][1] = 1e-20 + 0j
    assert math.isnan(dynamics._error_norm(0.1, k, [1.0, 0.0], 1e-8, 0.0))


@pytest.mark.parametrize("kwargs", [
    dict(rel_tol=0, abs_tol=0), dict(rel_tol=float("nan")), dict(rel_tol=-1e-8),
    dict(rel_tol=float("inf")), dict(abs_tol=-1e-10), dict(abs_tol=float("nan")),
])
def test_bad_tolerances_are_refused(kwargs, monkeypatch):
    calls = []
    monkeypatch.setattr(dynamics, "canonical_field", lambda *args: calls.append(args))
    sd = SystemDescriptor("I", "painleve")
    st = PhaseState((0.2,), (0.3,), 0.0)
    for t_end in (1.0, 0.0):
        with pytest.raises(ValueError):
            integrate(sd, st, t_end, **kwargs)
    assert not calls


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("state, t_end", [
    (PhaseState((0.2,), (0.3,), 0), NAN),
    (PhaseState((0.2,), (0.3,), 0), INF),
    (PhaseState((0.2,), (0.3,), 0), complex(1, NAN)),
    (PhaseState((NAN,), (0.3,), 0), 1.0),
    (PhaseState((0.2,), (complex(0.3, INF),), 0), 1.0),
    (PhaseState((0.2,), (0.3,), NAN), 1.0),
])
@pytest.mark.parametrize("equation, side", [("I", "painleve"), ("VI", "calogero")])
def test_non_finite_input_is_refused(state, t_end, equation, side, monkeypatch):
    calls = []
    monkeypatch.setattr(dynamics, "canonical_field", lambda *args: calls.append(args))
    sd = SystemDescriptor(equation, side, params=default_aux(equation))
    if side == "calogero":  # move the finite base time into Im tau > 0
        state = PhaseState(state.coords, state.momenta, state.time + 1j)
        t_end = t_end + 1j
    with pytest.raises(ValueError, match="finite"):
        integrate(sd, state, t_end)
    assert not calls


def test_integrate_does_not_import_scipy():
    # the blocker refuses scipy as well as numpy
    code = ("from painleve_calogero import PhaseState, SystemDescriptor, integrate\n"
            "from painleve_calogero import painleve_residual\n"
            "traj = integrate(SystemDescriptor('I', 'painleve'), PhaseState((0.2,), (0.3,), 0),\n"
            "                 0.5, 1e-10, 1e-12)\n"
            "assert traj.completed\n"
            "times, states = traj.resample(9)\n"
            "assert len(times) == len(states) == 9 and states[4] == traj.interpolate(0.5)\n"
            "print(painleve_residual(traj))\n")
    assert float(run_without_numpy(code)) < 1e-5


def test_cli_integrate_and_params_do_not_import_numpy(tmp_path):
    (tmp_path / "i0.json").write_text(json.dumps(
        {"coords": [[0.2, 0]], "momenta": [[0.3, 0]], "time": [0, 0]}))
    code = ("import sys\n"
            "from painleve_calogero.cli import main\n"
            "d = sys.argv[1]\n"
            "assert main(['integrate', '--equation', 'p1', '--initial', d + '/i0.json',\n"
            "             '--t-end', '0.5', '--out', d + '/tr.csv']) == 0\n"
            "assert main(['params', '--equation', 'p2', '--aux', 'alpha=1',\n"
            "             '--out', d + '/p.json']) == 0\n")
    run_without_numpy(code, str(tmp_path))
    assert (tmp_path / "tr.csv").read_text().startswith("re_t,im_t,re_l1,im_l1")


def test_tableau_is_hairers_dop853():
    ref = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    assert np.array_equal(dynamics._C, ref.C[:13])
    for i, row in enumerate(dynamics._A):
        assert np.array_equal(row, ref.A[i, :i]), i
    assert dynamics._B == dynamics._A[12]
    assert np.array_equal(dynamics._E5, ref.E5[:12]) and ref.E5[12] == 0
    assert np.array_equal(dynamics._E3, ref.E3[:12]) and ref.E3[12] == 0
