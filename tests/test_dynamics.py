import numpy as np
import pytest

from painleve_calogero import (
    EllipticContext,
    PhaseState,
    SystemDescriptor,
    integrate,
    painleve_ode_rhs,
    painleve_residual,
)
from painleve_calogero import dynamics
from painleve_calogero.dynamics import COMPLETED, POLE_DETECTED, Trajectory
from painleve_calogero.errors import BadContext, CoordinateSingularity, PoleAt, TooSparse
from painleve_calogero.systems import canonical_field
from painleve_calogero.verify.correspondence import default_aux, sample_calogero_state

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
    traj = integrate(sd, st, 0.7, 1e-10, 1e-12, max_step=0.004)
    # second differences of the resampled lambda(t), Richardson-combined at
    # steps h and 2h to beat their own h^2 truncation
    times, states = traj.resample(81)
    h = (times[-1] - times[0]) / 80
    worst = 0.0
    for i in range(2, 79):
        d2_h = (states[i + 1, 0] - 2 * states[i, 0] + states[i - 1, 0]) / h**2
        d2_2h = (states[i + 2, 0] - 2 * states[i, 0] + states[i - 2, 0]) / (2 * h) ** 2
        second = (4 * d2_h - d2_2h) / 3
        worst = max(worst, abs(second - (6 * states[i, 0] ** 2 + times[i])))
    assert worst < 1e-6
    assert painleve_residual("I", traj) < 1e-5


def test_tolerance_scaling_on_pii():
    sd = SystemDescriptor("II", "painleve", params=default_aux("II"))
    st = PhaseState((0.3 + 0.1j,), (0.2 - 0.05j,), 0.4 + 0.1j)
    t_end = 1.2 + 0.3j
    ref = _endpoint(integrate(sd, st, t_end, 1e-12, 1e-14))
    err = {}
    for tol in (1e-6, 1e-8):
        err[tol] = float(np.max(np.abs(_endpoint(integrate(sd, st, t_end, tol, tol * 1e-2)) - ref)))
    # reducing rel_tol by 100x must reduce the endpoint error at least 4x,
    # and the reduction should track tol^(5/6) within a factor 3
    ratio = err[1e-6] / err[1e-8]
    assert ratio >= 4
    expected = 100 ** (5 / 6)
    assert expected / 3 < ratio < expected * 3


@pytest.mark.parametrize("eq", sorted(RESIDUAL_CASES))
def test_painleve_residuals(eq):
    t0, t1, lam0 = RESIDUAL_CASES[eq]
    sd = SystemDescriptor(eq, "painleve", params=default_aux(eq))
    st = PhaseState((lam0,), (0.4 - 0.1j,) if eq != "I" else (0.3,), t0)
    traj = integrate(sd, st, t1, 1e-10, 1e-12, max_step=abs(t1 - t0) / 30)
    assert traj.termination == COMPLETED
    tol = 1e-4 if eq in ("III", "IV") else 1e-4
    assert painleve_residual(eq, traj) < tol


def test_constant_zero_fake_trajectory_detects_wrong_dynamics():
    sd = SystemDescriptor("I", "painleve")
    t0, t1 = 1.0, 1.1
    n = 25
    samples = []
    dense = []
    zero = np.zeros(2, dtype=complex)
    for i in range(n):
        s = i / (n - 1)
        t = t0 + s * (t1 - t0)
        samples.append((t, PhaseState((0,), (0,), t)))
        if i:
            dense.append(((i - 1) / (n - 1), s, zero, zero, zero, zero))
    traj = Trajectory(SystemDescriptor("I", "painleve"), samples, 1e-8, 1e-10,
                      COMPLETED, _dense=dense)
    res = painleve_residual("I", traj)
    # residual of lambda = 0 is |0 - (6*0 + t)| = |t|, maximized over the
    # interior of the resampled grid
    times, _ = traj.resample(41)
    expected = max(abs(times[i]) for i in range(2, 39))
    assert abs(res - expected) < 1e-12


def test_too_sparse_raises():
    sd = SystemDescriptor("I", "painleve")
    traj = integrate(sd, PhaseState((0.1,), (0.1,), 0.0), 0.05, 1e-6, 1e-8)
    with pytest.raises(TooSparse):
        painleve_residual("I", traj)


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
    assert free.completed and attempts == 8
    last = integrate(sd, st, 0.05, max_steps=attempts)
    assert last.termination == COMPLETED
    assert last.samples == free.samples
    short = integrate(sd, st, 0.05, max_steps=attempts - 1)
    assert short.termination == "max_steps" and short.samples[-1][0] != 0.05


def test_fixed_singularity_guard():
    sd = SystemDescriptor("V", "painleve", params=default_aux("V"))
    st = PhaseState((1.45 + 0.35j,), (0.4,), -0.5 + 0j)
    with pytest.raises(CoordinateSingularity):
        integrate(sd, st, 0.5)  # segment passes through t = 0


def test_calogero_vi_integration_runs(rng):
    aux = default_aux("VI")
    sd = SystemDescriptor("VI", "calogero", params=aux)
    st = sample_calogero_state("VI", 1, rng)
    ctx = EllipticContext(st.time)
    traj = integrate(sd, st, st.time + 0.1j, 1e-9, 1e-11, ctx=ctx)
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
        rhs = painleve_ode_rhs(eq, lam, ldot, t, sd.painleve_params())
        assert abs(ldd - rhs) / max(1.0, abs(rhs)) < 1e-6


def test_pvi_calogero_segment_leaving_upper_half_plane_is_refused(rng):
    sd = SystemDescriptor("VI", "calogero", params=default_aux("VI"))
    st = sample_calogero_state("VI", 1, rng, time=0.1 + 0.2j)
    with pytest.raises(BadContext):
        integrate(sd, st, 0.1 - 0.2j, max_steps=10)


def _numpy_step_loop(sys, initial, t_end, rel_tol, abs_tol, ctx=None):
    """Reference: the Dormand-Prince loop on numpy arrays, with a second field
    call at every accepted point.  Returns (samples, n_accepted, n_rejected,
    n_rhs, termination)."""
    A, B5, C, E = dynamics._A, dynamics._B5, dynamics._C, dynamics._E
    t0, n = complex(initial.time), len(initial.coords)
    span = complex(t_end) - t0
    samples, counts = [(t0, initial)], {"acc": 0, "rej": 0, "rhs": 0}

    def rhs(s, y):
        dq, dp = canonical_field(sys, PhaseState(tuple(y[:n]), tuple(y[n:]), t0 + s * span), ctx)
        counts["rhs"] += 1
        return span * np.array(list(dq) + list(dp), dtype=complex)

    def done(termination):
        return samples, counts["acc"], counts["rej"], counts["rhs"], termination

    y = np.array(list(initial.coords) + list(initial.momenta), dtype=complex)
    s, h, err_prev, f_now = 0.0, 1e-2, 1.0, rhs(0.0, y)
    k = [None] * 7
    while s < 1.0:
        h = min(h, 1.0 - s)
        if h < dynamics._MIN_STEP_FRACTION:
            return done(dynamics.STEP_UNDERFLOW)
        k[0], failed = f_now, False
        try:
            for i in range(1, 7):
                k[i] = rhs(s + C[i] * h, y + h * sum(a * k[j] for j, a in enumerate(A[i])))
            y_new = y + h * sum(b * ki for b, ki in zip(B5, k))
            err_vec = h * sum(e * ki for e, ki in zip(E, k))
        except (CoordinateSingularity, PoleAt, OverflowError, ZeroDivisionError):
            failed = True
        err = np.inf
        if not failed and np.all(np.isfinite(y_new)):
            scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
            err = float(np.sqrt(np.mean((np.abs(err_vec) / scale) ** 2)))
        if err <= 1.0:
            if np.max(np.abs(y_new)) > dynamics.BLOWUP_LIMIT:
                return done(POLE_DETECTED)
            s += h
            f_now, y = rhs(s, y_new), y_new
            samples.append((t0 + s * span, PhaseState(tuple(y[:n]), tuple(y[n:]), t0 + s * span)))
            counts["acc"] += 1
            fac = 5.0 if err == 0 else 0.9 * err ** (-0.7 / 5) * err_prev ** (0.4 / 5)
            err_prev = max(err, 1e-10)
            h *= min(5.0, max(0.2, fac))
        else:
            counts["rej"] += 1
            h *= 0.2 if not np.isfinite(err) else min(1.0, max(0.2, 0.9 * err ** (-1 / 5)))
    return done(COMPLETED)


def _oracle_cases(rng):
    pii = SystemDescriptor("II", "painleve", params=default_aux("II"))
    yield pii, PhaseState((0.3 + 0.1j,), (0.2 - 0.05j,), 0.4 + 0.1j), 1.2 + 0.3j, 1e-10, 1e-12
    # a long first step that the error estimate rejects
    yield pii, PhaseState((0.3 + 0.1j,), (0.2 - 0.05j,), 0.4 + 0.1j), 40.4 + 0.1j, 1e-8, 1e-10
    # movable pole of PI
    yield SystemDescriptor("I", "painleve"), PhaseState((1,), (1,), 0), 6.0, 1e-9, 1e-11
    pvi = SystemDescriptor("VI", "calogero", 3, 0.7, default_aux("VI"))
    st = sample_calogero_state("VI", 3, rng)
    yield pvi, st, st.time + 0.01 * (1 + 0.2j), 1e-10, 1e-10


def test_step_loop_matches_numpy_reference(rng):
    rejected = 0
    for sd, st, t_end, rel_tol, abs_tol in _oracle_cases(rng):
        traj = integrate(sd, st, t_end, rel_tol, abs_tol)
        samples, n_acc, n_rej, n_rhs, termination = _numpy_step_loop(sd, st, t_end, rel_tol, abs_tol)
        assert traj.termination == termination
        assert traj.samples == samples
        assert (traj.n_accepted, traj.n_rejected) == (n_acc, n_rej)
        # the reference evaluates the field once more per accepted step
        assert traj.n_rhs == n_rhs - traj.n_accepted
        rejected += n_rej
    assert rejected > 0


def test_fsal_field_call_count():
    sd = SystemDescriptor("II", "painleve", params=default_aux("II"))
    traj = integrate(sd, PhaseState((0.3 + 0.1j,), (0.2 - 0.05j,), 0.4 + 0.1j), 40.4 + 0.1j)
    assert traj.completed and traj.n_rejected > 0 and traj.n_rejected_singular == 0
    assert traj.n_rhs == 1 + 6 * (traj.n_accepted + traj.n_rejected)


def test_singular_rejections_are_counted():
    # the first steps of this span overflow inside the stages; they are
    # rejected as singular until the step underflows
    sd = SystemDescriptor("I", "painleve")
    traj = integrate(sd, PhaseState((0.3 + 0.1j,), (0.2 + 0.1j,), 0.5 + 0.1j), 1e20)
    assert traj.termination == "step_underflow"
    assert 0 < traj.n_rejected_singular <= traj.n_rejected
    # a stage that raises ends its step early
    assert traj.n_rhs < 1 + 6 * (traj.n_accepted + traj.n_rejected)


def test_numpy_overflow_in_a_step_is_a_singular_rejection():
    # the stages overflow in numpy (the span product), not in CPython; the
    # suite turns RuntimeWarning into an error, so a warning would raise here
    sd = SystemDescriptor("II", "painleve", params=default_aux("II"))
    traj = integrate(sd, PhaseState((0.3 + 0.1j,), (0.2 + 0.1j,), 0.5 + 0.1j), 1e50,
                     max_steps=5)
    assert traj.termination == "max_steps"
    assert traj.n_rejected == traj.n_rejected_singular == 5


@pytest.mark.parametrize("kwargs", [
    dict(rel_tol=0, abs_tol=0), dict(rel_tol=float("nan")), dict(rel_tol=-1e-8),
    dict(rel_tol=float("inf")), dict(abs_tol=-1e-10), dict(abs_tol=float("nan")),
    dict(max_step=0), dict(max_step=-0.1), dict(max_step=float("inf")),
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
