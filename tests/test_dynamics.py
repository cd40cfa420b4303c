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
from painleve_calogero.dynamics import COMPLETED, POLE_DETECTED, Trajectory
from painleve_calogero.errors import BadContext, CoordinateSingularity, TooSparse
from tests.conftest import aux_for, calogero_state

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
    sd = SystemDescriptor("II", "painleve", params=aux_for("II"))
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
    sd = SystemDescriptor(eq, "painleve", params=aux_for(eq))
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


def test_fixed_singularity_guard():
    sd = SystemDescriptor("V", "painleve", params=aux_for("V"))
    st = PhaseState((1.45 + 0.35j,), (0.4,), -0.5 + 0j)
    with pytest.raises(CoordinateSingularity):
        integrate(sd, st, 0.5)  # segment passes through t = 0


def test_calogero_vi_integration_runs(rng):
    aux = aux_for("VI")
    sd = SystemDescriptor("VI", "calogero", params=aux)
    st = calogero_state("VI", 1, rng)
    ctx = EllipticContext(st.time)
    traj = integrate(sd, st, st.time + 0.1j, 1e-9, 1e-11, ctx=ctx)
    assert traj.termination == COMPLETED
    assert traj.samples[-1][0] == st.time + 0.1j


def test_painleve_ode_rhs_matches_hamiltonian_flow():
    # lambda'' along the canonical flow equals the printed equation's RHS
    from painleve_calogero import hamiltonian_gradients

    for eq in ("VI", "V", "IV", "III", "II", "I"):
        sd = SystemDescriptor(eq, "painleve", params=aux_for(eq))
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
    sd = SystemDescriptor("VI", "calogero", params=aux_for("VI"))
    st = calogero_state("VI", 1, rng, time=0.1 + 0.2j)
    with pytest.raises(BadContext):
        integrate(sd, st, 0.1 - 0.2j, max_steps=10)
