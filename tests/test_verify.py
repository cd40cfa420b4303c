import json
import runpy
from pathlib import Path

import pytest

from painleve_calogero import EllipticContext
from painleve_calogero.errors import ScheduleMismatch
from painleve_calogero.verify import (
    SCHEDULES,
    CheckReport,
    DegenerationSchedule,
    reports_to_json,
    run_correspondence_suite,
    run_degeneration_suite,
    run_dynamic_correspondence,
    run_identity_suite,
    run_suite,
    schedule_defect,
)


def test_check_report_passed_invariant():
    assert CheckReport("x", 1e-10, 1e-9, 5).passed
    assert not CheckReport("x", 1e-8, 1e-9, 5).passed


def test_identity_suite_passes():
    reports = run_identity_suite(seed=7, n_points=20)
    assert reports and all(r.passed for r in reports)


@pytest.mark.parametrize("seed", (4, 14, 56))
def test_lemma3_fd_passes_at_tau_i(seed):
    # seeds on which a 1e-3 finite-difference step in tau failed the row
    reports = run_identity_suite(ctx_list=[EllipticContext(1j)], seed=seed)
    assert all(r.passed for r in reports)
    fd = [r for r in reports if r.check_id.startswith("identity.lemma3_fd")]
    assert fd and fd[0].metadata["fd_step"] == "5e-4"


def test_correspondence_vi_rank1():
    rep = run_correspondence_suite("VI", 1, n_points=10, seed=7)
    assert rep.passed
    assert rep.max_error < 1e-7  # far below the 1e-5 gate


def test_correspondence_v_rank3_with_coupling():
    rep = run_correspondence_suite("V", 3, n_points=5, seed=7, g4sq=0.7)
    assert rep.passed


def test_correspondence_identity_case_machine_precision():
    rep = run_correspondence_suite("I", 1, n_points=10, seed=7)
    assert rep.max_error < 1e-9  # Phi is the identity; only FD noise remains


def test_dynamic_correspondence_pii():
    rep = run_dynamic_correspondence("II", 1, seed=7)
    assert rep.passed


def test_dynamic_correspondence_pi_identity():
    rep = run_dynamic_correspondence("I", 1, seed=7)
    assert rep.max_error < 1e-9  # same flow on both sides


@pytest.mark.parametrize("eq", ("VI", "V", "IV", "III", "II", "I"))
def test_dynamic_correspondence_rank2_with_coupling(eq):
    # flow-level consistency of the multi-component systems: two interacting
    # components, nonzero two-body coupling
    rep = run_dynamic_correspondence(eq, rank=2, seed=7, g4sq=0.4 + 0.1j)
    assert rep.passed, rep.metadata


def test_two_path_experiment_script(capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "two_path_experiment.py"
    ns = runpy.run_path(str(script))
    assert ns["main"](["--equation", "II"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [float(r.split()[0]) for r in rows] == list(ns["ARCS"])
    for row in rows:
        _, max_error, _, termination = row.split()
        assert float(max_error) < 1e-6 and termination == "completed/completed"


def test_dynamic_correspondence_vi_tau_arc():
    from painleve_calogero import EllipticContext
    from painleve_calogero.verify.correspondence import default_aux, sample_calogero_state
    from painleve_calogero.verify.report import rng_for

    # tau-arc variant of the two-path comparison
    from painleve_calogero import SystemDescriptor, integrate, multi_transform

    rng = rng_for(7, "test.vi_tau_arc")
    st = sample_calogero_state("VI", 1, rng)
    aux = default_aux("VI")
    ctx = EllipticContext(st.time)
    tau_end = st.time + 0.1j
    cal = SystemDescriptor("VI", "calogero", 1, 0, aux)
    pain = SystemDescriptor("VI", "painleve", 1, 0, aux)
    traj = integrate(cal, st, tau_end, 1e-10, 1e-12, ctx=ctx)
    start_img = multi_transform("VI", "to_painleve", st, aux, ctx)
    from painleve_calogero import time_map_pvi
    traj_p = integrate(pain, start_img, time_map_pvi(tau_end), 1e-10, 1e-12)
    end_img = multi_transform("VI", "to_painleve", traj.samples[-1][1], aux,
                              EllipticContext(tau_end))
    end_p = traj_p.samples[-1][1]
    assert abs(end_img.coords[0] - end_p.coords[0]) < 1e-6
    assert abs(end_img.momenta[0] - end_p.momenta[0]) < 1e-6


def test_degeneration_pvi_to_pv_bracket():
    sched = SCHEDULES["pvi_to_pv"]
    d1 = schedule_defect(sched, 1e-2)
    d2 = schedule_defect(sched, 1e-3)
    assert 3.3 <= d1 / d2 <= 30


def test_degeneration_suite_reports():
    for name in ("pvi_to_pv", "elliptic_to_hyperbolic", "second_rational_to_pi"):
        reports = run_degeneration_suite(SCHEDULES[name], seed=7)
        assert all(r.passed for r in reports), [r.check_id for r in reports if not r.passed]


def test_elliptic_to_hyperbolic_potential_residual():
    d = schedule_defect(SCHEDULES["elliptic_to_hyperbolic"], 1e-4)
    assert d < 1e-3


def test_schedule_mismatch():
    with pytest.raises(ScheduleMismatch):
        DegenerationSchedule("bad", "PII-calogero", "PI-calogero",
                            (("gamma", "1/eps"),), 0.1, (0.1, 0.01), (3.3, 30), 1.0)


def test_all_schedules_reference_valid_symbols():
    assert set(SCHEDULES) == {
        "pvi_to_pv", "elliptic_to_hyperbolic", "hyperbolic_to_rational",
        "hyperbolic_to_exp_hyperbolic", "rational_to_second_rational",
        "exp_hyperbolic_to_second_rational", "second_rational_to_pi"}


def test_reports_reproducible_and_sorted():
    a = reports_to_json(run_suite("degeneration", seed=7))
    b = reports_to_json(run_suite("degeneration", seed=7))
    assert a == b
    ids = [r["check_id"] for r in json.loads(a)]
    assert ids == sorted(ids)


def test_unknown_suite_raises():
    with pytest.raises(ValueError):
        run_suite("bogus")
