import json
import math
import random
import re
import zlib
from pathlib import Path

import numpy as np
import pytest

from painleve_calogero import (
    EllipticContext,
    PainleveParams,
    PhaseState,
    SystemDescriptor,
    canonical_field,
    elliptic,
    jacobian_dtau_dt,
    multi_transform,
    transforms,
)
from painleve_calogero.errors import UnsupportedEquation
from painleve_calogero.verify import (
    RANK3_G4SQ,
    SCHEDULES,
    CheckReport,
    reports_to_json,
    run_correspondence_suite,
    run_degeneration_suite,
    run_dynamic_correspondence,
    run_identity_suite,
    run_suite,
)
from painleve_calogero.verify.correspondence import (
    BASE_TIME,
    TOL_PUSHFORWARD,
    _circle_time_args,
    _pushed_field,
    default_aux,
    sample_calogero_state,
)
from painleve_calogero.verify import correspondence, degeneration, identities, report
from painleve_calogero.verify.report import cbox, rng_for, worst
from tests.conftest import run_without_numpy

NAN = complex("nan")


def test_check_report_passed_invariant():
    assert CheckReport("x", 1e-10, 1e-9, 5).passed
    assert not CheckReport("x", 1e-8, 1e-9, 5).passed


@pytest.mark.parametrize("errors, expected", (([], 0.0), ([1, math.nan, 2], math.inf),
                                               ([math.inf], math.inf), ([math.nan], math.inf),
                                               ([0.5, 2.0, 1.0], 2.0)))
def test_worst(errors, expected):
    assert worst(errors) == expected


def _poisoned(monkeypatch, module, name, poison, call=2):
    """Replace module.name by a wrapper whose ``call``-th result is poison(result)."""
    original = getattr(module, name)
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        out = original(*args, **kwargs)
        return poison(out) if len(calls) == call else out

    monkeypatch.setattr(module, name, wrapped)


def test_identity_suite_fails_on_nan_wp_prime(monkeypatch):
    monkeypatch.setattr(elliptic, "weierstrass_p_prime", lambda u, ctx: NAN)
    reports = run_identity_suite(seed=7)
    rows = [r for r in reports if r.check_id.startswith(("identity.cubic", "identity.addition"))]
    assert len(rows) == 6
    assert all(r.max_error == math.inf and not r.passed for r in rows)


def test_correspondence_fails_on_one_nan_point(monkeypatch):
    _poisoned(monkeypatch, correspondence, "_pushforward_error", lambda err: math.nan)
    rep = run_correspondence_suite("II", 1, n_points=5, seed=7)
    assert rep.max_error == math.inf and not rep.passed


@pytest.mark.parametrize("schedule, module, name, poison", (
    ("pvi_to_pv", degeneration, "painleve_ode_rhs", lambda f: NAN),
    ("hyperbolic_to_rational", degeneration, "canonical_field",
     lambda field: ([NAN] * len(field[0]), field[1])),
    ("elliptic_to_hyperbolic", degeneration, "canonical_field",
     lambda field: ([NAN] * len(field[0]), field[1])),
))
def test_degeneration_defect_fails_on_one_nan_point(monkeypatch, schedule, module, name, poison):
    _poisoned(monkeypatch, module, name, poison)
    first = run_degeneration_suite(SCHEDULES[schedule], seed=7)[0]  # the largest eps
    assert first.max_error == math.inf and not first.passed


def test_nan_shrink_ratio_and_spread_read_inf(monkeypatch):
    monkeypatch.setattr(degeneration, "painleve_ode_rhs", lambda *args: NAN)
    reports = run_degeneration_suite(SCHEDULES["pvi_to_pv"], seed=7)
    assert all(r.max_error == math.inf and not r.passed for r in reports)
    assert reports[-1].check_id.endswith("shrink_ratio")  # inf / inf
    monkeypatch.setattr(elliptic, "theta_du2", lambda u, ctx: NAN)
    reports += run_identity_suite(seed=7)
    lemma4 = [r for r in reports if r.check_id.startswith("identity.lemma4")]
    assert len(lemma4) == 3 and all(r.max_error == math.inf for r in lemma4)
    assert "NaN" not in reports_to_json(reports)


def test_identity_suite_passes():
    reports = run_identity_suite(seed=7)
    assert reports and all(r.passed for r in reports)


@pytest.mark.parametrize("seed", (4, 14, 56))
def test_lemma3_fd_passes_at_tau_i(seed):
    # seeds on which a 1e-3 finite-difference step in tau failed the row
    reports = run_identity_suite(seed=seed)
    assert all(r.passed for r in reports)
    fd = [r for r in reports if r.check_id == "identity.lemma3_fd.0+1j"]
    assert fd and fd[0].metadata["fd_step"] == "5e-4"


def test_correspondence_vi_rank1():
    rep = run_correspondence_suite("VI", 1, n_points=10, seed=7)
    assert rep.passed
    assert rep.max_error < 2e-11  # far below the 1e-5 gate


def test_correspondence_v_rank3_with_coupling():
    rep = run_correspondence_suite("V", 3, n_points=5, seed=7, g4sq=0.7)
    assert rep.passed
    assert rep.max_error < 2e-11


def test_correspondence_identity_case_machine_precision():
    rep = run_correspondence_suite("I", 1, n_points=10, seed=7)
    assert rep.max_error < 1e-11  # Phi is the identity; only stencil rounding remains


_EQUATIONS = ("VI", "V", "IV", "III", "II", "I")


def _g4sq(rank):
    return 0j if rank == 1 else RANK3_G4SQ


def _columnwise_pushed_field(cal, state, dT_dt, step=1e-6):
    """J_Phi . v from the full Jacobian, one central difference per column."""
    eq, rank, aux = cal.equation, cal.rank, cal.params
    qdot, pdot = canonical_field(cal, state)
    vel = [v * dT_dt for v in qdot] + [v * dT_dt for v in pdot] + [dT_dt]

    def phi_flat(x):
        st = PhaseState(tuple(x[:rank]), tuple(x[rank:2 * rank]), x[2 * rank])
        c = EllipticContext(st.time) if eq == "VI" else None
        img = multi_transform(eq, "to_painleve", st, aux, c)
        return list(img.coords) + list(img.momenta) + [img.time]

    x0 = list(state.coords) + list(state.momenta) + [state.time]
    n = 2 * rank + 1
    pushed = [0j] * n
    for i in range(n):
        xp, xm = list(x0), list(x0)
        xp[i] += step
        xm[i] -= step
        fp, fm = phi_flat(xp), phi_flat(xm)
        for k in range(n):
            pushed[k] += (fp[k] - fm[k]) / (2 * step) * vel[i]
    return pushed


# EllipticContext constructions of run_suite at seed 1000; a change that
# stops sharing one context among the coordinates of a state, among the
# maps at one time, or the four circle-time contexts among a row's
# samples, raises them
CONTEXT_BUDGET = {"correspondence": 162, "dynamic": 82, "degeneration": 6, "identities": 203}


@pytest.mark.parametrize("suite", sorted(CONTEXT_BUDGET))
def test_suite_context_budget(suite, contexts):
    run_suite(suite, seed=1000)
    assert contexts[0] <= CONTEXT_BUDGET[suite]


# wp/wp' series passes of run_suite at seed 1000; a caller that takes wp
# before wp' at one argument, or a cache that stops hitting, raises them.
# The dynamic suite's counts follow the step counts of its seeded starts,
# so a change of the seeded points moves them
PASS_BUDGET = {"correspondence": 2586, "dynamic": 322, "degeneration": 60, "identities": 3632}


@pytest.mark.parametrize("suite", sorted(PASS_BUDGET))
def test_suite_pass_budget(suite, passes):
    run_suite(suite, seed=1000)
    assert passes[0] <= PASS_BUDGET[suite]


@pytest.mark.parametrize("rank", (1, 3))
@pytest.mark.parametrize("eq", _EQUATIONS)
def test_circle_rule_matches_columnwise_jacobian(eq, rank):
    cal = SystemDescriptor(eq, "calogero", rank, _g4sq(rank), default_aux(eq))
    dT_dt = jacobian_dtau_dt(BASE_TIME[eq]) if eq == "VI" else 1.0 + 0j
    rng = rng_for(3, f"test.circle_rule.{eq}.{rank}")
    for _ in range(3):
        state = sample_calogero_state(eq, rank, rng)
        pushed = _pushed_field(cal, state, dT_dt, _circle_time_args(eq, BASE_TIME[eq], dT_dt))
        oracle = _columnwise_pushed_field(cal, state, dT_dt)
        for a, b in zip(pushed, oracle):
            assert abs(a - b) <= 1e-8 * max(1.0, abs(b))


@pytest.mark.parametrize("rank", (1, 3))
@pytest.mark.parametrize("eq", _EQUATIONS)
def test_shared_circle_contexts_change_no_bit_of_the_pushed_field(contexts, eq, rank):
    # the row's four circle-time contexts against four built afresh per point
    cal = SystemDescriptor(eq, "calogero", rank, _g4sq(rank), default_aux(eq))
    dT_dt = jacobian_dtau_dt(BASE_TIME[eq]) if eq == "VI" else 1.0 + 0j
    circle_args = _circle_time_args(eq, BASE_TIME[eq], dT_dt)
    rng = rng_for(3, f"test.circle_contexts.{eq}.{rank}")
    for _ in range(3):
        state = sample_calogero_state(eq, rank, rng)
        built = contexts[0]
        shared = _pushed_field(cal, state, dT_dt, circle_args)
        built_shared, built = contexts[0] - built, contexts[0]
        fresh = _pushed_field(cal, state, dT_dt, _circle_time_args(eq, BASE_TIME[eq], dT_dt))
        assert shared == fresh
        # the VI field builds one context; the fresh circle builds four more
        assert (built_shared, contexts[0] - built) == ((1, 5) if eq == "VI" else (0, 0))


@pytest.fixture
def scaled_momentum_map(monkeypatch):
    # mu = coef * p + rest with coef off by 1e-4: no longer a canonical map
    mu_pieces = transforms._mu_pieces

    def scaled(*args):
        coef, rest, lam = mu_pieces(*args)
        return coef * (1 + 1e-4), rest, lam

    monkeypatch.setattr(transforms, "_mu_pieces", scaled)


@pytest.mark.parametrize("rank", (1, 3))
@pytest.mark.parametrize("eq", _EQUATIONS)
def test_correspondence_fails_on_a_wrong_momentum_map(scaled_momentum_map, eq, rank):
    rep = run_correspondence_suite(eq, rank, n_points=3, seed=7, g4sq=_g4sq(rank))
    assert rep.max_error > TOL_PUSHFORWARD and not rep.passed


@pytest.mark.parametrize("rank", (1, 3))
@pytest.mark.parametrize("eq", _EQUATIONS)
def test_correspondence_maps_five_times_per_point(monkeypatch, eq, rank):
    # four stencil points and the image, at every rank, all through the
    # forward kernel
    calls = []
    kernel = transforms._to_painleve

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(transforms, "_to_painleve", counted)
    run_correspondence_suite(eq, rank, n_points=2, seed=7, g4sq=_g4sq(rank))
    assert len(calls) == 5 * 2


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
    traj = integrate(cal, st, tau_end, 1e-10, 1e-12)
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
    d1 = sched.defect(1e-2, 7)
    d2 = sched.defect(1e-3, 7)
    assert 3.3 <= d1 / d2 <= 30


def test_degeneration_suite_reports():
    for name in ("pvi_to_pv", "elliptic_to_hyperbolic", "second_rational_to_pi"):
        reports = run_degeneration_suite(SCHEDULES[name], seed=7)
        assert all(r.passed for r in reports), [r.check_id for r in reports if not r.passed]


def _elliptic_to_hyperbolic_rank3():
    """The printed schedule on three components at the suite's rank-3 coupling."""
    tgt = PainleveParams("V", alpha=degeneration._AT, beta=degeneration._BT,
                         gamma=degeneration._GT, delta=degeneration._DT)
    return degeneration._calogero_limit(
        "elliptic_to_hyperbolic", "VI", "V", degeneration._subs_elliptic, tgt,
        g4sq=RANK3_G4SQ, rank=3, eps_pair=(1e-3, 1e-4), ratio_max=300.0,
        envelope_coeff=10.0, order=2)


@pytest.mark.parametrize("sched", (SCHEDULES["elliptic_to_hyperbolic"],
                                   _elliptic_to_hyperbolic_rank3()), ids=("rank2", "rank3"))
def test_elliptic_to_hyperbolic_field_defect(sched):
    # O(eps^2): about 3e-10 at rank 2 and 4e-9 at rank 3
    assert sched.defect(1e-4, 7) < 1e-8


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


@pytest.fixture(scope="module")
def drawn_check_ids():
    """Every check id that ``run_suite("all", 7)`` seeds a generator with."""
    ids = set()

    def recording(seed, check_id):
        ids.add(check_id)
        return rng_for(seed, check_id)

    with pytest.MonkeyPatch.context() as mp:
        for module in (report, identities, correspondence):
            mp.setattr(module, "rng_for", recording)
        run_suite("all", 7)
    return sorted(ids)


@pytest.mark.parametrize("seed", (0, 7, 1000, 2**32 + 5))
def test_every_check_id_draws_its_own_stream(seed, drawn_check_ids):
    assert len(drawn_check_ids) >= 50
    heads = {tuple(rng_for(seed, check_id).random() for _ in range(4))
             for check_id in drawn_check_ids}
    assert len(heads) == len(drawn_check_ids)
    nexts = {tuple(rng_for(seed + 1, check_id).random() for _ in range(4))
             for check_id in drawn_check_ids}
    assert not heads & nexts


def test_rng_for_takes_numpy_integers_bools_and_long_seeds_as_the_equal_int():
    # the seed fills the bits above the 32-bit crc32 of the check id, however many
    for seed, equal in ((np.int64(7), 7), (np.uint32(1000), 1000), (True, 1),
                        (2**200 + 17, 2**200 + 17)):
        ours, theirs = rng_for(seed, "x"), rng_for(equal, "x")
        assert type(ours) is random.Random
        assert ours.getstate() == random.Random(equal << 32 | zlib.crc32(b"x")).getstate()
        assert [ours.random() for _ in range(3)] == [theirs.random() for _ in range(3)]
    assert rng_for(2**200 + 17, "x").random() != rng_for(17, "x").random()


@pytest.mark.parametrize("seed", (7.5, -1, "7"))
def test_a_seed_that_is_not_a_non_negative_integer_is_refused(seed):
    with pytest.raises(ValueError, match=re.escape(repr(seed))):
        run_suite("dynamic", seed)


@pytest.mark.parametrize("n_points", (0, -3, 2.5))
def test_a_correspondence_row_without_a_sample_is_refused(n_points):
    # a row of no sample would pass with nothing checked
    with pytest.raises(ValueError, match=f"n_points.*{re.escape(repr(n_points))}"):
        run_correspondence_suite("II", 1, n_points=n_points)


@pytest.mark.parametrize("call", (lambda: run_correspondence_suite("VII", 1),
                                  lambda: run_dynamic_correspondence("VII"),
                                  lambda: default_aux("VII")),
                         ids=("run_correspondence_suite", "run_dynamic_correspondence",
                              "default_aux"))
def test_verify_entry_points_refuse_an_unknown_equation(call):
    with pytest.raises(UnsupportedEquation, match="'VII'"):
        call()


def test_verify_process_matches_the_golden_report_without_numpy(tmp_path):
    # seed 1000 here; acceptance criterion 8 runs seed 7 the same way
    out = tmp_path / "all.json"
    code = ("import runpy, sys\n"
            "sys.argv = ['painleve_calogero', 'verify', '--suite', 'all', '--seed', '1000',\n"
            "            '--out', sys.argv[1]]\n"
            "try:\n"
            "    runpy.run_module('painleve_calogero', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    print(exc.code)\n")
    assert run_without_numpy(code, str(out)).split()[-1:] == ["0"]
    golden = Path(__file__).parent / "data" / "verify_all_seed1000.json"
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("time", (None, 0.5 + 0.1j), ids=("base-time", "given-time"))
def test_sample_calogero_state_refuses_an_unknown_equation(time):
    # a KeyError without a time; with one, a state of the PII..PI kind
    with pytest.raises(UnsupportedEquation, match="'VII'"):
        sample_calogero_state("VII", 1, random.Random(1), time)


@pytest.mark.parametrize("call", (lambda: sample_calogero_state("I", 2.5, random.Random(1)),
                                  lambda: run_dynamic_correspondence("I", 2.5)),
                         ids=("sample_calogero_state", "run_dynamic_correspondence"))
def test_a_sampled_rank_that_is_not_an_integer_is_refused(call):
    # range(2.5) raised TypeError before any system refused the rank
    with pytest.raises(ValueError, match="rank must be an integer >= 1, got 2.5"):
        call()


@pytest.mark.parametrize("sched", ("pvi_to_pv", None))
def test_run_degeneration_suite_refuses_anything_but_a_schedule(sched):
    # an AttributeError on sched.eps_pair; the refusal names the schedules
    with pytest.raises(ValueError, match="DegenerationSchedule.*'pvi_to_pv'.*'second_rational_to_pi'"):
        run_degeneration_suite(sched, seed=7)
