"""Acceptance gate: every release criterion runs at its pinned tolerance
and prints one PASS/FAIL line.  Run with -s to see the lines."""

import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from painleve_calogero import (
    EllipticContext,
    PhaseState,
    SystemDescriptor,
    half_period_values,
    hamiltonian,
    hamiltonian_gradients,
    integrate,
    painleve_residual,
    time_map_pvi,
)
from painleve_calogero.verify import (
    SCHEDULES,
    asymptotics_checks,
    reports_to_json,
    run_correspondence_suite,
    run_dynamic_correspondence,
    run_identity_suite,
    run_suite,
)
from painleve_calogero.verify.correspondence import default_aux, sample_calogero_state
from painleve_calogero.verify.degeneration import RATIO_MIN
from tests.conftest import painleve_state

PI = math.pi
# written by `painleve-calogero verify --suite all --seed <seed> --out <file>`;
# regenerate them, and list the rows that moved, when the numerics move on purpose
GOLDEN_VERIFY = {seed: Path(__file__).parent / "data" / f"verify_all_seed{seed}.json"
                 for seed in (7, 1000)}
EQS = ("VI", "V", "IV", "III", "II", "I")


def _report(criterion, passed, detail):
    print(f"\nacceptance {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_elliptic_identity_suite():
    """Identity suite at pinned tolerances over tau in {i, 1.5i, 0.4+2i}."""
    reports = run_identity_suite(seed=7)
    wanted = ("identity.periodicity", "identity.addition", "identity.shift",
              "identity.lemma3_fd", "identity.heat", "identity.lemma4")
    relevant = [r for r in reports if r.check_id.startswith(wanted)]
    assert len(relevant) >= 18  # six identities x three tau
    worst = max(relevant, key=lambda r: r.max_error / r.tolerance)
    _report("criterion 1 (elliptic identities)",
            all(r.passed for r in relevant),
            f"worst {worst.check_id}: {worst.max_error:.2e} vs {worst.tolerance:.1e}")


def test_criterion_2_large_imtau_asymptotics():
    """e_k and t expansions at Im tau = 8 plus the wp decay-slope row."""
    ctx = EllipticContext(8j)
    e1, e2, e3 = half_period_values(ctx)
    t = time_map_pvi(8j)
    checks = {
        "e2-e1+pi^2": (abs(e2 - e1 + PI**2), 1e-6),
        "e1-2pi^2/3": (abs(e1 - 2 * PI**2 / 3), 1e-6),
        "t-1-16 q": (abs(t - 1 - 16 * cmath.exp(1j * PI * 8j)), 1e-8),
    }
    ok = all(err < tol for err, tol in checks.values())

    # log-error slope of wp vs pi^2/sin^2 - pi^2/3 across Im tau in {4, 6, 8},
    # as the identity suite measures it: passed <=> |log(r / e^{4 pi})| <= log 3
    slope = next(r for r in asymptotics_checks() if r.check_id == "asymptotic.wp_decay_slope")
    detail = ", ".join(f"{k}={v[0]:.1e}" for k, v in checks.items())
    _report("criterion 2 (large-Im-tau asymptotics)", ok and slope.passed,
            detail + f", slope ratios {slope.metadata['ratios']}")


def test_criterion_3_gradient_checks():
    """Analytic gradients vs central FD: 6 equations x 2 sides x ranks {1,3},
    30 random points each, rel err < 1e-6."""
    h = 1e-6
    worst = 0.0
    worst_case = ""
    rng = np.random.default_rng(11)
    for eq in EQS:
        for side in ("painleve", "calogero"):
            for rank in (1, 3):
                g4 = 0.7 + 0j if rank == 3 else 0j
                sd = SystemDescriptor(eq, side, rank, g4, default_aux(eq))
                for _ in range(30):
                    st = sample_calogero_state(eq, rank, rng) if side == "calogero" \
                        else painleve_state(eq, rank, rng)
                    dc, dm = hamiltonian_gradients(sd, st)
                    for j in range(rank):
                        for which in ("coords", "momenta"):
                            vals = []
                            for s in (h, -h):
                                c, m = list(st.coords), list(st.momenta)
                                (c if which == "coords" else m)[j] += s
                                vals.append(hamiltonian(
                                    sd, PhaseState(tuple(c), tuple(m), st.time)))
                            fd = (vals[0] - vals[1]) / (2 * h)
                            an = (dc if which == "coords" else dm)[j]
                            rel = abs(an - fd) / max(1.0, abs(fd))
                            if rel > worst:
                                worst, worst_case = rel, f"{eq}/{side}/rank{rank}"
    _report("criterion 3 (gradient checks)", worst < 1e-6,
            f"worst rel err {worst:.2e} at {worst_case}")


def test_criterion_4_transformation_theorems():
    """Vector-field pushforward equality, 100 points rank 1 and 50 points
    rank 3 with g4^2 = 0.7, rel err < 1e-5, all six equations."""
    worst = 0.0
    worst_case = ""
    ok = True
    for eq in EQS:
        for rank, n, g4 in ((1, 100, 0j), (3, 50, 0.7 + 0j)):
            rep = run_correspondence_suite(eq, rank, n_points=n, seed=7, g4sq=g4)
            ok &= rep.passed
            if rep.max_error > worst:
                worst, worst_case = rep.max_error, rep.check_id
    _report("criterion 4 (canonical transformation theorems)", ok,
            f"worst {worst_case}: {worst:.2e} vs 1e-05")


def test_criterion_5_dynamic_correspondence():
    """Two-path endpoint discrepancy < 1e-6 on arcs of length 0.3, rank 1."""
    worst = 0.0
    worst_eq = ""
    ok = True
    for eq in EQS:
        rep = run_dynamic_correspondence(eq, 1, arc_length=0.3, seed=7)
        ok &= rep.passed
        if rep.max_error > worst:
            worst, worst_eq = rep.max_error, eq
    _report("criterion 5 (dynamic correspondence)", ok,
            f"worst P{worst_eq}: {worst:.2e} vs 1e-06")


def test_criterion_6_degeneration_suite():
    """PVI->PV defect ratio in [3.3, 30]; elliptic->hyperbolic potential
    residual < 1e-3 at eps = 1e-4; at-least-first-order shrinkage for the
    remaining schedules."""
    d1 = SCHEDULES["pvi_to_pv"].defect(1e-2, 7)
    d2 = SCHEDULES["pvi_to_pv"].defect(1e-3, 7)
    ratio_ok = 3.3 <= d1 / d2 <= 30
    pot = SCHEDULES["elliptic_to_hyperbolic"].defect(1e-4, 7)
    pot_ok = pot < 1e-3
    details = [f"PVI->PV ratio {d1/d2:.3g}", f"potential residual {pot:.2e}"]
    others_ok = True
    for name in ("hyperbolic_to_rational", "hyperbolic_to_exp_hyperbolic",
                 "rational_to_second_rational", "exp_hyperbolic_to_second_rational",
                 "second_rational_to_pi"):
        sched = SCHEDULES[name]
        e1, e2 = sched.eps_pair
        r = sched.defect(e1, 7) / sched.defect(e2, 7)
        others_ok &= RATIO_MIN <= r <= sched.ratio_max
        details.append(f"{name} ratio {r:.3g}")
    _report("criterion 6 (degeneration suite)", ratio_ok and pot_ok and others_ok,
            "; ".join(details))


def test_criterion_7_painleve_residuals():
    """Integrated Painleve-side trajectories satisfy the printed
    second-order equations with residual < 1e-4."""
    arcs = {
        "VI": (2.2 + 0.4j, 2.8 + 0.6j, 1.45 + 0.35j),
        "V": (0.83 + 0.21j, 1.4 + 0.4j, 1.45 + 0.35j),
        "IV": (0.62 + 0.18j, 0.62 + 0.18j + 0.48 * (1 + 0.5j) / abs(1 + 0.5j), 0.9 + 0.25j),
        "III": (0.91 + 0.24j, 1.5 + 0.4j, 1.45 + 0.35j),
        "II": (0.54 + 0.13j, 1.1 + 0.3j, 1.45 + 0.35j),
        "I": (0.1 + 0j, 0.7 + 0j, 0.2 + 0.1j),
    }
    worst = 0.0
    worst_eq = ""
    for eq, (t0, t1, lam0) in arcs.items():
        sd = SystemDescriptor(eq, "painleve", params=default_aux(eq))
        st = PhaseState((lam0,), (0.4 - 0.1j,) if eq != "I" else (0.3,), t0)
        traj = integrate(sd, st, t1, 1e-10, 1e-12)
        assert traj.completed, eq
        res = painleve_residual(traj)
        if math.isnan(res):  # ``res > worst`` would skip it
            res = math.inf
        if res > worst:
            worst, worst_eq = res, eq
    _report("criterion 7 (Painleve residuals)", worst < 1e-4,
            f"worst P{worst_eq}: {worst:.2e} vs 1e-04")


def test_criterion_8_determinism():
    """Repeated runs of the full suite at seed 7 are byte-identical to each
    other, and the runs at seeds 7 and 1000 to their checked-in golden reports."""
    runs = {seed: run_suite("all", seed=seed) for seed in GOLDEN_VERIFY}
    a = reports_to_json(runs[7])
    b = reports_to_json(run_suite("all", seed=7))
    differ = [seed for seed, reports in runs.items()
              if (reports_to_json(reports) + "\n").encode() != GOLDEN_VERIFY[seed].read_bytes()]
    passed_all = all(r.passed for reports in runs.values() for r in reports)
    _report("criterion 8 (determinism)", a == b and not differ and passed_all,
            f"{'byte-identical' if a == b else 'MISMATCH'}, "
            f"{f'seeds {differ} DIFFER FROM' if differ else 'matches'} the golden reports, "
            f"suite {'all green' if passed_all else 'HAS FAILURES'}")


def test_criterion_8_without_numpy_simd_loops(tmp_path):
    """The dynamic rows at seed 7 do not depend on which SIMD loops numpy
    dispatches to: with AVX2 and AVX-512 switched off they still equal the
    golden report's (numpy ignores the feature names on other CPUs)."""
    out = tmp_path / "dynamic.json"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    subprocess.run([sys.executable, "-m", "painleve_calogero", "verify", "--suite", "dynamic",
                    "--seed", "7", "--out", str(out)],
                   env=env, capture_output=True, timeout=300, check=True)
    golden = [r for r in json.loads(GOLDEN_VERIFY[7].read_text())
              if r["check_id"].startswith("dynamic.")]
    rows = json.loads(out.read_text())
    differ = [a["check_id"] for a, b in zip(rows, golden) if a != b]
    _report("criterion 8 (no SIMD dependence)", len(rows) == len(golden) == 6 and not differ,
            f"{len(rows)} dynamic rows, {f'{differ} DIFFER' if differ else 'all equal'}")
