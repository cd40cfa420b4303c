"""The benchmark's traced run finds its wrappers where it looks them up.

``perfbench/run.py --trace 1`` wraps every name in ``perfbench/spans.py``
``TARGETS`` and pins the elliptic passes of one PVI rank-3 field call in
``wrapper_self_check``.  The first test runs one such call under the
tracer, so a renamed target or a changed pass count fails here and not only
in a traced benchmark run.  The second runs the operation ``pvi-flow-rank3``
times, a rank-3 PVI Calogero flow over a short tau-arc, so that the path
from ``integrate`` to each field call is traced too.  The third runs the
bypass workload's kind of operation, a rank-3 PVI Painleve-side flow, which
must make no elliptic call.  They read ``perfbench/`` and change nothing
there.
"""

import importlib
from pathlib import Path

from painleve_calogero import SystemDescriptor, dynamics, systems
from painleve_calogero.dynamics import COMPLETED
from painleve_calogero.verify import RANK3_G4SQ
from painleve_calogero.verify.correspondence import default_aux, sample_calogero_state
from tests.conftest import painleve_state

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_pvi_rank3_field_call_passes_the_wrapper_self_check(monkeypatch, rng):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run, spans = importlib.import_module("run"), importlib.import_module("spans")
    sd = SystemDescriptor("VI", "calogero", 3, RANK3_G4SQ, default_aux("VI"))
    state = sample_calogero_state("VI", 3, rng)
    tracer = spans.Tracer()
    tracer.install()
    try:
        systems.canonical_field(sd, state)  # looked up on the module, as the CLI does
    finally:
        tracer.restore()
    stats = spans.SpanStats(tracer)
    assert stats.count("systems.field") == 1
    assert run.wrapper_self_check("pvi-flow-rank3", stats, 1) == []


def test_traced_pvi_rank3_calogero_flow_passes_the_wrapper_self_check(monkeypatch, rng):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run, spans = importlib.import_module("run"), importlib.import_module("spans")
    sd = SystemDescriptor("VI", "calogero", 3, RANK3_G4SQ, default_aux("VI"))
    state = sample_calogero_state("VI", 3, rng)
    tracer = spans.Tracer()
    tracer.install()
    try:
        # the workload's tau-arc of length 0.01 at its tolerance
        traj = dynamics.integrate(sd, state, state.time + 0.01 * (1 + 0.2j), 1e-10)
    finally:
        tracer.restore()
    stats = spans.SpanStats(tracer)
    fields = stats.count("systems.field")
    assert traj.termination == COMPLETED
    assert fields == traj.n_rhs > 0
    assert run.wrapper_self_check("pvi-flow-rank3", stats, fields) == []


def test_traced_pvi_rank3_painleve_flow_makes_no_elliptic_call(monkeypatch, rng):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run, spans = importlib.import_module("run"), importlib.import_module("spans")
    sd = SystemDescriptor("VI", "painleve", 3, RANK3_G4SQ, default_aux("VI"))
    state = painleve_state("VI", 3, rng)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traj = dynamics.integrate(sd, state, state.time + 0.1)
    finally:
        tracer.restore()
    stats = spans.SpanStats(tracer)
    fields = stats.count("systems.field")
    assert traj.termination == COMPLETED
    assert fields == traj.n_rhs > 0
    assert run.wrapper_self_check("painleve-poly", stats, fields) == []
