"""The benchmark's traced run finds its wrappers where it looks them up.

``perfbench/run.py --trace 1`` wraps every name in ``perfbench/spans.py``
``TARGETS`` and pins the elliptic passes of one PVI rank-3 field call in
``wrapper_self_check``.  This test runs one such call under the tracer, so
a renamed target or a changed pass count fails here and not only in a
traced benchmark run.  It reads ``perfbench/`` and changes nothing there.
"""

import importlib
from pathlib import Path

from painleve_calogero import SystemDescriptor, systems
from painleve_calogero.verify import RANK3_G4SQ
from painleve_calogero.verify.correspondence import default_aux, sample_calogero_state

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
