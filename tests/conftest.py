import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import painleve_calogero
from painleve_calogero import EllipticContext, PhaseState, dynamics, elliptic


def painleve_state(eq, rank, rng, time=None):
    """Generic Painleve-side point away from {0, 1, t} as applicable."""
    t = (0.83 + 0.21j) if time is None else time
    lams, mus = [], []
    for j in range(rank):
        lam = complex(1.45 + 0.8 * j + 0.2 * rng.uniform(), 0.35 + 0.2 * rng.uniform())
        lams.append(lam)
        mus.append(complex(rng.uniform(0.2, 0.7), rng.uniform(-0.3, 0.3)))
    return PhaseState(tuple(lams), tuple(mus), t)


def run_fresh(code: str, *args: str) -> str:
    """stdout of ``code`` run in a new interpreter that imports this package."""
    src = str(Path(painleve_calogero.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def contexts(monkeypatch):
    """A one-item list counting the ``EllipticContext`` constructions."""
    count = [0]
    post_init = EllipticContext.__post_init__

    def counting(ctx):
        count[0] += 1
        post_init(ctx)

    monkeypatch.setattr(EllipticContext, "__post_init__", counting)
    return count


@pytest.fixture
def passes(monkeypatch):
    """A one-item list counting the wp/wp' series passes (``_nome_start`` calls)."""
    count = [0]
    nome_start = elliptic._nome_start

    def counting(u, ctx):
        count[0] += 1
        return nome_start(u, ctx)

    monkeypatch.setattr(elliptic, "_nome_start", counting)
    return count


@pytest.fixture
def no_field_calls(monkeypatch):
    """Fail the test at any field call ``integrate`` makes."""
    def fail(*args):
        raise AssertionError("the field was called")

    monkeypatch.setattr(dynamics, "canonical_field", fail)
