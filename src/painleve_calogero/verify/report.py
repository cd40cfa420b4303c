"""Machine-readable pass/fail reports for the verification harness, and
the seeded draws behind them.

Each check draws from its own ``random.Random``, seeded by one int made of
the seed and the crc32 of the check id.  The draws go only through
``random()`` and ``uniform()``, whose output Python keeps the same across
versions for an int seed, so a seed names the same points on every
interpreter.  A seed that is not a non-negative integer is refused with
ValueError.
"""

from __future__ import annotations

import json
import math
import random
import zlib
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from ..errors import check_index


@dataclass
class CheckReport:
    """One numerical check: an error magnitude against a pinned tolerance.

    A NaN error (a ratio inf / inf, the spread of infinite values) is
    reported as inf, which fails like any other non-finite error."""

    check_id: str
    max_error: float
    tolerance: float
    samples: int
    passed: bool = field(init=False)
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.max_error = float(self.max_error)
        if math.isnan(self.max_error):
            self.max_error = math.inf
        self.tolerance = float(self.tolerance)
        self.passed = self.max_error <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "max_error": self.max_error,
            "tolerance": self.tolerance,
            "samples": self.samples,
            "passed": self.passed,
            "metadata": dict(sorted(self.metadata.items())),
        }


def sort_reports(reports: list[CheckReport]) -> list[CheckReport]:
    return sorted(reports, key=lambda r: r.check_id)


def reports_to_json(reports: list[CheckReport]) -> str:
    """Deterministic JSON array (sorted by check_id, sorted keys)."""
    return json.dumps([r.to_dict() for r in sort_reports(reports)], indent=2, sort_keys=True)


def rng_for(seed: int, check_id: str) -> random.Random:
    """Deterministic per-check generator derived from (seed, check_id):
    ``random.Random(seed << 32 | zlib.crc32(check_id))``.  The seed goes
    through ``check_index`` (numpy integers and bools pass, as the equal
    ``int``); one that is not a non-negative integer raises ValueError
    naming it."""
    return random.Random(check_index(seed, "seed", 0) << 32 | zlib.crc32(check_id.encode()))


def worst(errors: Iterable[float]) -> float:
    """The largest error: 0.0 when there are none, inf as soon as one is NaN
    (``max`` drops a NaN that is not its first argument, so the check would pass)."""
    out = 0.0
    for e in errors:
        if e != e:
            return math.inf
        if e > out:
            out = e
    return out


def worst_over(seed: int, check_id: str, n: int,
               point_error: Callable[[random.Random], float]) -> float:
    """``worst`` of n draws of ``point_error(rng)`` from one ``rng_for(seed, check_id)``."""
    rng = rng_for(seed, check_id)
    return worst(point_error(rng) for _ in range(n))


def cbox(rng, re_lo, re_hi, im_lo, im_hi) -> complex:
    """One complex sample uniform over a rectangle; ``rng`` is an ``rng_for``
    generator, or any other with a ``uniform(low, high)``."""
    return complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi))
