"""Machine-readable pass/fail reports for the verification harness."""

from __future__ import annotations

import json
import math
import zlib
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


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


def rng_for(seed: int, check_id: str) -> np.random.Generator:
    """Deterministic per-check generator derived from (seed, check_id):
    numpy's PCG64.  numpy is imported here, at a run's first seeded draw,
    not when the harness is imported."""
    import numpy as np

    return np.random.default_rng([seed, zlib.crc32(check_id.encode())])


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
               point_error: Callable[[np.random.Generator], float]) -> float:
    """``worst`` of n draws of ``point_error(rng)`` from one ``rng_for(seed, check_id)``."""
    rng = rng_for(seed, check_id)
    return worst(point_error(rng) for _ in range(n))


def cbox(rng: np.random.Generator, re_lo, re_hi, im_lo, im_hi) -> complex:
    """One complex sample uniform over a rectangle."""
    return complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi))
