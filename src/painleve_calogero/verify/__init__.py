"""Numerical verification harness: every transformation theorem, elliptic
identity and degeneration limit as a pass/fail check with a JSON report.

A check reduces its per-point errors with ``report.worst`` (or
``report.worst_over`` for seeded draws): the largest error, and inf as soon
as one error is NaN, so a NaN fails its row instead of vanishing."""

from __future__ import annotations

from ..params import EQUATIONS
from .correspondence import (
    DEFAULT_AUX,
    default_aux,
    run_correspondence_suite,
    run_dynamic_correspondence,
)
from .degeneration import SCHEDULES, DegenerationSchedule, run_degeneration_suite
from .identities import DEFAULT_TAUS, asymptotics_checks, run_identity_suite
from .report import CheckReport, reports_to_json, sort_reports

RANK3_G4SQ = 0.7 + 0j

# 'all' runs the suites in this order; each looks the run_* names up at call
# time, so a replacement set on this module sees every call
_SUITES = {
    "identities": lambda seed: run_identity_suite(seed=seed),
    "correspondence": lambda seed: [
        run_correspondence_suite(eq, rank, n_points=100 if rank == 1 else 50, seed=seed,
                                 g4sq=0j if rank == 1 else RANK3_G4SQ)
        for eq in EQUATIONS for rank in (1, 3)],
    "dynamic": lambda seed: [run_dynamic_correspondence(eq, 1, seed=seed)
                             for eq in EQUATIONS],
    "degeneration": lambda seed: [r for sched in SCHEDULES.values()
                                  for r in run_degeneration_suite(sched, seed=seed)],
}
SUITE_NAMES = (*_SUITES, "all")


def run_suite(name: str, seed: int = 7) -> list[CheckReport]:
    """Run one named suite: identities|correspondence|dynamic|degeneration|all."""
    if name == "all":
        return [r for suite in _SUITES.values() for r in suite(seed)]
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return _SUITES[name](seed)


__all__ = [
    "CheckReport",
    "DegenerationSchedule",
    "SCHEDULES",
    "SUITE_NAMES",
    "DEFAULT_AUX",
    "DEFAULT_TAUS",
    "RANK3_G4SQ",
    "asymptotics_checks",
    "default_aux",
    "reports_to_json",
    "run_correspondence_suite",
    "run_degeneration_suite",
    "run_dynamic_correspondence",
    "run_identity_suite",
    "run_suite",
    "sort_reports",
]
