#!/usr/bin/env python3
"""Two-path experiment: integrate the Calogero flow and map the endpoint,
versus mapping the initial point and integrating the Painleve flow, over a
range of arc lengths.  The endpoint discrepancy should track the
integrator tolerance, independent of arc length, when the canonical
transformation intertwines the two flows.  Each arc is one
``run_dynamic_correspondence`` call from the same seeded initial point.

Usage: python scripts/two_path_experiment.py [--equation VI..I] [--rel-tol 1e-10] [--seed 7]
"""

import argparse
import sys

from painleve_calogero.verify.correspondence import (run_dynamic_correspondence,
                                                     sample_calogero_state)
from painleve_calogero.verify.report import rng_for

ARCS = (0.1, 0.2, 0.3, 0.5)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--equation", default="II", choices=("VI", "V", "IV", "III", "II", "I"))
    ap.add_argument("--rel-tol", type=float, default=1e-10)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)

    eq = args.equation
    initial = sample_calogero_state(eq, 1, rng_for(args.seed, f"two_path.{eq}"))
    print(f"P{eq}: initial q={initial.coords[0]:.4f} p={initial.momenta[0]:.4f} "
          f"T={initial.time:.4f}")
    print(f"{'arc':>6} {'max_error':>11} {'samples':>8}  termination (calogero/painleve)")
    for arc in ARCS:
        rep = run_dynamic_correspondence(eq, 1, initial=initial, arc_length=arc,
                                         rel_tol=args.rel_tol, abs_tol=args.rel_tol * 1e-2)
        meta = rep.metadata
        print(f"{arc:6.2f} {rep.max_error:11.3e} {rep.samples:8d}  "
              f"{meta['cal_termination']}/{meta['pain_termination']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
