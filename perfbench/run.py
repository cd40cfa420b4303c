#!/usr/bin/env python3
"""Benchmark of the painleve_calogero library: one workload per run.

    python3 perfbench/run.py --workload verify-core --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  One client, one process, one thread, closed loop:
each operation starts when the previous one has finished.  All timing is
taken from outside the package, around public calls.

The timed phase runs the workload's inputs in rounds, each input once per
round, so every input is timed several times.  The host is shared: the same
input takes up to twice as long while a neighbour contends for the core.
Operation times are therefore each input's fastest run, and ``wall_s`` is a
round at those times: their sum.

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1`` runs
each round untraced and then traced on the same inputs (see spans.py) and
prints the per-layer metrics, the tracing overhead, the accuracy of ``wp``
against an mpmath reference and the self-check of the wrapper placement.
Outputs are checked after the timed phase.  Human-readable lines and an ``info`` JSON
line come first; the last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3
# the timed phase runs at least this many rounds, even past --seconds
MIN_ROUNDS = 3
PROBE_TIMEOUT_S = 120
# per-operation error/tolerance below this reads as 12 digits (exact agreement)
RATIO_FLOOR = 1e-12
# output tags of traced operations start here, apart from the untraced ones
TRACED_TAG0 = 1_000_000


def import_package():
    """Import painleve_calogero from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "painleve_calogero" / "__init__.py").is_file():
        print(f"error: no painleve_calogero package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import painleve_calogero

    if Path(painleve_calogero.__file__).resolve().parent != (src / "painleve_calogero").resolve():
        print(f"error: imported {painleve_calogero.__file__}, not the checkout's", file=sys.stderr)
        sys.exit(2)


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--probe", action="store_true",
                    help="internal: set up, run the warm-up, print the ready time, exit")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


# ---------------------------------------------------------------------------
# timed loop and checks
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Record:
    """One operation: input index, output tag, duration, result or error."""

    index: int
    tag: int
    seconds: float
    result: object
    error: str | None


def run_rounds(wl, items, seconds=None, rounds=None, tag0=0, on_op=None):
    """Closed loop in rounds: each round runs items[1:] once, in order;
    operation k writes its output under tag tag0 + k.

    Stops after the first round that ends past ``seconds`` once MIN_ROUNDS
    have run, or after ``rounds`` rounds.  Returns (records, round durations).
    """
    records, durations = [], []
    began = time.perf_counter()
    k = 0
    while True:
        round_start = time.perf_counter()
        for index in range(1, len(items)):
            if on_op is not None:
                on_op(tag0 + k)
            t0 = time.perf_counter()
            try:
                result, error = wl.op(items[index], tag0 + k), None
            except Exception as exc:  # an operation that raises is a failed operation
                result, error = None, f"{type(exc).__name__}: {exc}"
            records.append(Record(index, tag0 + k, time.perf_counter() - t0, result, error))
            k += 1
        durations.append(time.perf_counter() - round_start)
        if rounds is not None and len(durations) >= rounds:
            return records, durations
        if (seconds is not None and len(durations) >= MIN_ROUNDS
                and time.perf_counter() - began >= seconds):
            return records, durations


def best_per_input(records) -> list[float]:
    """Fastest time of each input over the rounds: contention on the shared
    host only adds time, so the fastest run is the input's own cost."""
    best: dict[int, float] = {}
    for rec in records:
        best[rec.index] = min(rec.seconds, best.get(rec.index, math.inf))
    return list(best.values())


def check_all(wl, items, records, failures):
    """Check every output; append one message per failed operation to
    ``failures`` and return the error/tolerance ratios measured, one dict
    of {check: ratio} per checked operation."""
    from workloads import CheckFailed

    measured = []
    for rec in records:
        if rec.error is not None:
            failures.append(f"op {rec.tag}: {rec.error}")
            continue
        try:
            ratios = wl.check(items[rec.index], rec.result)
        except CheckFailed as exc:
            failures.append(f"op {rec.tag}: {exc}")
            measured.append(exc.ratios)
            continue
        except Exception as exc:  # a check that cannot read the output fails the operation
            failures.append(f"op {rec.tag}: check: {type(exc).__name__}: {exc}")
            continue
        measured.append(ratios)
        worst = max(ratios.values())
        if not worst <= 1.0:
            failures.append(f"op {rec.tag}: error/tolerance {worst:.3g} > 1")
    return measured


def digits(ratio: float) -> float:
    return -math.log10(max(ratio, RATIO_FLOOR))


def accuracy_digits(measured: list[dict[str, float]]) -> float:
    """digits of the worst check, each check taken at its median over the
    operations; a median, unlike the run's single worst output, does not
    grow with the number of operations a faster program fits in the run."""
    by_check: dict[str, list[float]] = {}
    for ratios in measured:
        for check, ratio in ratios.items():
            by_check.setdefault(check, []).append(ratio)
    if not by_check:
        return 0.0
    return digits(max(statistics.median(v) for v in by_check.values()))


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten values beyond it.

    With n sorted values that is the (n-10)-th smallest; with n < 11 no such
    percentile exists and the smallest value is reported.
    """
    xs = sorted(values)
    i = max(0, len(xs) - 11)
    return xs[i], f"p{100.0 * (i + 1) / len(xs):.1f}"


# ---------------------------------------------------------------------------
# set-up time, machine description
# ---------------------------------------------------------------------------

def probe_setup(args) -> list[float]:
    """Seconds from process start to ready-for-the-first-timed-operation,
    measured in fresh processes on CLOCK_MONOTONIC (shared across processes)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--probe"]
    out = []
    for _ in range(SETUP_PROBES):
        launched = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              cwd=ROOT)
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or lines[0] != "PROBE_READY":
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-500:]}")
        out.append(float(lines[1]) - launched)
    return out


def host_loop_ms(reps: int = 5) -> float:
    """Median time of a fixed pure-Python loop.  The host's speed drifts, so
    this records how fast it ran, for comparing runs taken at different times."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def git_sha() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_info(args, load_at_start) -> dict:
    import mpmath
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load_at_start),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(args, wl, items):
    """Untraced run: returns (metrics, info, records, failures, self-check problems)."""
    setups = probe_setup(args)
    records, rounds = run_rounds(wl, items, seconds=args.seconds)
    failures: list[str] = []
    checked = time.perf_counter()
    measured = check_all(wl, items, records, failures)
    checked = time.perf_counter() - checked
    times = best_per_input(records)
    tail_s, tail_name = tail(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (math.fsum(times), "s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "accuracy_digits": (accuracy_digits(measured), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "setup_s_probes": setups,
        "round_ops": len(items) - 1,
        "rounds_s": rounds,
        "op_tail_percentile": tail_name,
        "op_samples": len(times),
        "accuracy_digits_worst_output": min((digits(r) for m in measured for r in m.values()),
                                            default=None),
        "accuracy_checked_ops": len(measured),
        "timed_s": sum(rounds),
        "check_s": checked,
    }
    return metrics, info, records, failures, []


def traced(args, wl, items):
    """Traced run: returns (per-layer metrics, info, records, failures, self-check problems)."""
    from elliptic_ref import wp_rel_err_grid
    from spans import SERIES, THETAS, SpanStats, Tracer

    # each round runs untraced, then traced on the same inputs, so the two
    # halves see the same machine conditions and the overhead is a fair ratio
    tracer = Tracer()

    def mark(tag):
        tracer.current_op = tag

    plain, spanned = [], []
    began = time.perf_counter()
    while time.perf_counter() - began < args.seconds:
        k = len(plain)
        plain += run_rounds(wl, items, rounds=1, tag0=k)[0]
        tracer.install()
        try:
            spanned += run_rounds(wl, items, rounds=1, tag0=TRACED_TAG0 + k, on_op=mark)[0]
        finally:
            tracer.restore()
    n_ops = len(spanned)
    records = plain + spanned
    failures: list[str] = []
    check_all(wl, items, records, failures)

    wall_plain = sum(r.seconds for r in plain)
    wall_traced = sum(r.seconds for r in spanned)
    st = SpanStats(tracer)
    per_op = 1.0 / n_ops
    wp, wpp = st.count("elliptic.wp"), st.count("elliptic.wp_prime")
    contexts = st.count("elliptic.context")
    fields = st.count("systems.field")
    n_rhs = sum(t[1] for t in tracer.trajectories)
    accepted = sum(t[2] for t in tracer.trajectories)
    rejected = sum(t[3] for t in tracer.trajectories)
    series_per_field = st.per_ancestor("systems.field", *SERIES)
    wp_grid = wp_rel_err_grid(args.seed)
    m = {
        "elliptic.wp.calls": (wp * per_op, "count"),
        "elliptic.wp.self_us": (st.mean_excl_us("elliptic.wp"), "us"),
        "elliptic.wp_prime.calls": (wpp * per_op, "count"),
        "elliptic.wp_prime.self_us": (st.mean_excl_us("elliptic.wp_prime"), "us"),
        "elliptic.contexts": (contexts * per_op, "count"),
        "elliptic.half_period_values.calls": (st.count("elliptic.half_period_values") * per_op,
                                              "count"),
        "elliptic.wp_per_context": (wp / contexts if contexts else 0.0, "ratio"),
        "elliptic.theta.calls": (st.count(*THETAS) * per_op, "count"),
        "elliptic.theta.self_us": (st.mean_excl_us(*THETAS), "us"),
        "elliptic.f_and_derivatives.calls": (st.count("elliptic.f_and_derivatives") * per_op,
                                             "count"),
        "elliptic.self_share": (st.layer_excl("elliptic") / wall_traced, "ratio"),
        "elliptic.wp.rel_err_max": (max(r["rel_err_max"] for r in wp_grid), "ratio"),
        "systems.field.calls": (fields * per_op, "count"),
        "systems.field.self_us": (st.mean_layer_self_us("systems.field"), "us"),
        "systems.field.series_per_call": (float(series_per_field.mean()) if fields else 0.0,
                                          "count"),
        "systems.gradients.calls": (st.count("systems.gradients") * per_op, "count"),
        "systems.hamiltonian.calls": (st.count("systems.hamiltonian") * per_op, "count"),
        "transforms.to_painleve.calls": (st.count("transforms.to_painleve") * per_op, "count"),
        "transforms.to_painleve.self_us": (st.mean_layer_self_us("transforms.to_painleve"), "us"),
        "transforms.time_map_inverse.contexts": (
            float(st.per_ancestor("transforms.time_map_inverse", "elliptic.context").sum())
            * per_op, "count"),
        "dynamics.rhs_per_op": (n_rhs * per_op, "count"),
        "dynamics.accepted": (accepted * per_op, "count"),
        "dynamics.rejected": (rejected * per_op, "count"),
        "dynamics.accept_ratio": (accepted / (accepted + rejected) if accepted else 0.0, "ratio"),
        "dynamics.self_us_per_rhs": (st.total_excl("dynamics.integrate") / n_rhs * 1e6
                                     if n_rhs else 0.0, "us"),
        "verify.correspondence_s": (st.total_dur("verify.correspondence") * per_op, "s"),
        "verify.dynamic_s": (st.total_dur("verify.dynamic") * per_op, "s"),
        "verify.degeneration_s": (st.total_dur("verify.degeneration") * per_op, "s"),
        "cli.self_s": (st.total_excl("cli.main") * per_op, "s"),
        "trace.overhead_frac": (wall_traced / wall_plain - 1, "ratio"),
    }
    self_check = wrapper_self_check(args.workload, st, fields)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}.npz"
    tracer.save(spans_path)
    info = {
        "traced_ops": n_ops,
        "untraced_ops": len(plain),
        "spans": len(st.dur),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "wp_rel_err_by_tau": wp_grid,
        "wrapper_self_check": self_check or "passed",
    }
    return m, info, records, failures, self_check


def wrapper_self_check(workload: str, st, fields: int) -> list[str]:
    """Exact counts that only hold if every wrapper sits where it is looked up."""
    problems = []
    if workload == "pvi-flow-rank3":
        wp = st.per_ancestor("systems.field", "elliptic.wp")
        wpp = st.per_ancestor("systems.field", "elliptic.wp_prime")
        ctx = st.per_ancestor("systems.field", "elliptic.context")
        if fields == 0 or not ((wp == 18).all() and (wpp == 18).all() and (ctx == 1).all()):
            problems.append("self-check: a PVI rank-3 field call is not 18 wp + 18 wp' + 1 context")
    if workload == "painleve-poly":
        n_elliptic = sum(st.count(s) for s in st.names if s.startswith("elliptic."))
        if n_elliptic:
            problems.append(f"self-check: painleve-poly made {n_elliptic} elliptic calls")
    return problems


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    import_package()
    from workloads import WORKLOADS, make_workload

    args = parse_args(argv, sorted(WORKLOADS))
    host_at_start = host_loop_ms()

    work = OUT / (f"work-{args.workload}" + ("-probe" if args.probe else ""))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = make_workload(args.workload, work)
        items = wl.make_items(args.seed)
        wl.op(items[0], -1)  # warm-up: lazy imports and first-use costs
        if args.probe:
            print("PROBE_READY", repr(time.monotonic()))
            return 0
        if args.trace:
            metrics, info, records, failures, problems = traced(args, wl, items)
        else:
            metrics, info, records, failures, problems = end_to_end(args, wl, items)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info.update(machine_info(args, load_at_start))
    info["host_loop_ms"] = [host_at_start, host_loop_ms()]
    info["attempted"] = len(records)
    info["failed"] = len(failures)
    info["fail_frac"] = len(failures) / len(records)
    info["failures"] = failures[:20]
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:16.6g} {unit}")
    if "op_tail_ms" in metrics:
        print(f"op_tail_ms is {info['op_tail_percentile']} of {info['op_samples']} inputs' "
              f"fastest runs, over {len(info['rounds_s'])} rounds")
    print(f"failed {len(failures)} of {len(records)} operations; fail_frac {info['fail_frac']:.4g}")
    print(json.dumps({"info": info}))
    result = {
        "correct": not failures and not problems,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
