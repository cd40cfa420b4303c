"""Command-line front end: trajectories, verification suites, parameter maps.

Complex numbers serialize as two-element [re, im] arrays in JSON and as
paired re_/im_ columns in CSV.  Parameter files are flat JSON objects
keyed by the Hamiltonian symbol names of the chosen equation
(``params.AUX_KEYS``: kappa0, kappa1, theta, kappa for p6, ..., alpha for
p2, none for p1) plus optional g4sq.  Exit codes: 0 success, 1 usage error
(bad tolerances, non-finite input, a parameter key the equation does not
use and malformed input files included, a JSON true or false where a
number belongs too), 2 integration stopped at a movable pole, 3 a
``verify`` check failed.  ``integrate`` takes the rank from the length of
the initial state's ``coords``.  ``integrate --stats`` prints the step
counters to stderr; the trajectory output is the same with or without it.

    painleve-calogero integrate --equation p1 --side painleve \
        --initial i0.json --t-end 1 --out tr.csv
    painleve-calogero verify --suite all --seed 7 --out report.json
    painleve-calogero params --equation p6 --aux kappa0=1 kappa1=1 theta=1 kappa=0
"""

from __future__ import annotations

import argparse
import json
import sys

from .dynamics import COMPLETED, integrate
from .errors import PainleveCalogeroError
from .params import AUX_KEYS, PAINLEVE_KEYS, AuxParams, param_to_painleve
from .systems import PhaseState, SystemDescriptor
from .verify import SUITE_NAMES, reports_to_json, run_suite, sort_reports

EQUATION_FLAGS = {"p6": "VI", "p5": "V", "p4": "IV", "p3": "III", "p2": "II", "p1": "I"}


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", "").replace("i", "j"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from exc


def _is_number(x) -> bool:
    # bool is an int, but JSON true and false are not numbers
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _complex_from_json(value, name: str) -> complex:
    if _is_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(map(_is_number, value)):
        return complex(value[0], value[1])
    raise ValueError(f"{name}: expected number or [re, im] pair, got {value!r}")


def _complex_to_json(z: complex) -> list[float]:
    return [z.real, z.imag]


def _aux_value(key: str, value) -> complex:
    if not isinstance(value, str):
        return _complex_from_json(value, key)
    try:
        return _parse_complex(value)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _read_object(path: str, what: str) -> dict:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{what} {path} must hold a JSON object, got {type(raw).__name__}")
    return raw


def _load_aux(equation: str, source: list[str]) -> tuple[AuxParams, complex]:
    """Aux parameters from a JSON file path or inline key=val tokens; an
    equation with constants refuses an empty source, naming the keys."""
    if len(source) == 1 and "=" not in source[0]:
        raw = _read_object(source[0], "parameter file")
    else:
        raw = {}
        for tok in source:
            key, _, val = tok.partition("=")
            if not _:
                raise ValueError(f"expected key=value, got {tok!r}")
            raw[key] = val
    g4sq = _aux_value("g4sq", raw.pop("g4sq", 0))
    unknown = [k for k in raw if k not in AUX_KEYS[equation]]
    if unknown:
        raise ValueError(f"unknown parameters {unknown} for P{equation}; "
                         f"expected {list(AUX_KEYS[equation])} and optional g4sq")
    kw = {key: _aux_value(key, val) for key, val in raw.items()}
    missing = [k for k in AUX_KEYS[equation] if k not in kw]
    if missing:
        raise ValueError(f"P{equation} needs parameters {list(AUX_KEYS[equation])}; "
                         f"missing {missing}")
    return AuxParams(equation, **kw), g4sq


def _load_initial(path: str) -> PhaseState:
    raw = _read_object(path, "initial state")

    def vector(key):
        if not isinstance(raw[key], list):
            raise ValueError(f"{key}: expected a list, got {raw[key]!r}")
        return tuple(_complex_from_json(z, f"{key}[{j}]") for j, z in enumerate(raw[key]))

    return PhaseState(vector("coords"), vector("momenta"), _complex_from_json(raw["time"], "time"))


def _trajectory_csv(traj) -> str:
    rank = traj.system.rank
    header = ["re_t", "im_t"]
    for j in range(1, rank + 1):
        header += [f"re_l{j}", f"im_l{j}"]
    for j in range(1, rank + 1):
        header += [f"re_m{j}", f"im_m{j}"]
    lines = [",".join(header)]
    for time, state in traj.samples:
        row = [time.real, time.imag]
        for c in state.coords:
            row += [c.real, c.imag]
        for m in state.momenta:
            row += [m.real, m.imag]
        lines.append(",".join(repr(x) for x in row))
    return "\n".join(lines) + "\n"


def _trajectory_json(traj) -> str:
    doc = {
        "equation": traj.system.equation,
        "side": traj.system.side,
        "rank": traj.system.rank,
        "termination": traj.termination,
        "rel_tol": traj.rel_tol,
        "abs_tol": traj.abs_tol,
        "n_accepted": traj.n_accepted,
        "n_rejected": traj.n_rejected,
        "n_rejected_singular": traj.n_rejected_singular,
        "n_rhs": traj.n_rhs,
        "samples": [
            {
                "time": _complex_to_json(time),
                "coords": [_complex_to_json(c) for c in state.coords],
                "momenta": [_complex_to_json(m) for m in state.momenta],
            }
            for time, state in traj.samples
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_integrate(args) -> int:
    equation = EQUATION_FLAGS[args.equation]
    aux, g4sq = _load_aux(equation, [args.params] if args.params else [])
    initial = _load_initial(args.initial)
    sys_desc = SystemDescriptor(equation, args.side, initial.rank, g4sq, aux)
    traj = integrate(sys_desc, initial, args.t_end,
                     rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    text = _trajectory_csv(traj) if args.format == "csv" else _trajectory_json(traj)
    _write(args.out, text)
    if args.stats:
        print(f"stats: n_rhs={traj.n_rhs} n_accepted={traj.n_accepted} "
              f"n_rejected={traj.n_rejected} n_rejected_singular={traj.n_rejected_singular} "
              f"termination={traj.termination}", file=sys.stderr)
    if traj.termination != COMPLETED:
        print(f"integration stopped: {traj.termination} at {traj.samples[-1][0]}",
              file=sys.stderr)
        return 2
    return 0


def cmd_verify(args) -> int:
    reports = run_suite(args.suite, seed=args.seed)
    _write(args.out, reports_to_json(reports) + "\n")
    all_passed = True
    for rep in sort_reports(reports):
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} {rep.check_id}: max_error={rep.max_error:.3e} "
              f"tolerance={rep.tolerance:.3e}")
        all_passed &= rep.passed
    return 0 if all_passed else 3


def cmd_params(args) -> int:
    equation = EQUATION_FLAGS[args.equation]
    aux, _ = _load_aux(equation, args.aux or [])
    p = param_to_painleve(aux)
    # II prints its alpha and I nothing; VI..III print all four, IV its zeros too
    names = PAINLEVE_KEYS[equation] if equation in ("II", "I") else PAINLEVE_KEYS["VI"]
    result = {name: _complex_to_json(getattr(p, name)) for name in names}
    _write(args.out, json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="painleve-calogero",
        description="Painleve/Calogero correspondence: trajectories, parameter maps "
                    "and the numerical verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("integrate", help="integrate a canonical flow")
    p_int.add_argument("--equation", required=True, choices=sorted(EQUATION_FLAGS))
    p_int.add_argument("--side", default="painleve", choices=("painleve", "calogero"))
    p_int.add_argument("--params", default=None, help="JSON file with aux parameters")
    p_int.add_argument("--initial", required=True, help="JSON file with coords/momenta/time")
    p_int.add_argument("--t-end", required=True, type=_parse_complex)
    p_int.add_argument("--rel-tol", type=float, default=1e-8)
    p_int.add_argument("--abs-tol", type=float, default=1e-10)
    p_int.add_argument("--out", default=None)
    p_int.add_argument("--format", default="csv", choices=("csv", "json"))
    p_int.add_argument("--stats", action="store_true",
                       help="print the step counters and the termination to stderr")
    p_int.set_defaults(func=cmd_integrate)

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p_ver.add_argument("--seed", type=int, default=7)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_par = sub.add_parser("params", help="convert aux constants to (alpha..delta)")
    p_par.add_argument("--equation", required=True, choices=sorted(EQUATION_FLAGS))
    p_par.add_argument("--aux", nargs="*", default=None,
                       help="JSON file or inline key=val pairs")
    p_par.add_argument("--out", default=None)
    p_par.set_defaults(func=cmd_params)
    return parser


# built once: building costs several times what parsing one command line does
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (PainleveCalogeroError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
