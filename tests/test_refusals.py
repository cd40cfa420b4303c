"""Refusal contract of the public API, by a seeded fuzz over ``__all__``.

Every public function either returns or raises a declared error: a
``PainleveCalogeroError`` or a ``ValueError`` (bad input); ``integrate``
may also end early with a tagged termination.  Each draw takes arguments
in the period cell, large, tiny, huge, at special points (lattice points,
half periods, 0 and 1) or non-finite, with tau at eight values of
Im tau from 0.01 to 20, where a series takes at most about 680 terms per
side.  Where tau is the argument, the draws also take taus a context
refuses: not finite, Im tau <= 0, or below the floor ``MIN_IM_TAU`` = 1e-3
(0.3 + 1e-4j and 1e-300j).  Parameter sets, and the systems holding
them, are built inside the fuzzed call (``_Later``): one set in
ten has a non-finite constant and one in ten a constant its equation does
not read, and their refusal is then that call's declared error.
"""

import cmath
import math
import numbers
import random
from dataclasses import fields

import pytest

import painleve_calogero as pc
from painleve_calogero.dynamics import COMPLETED, MAX_STEPS, POLE_DETECTED, STEP_UNDERFLOW
from painleve_calogero.elliptic import asymptotic_p23_sum
from painleve_calogero.errors import (
    CoordinateSingularity,
    MapSingularity,
    PainleveCalogeroError,
    PoleAt,
)
from painleve_calogero.params import AUX_KEYS, EQUATIONS, PAINLEVE_KEYS
from painleve_calogero.verify.correspondence import default_aux

DECLARED = (PainleveCalogeroError, ValueError)
TERMINATIONS = (COMPLETED, POLE_DETECTED, STEP_UNDERFLOW, MAX_STEPS)
TAUS = (0.01j, 0.3 + 0.02j, 0.1j, -0.4 + 0.5j, 1j, 0.13 + 1.17j, 3j, 20j)
# a field call at Im tau = 0.01 sums about 600 nome terms per series; the
# flows keep to the cheaper end so that the fuzz stays a few seconds
FLOW_TAUS = (-0.4 + 0.5j, 1j, 0.13 + 1.17j, 3j)
BAD_TAUS = (0j, -1j, 0.5 - 0.2j, complex("nan"), complex(0, math.inf), 1e-300j, 0.3 + 1e-4j)
NONFINITE = (complex("nan"), complex(math.inf, 0), complex(1, -math.inf))
HUGE = 1e160 + 1e160j  # finite, but its square overflows


def _z(rng, tau=1j):
    """A complex number of a drawn kind; the cell is that of ``tau``."""
    kind = rng.choice(("cell", "cell", "cell", "large", "tiny", "huge", "special", "nonfinite"))
    if kind == "cell":
        return rng.uniform(-0.5, 0.5) + rng.uniform(-0.5, 0.5) * tau
    if kind == "special":
        return rng.choice((0j, 1 + 0j, 0.5 + 0j, tau / 2, (1 + tau) / 2, tau, 1 + tau))
    if kind == "nonfinite":
        return rng.choice(NONFINITE)
    lo, hi = {"large": (1, 3), "tiny": (-300, -10), "huge": (100, 300)}[kind]
    return 10 ** rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))


def _eq(rng):
    return rng.choice(EQUATIONS)


def _finite(rng):
    z = _z(rng)
    return z if cmath.isfinite(z) else _finite(rng)


class _Later:
    """A constructor call made inside the fuzzed call, where its refusal is
    that call's declared error rather than a skipped draw."""

    def __init__(self, cls, *args, **kwargs):
        self.cls, self.args, self.kwargs = cls, args, kwargs

    def __repr__(self):
        return f"{self.cls.__name__}(*{self.args!r}, **{self.kwargs!r})"


def _built(x):
    return x.cls(*map(_built, x.args), **x.kwargs) if isinstance(x, _Later) else x


def _params(rng, cls, eq):
    """A parameter set of ``eq`` built by ``_Later``: finite constants of its
    own, but one set in ten has a non-finite one and one in ten a nonzero
    constant ``eq`` does not read."""
    keys = (AUX_KEYS if cls is pc.AuxParams else PAINLEVE_KEYS)[eq]
    unread = [f.name for f in fields(cls) if f.name not in keys + ("equation",)]
    kw = {k: _finite(rng) for k in keys}
    r = rng.random()
    if r < 0.1 and keys:
        kw[rng.choice(keys)] = rng.choice(NONFINITE)
    elif r < 0.2 and unread:
        kw[rng.choice(unread)] = _finite(rng) or 1.0
    return _Later(cls, eq, **kw)


def _aux(rng, eq):
    return _params(rng, pc.AuxParams, eq)


def _time(rng, eq, side):
    """tau from TAUS for the PVI Calogero flow, any time otherwise."""
    return rng.choice(TAUS) if (eq, side) == ("VI", "calogero") else _z(rng)


def _ctx(rng, eq, time):
    """Mostly one for VI and none for PV..PI, which refuse it."""
    if rng.random() < (0.3 if eq == "VI" else 0.9):
        return None
    return pc.EllipticContext(time if eq == "VI" else rng.choice(TAUS))


def _state(rng, rank, time, tau=1j):
    return pc.PhaseState(tuple(_z(rng, tau) for _ in range(rank)),
                         tuple(_z(rng, tau) for _ in range(rank)), time)


def _system(rng, eq, side, rank):
    params = _params(rng, pc.AuxParams if rng.random() < 0.7 else pc.PainleveParams, eq)
    return _Later(pc.SystemDescriptor, eq, side, rank, rng.choice((0j, 0.7, _z(rng))), params)


# ---------------------------------------------------------------------------
# one draw per public name: (args, kwargs) for the call
# ---------------------------------------------------------------------------

def _elliptic_u(rng):
    tau = rng.choice(TAUS)
    return (_z(rng, tau), pc.EllipticContext(tau)), {}


def _draw_constructor_tau(rng):
    return (rng.choice(TAUS + BAD_TAUS + (_z(rng),)),), {}


def _draw_time_map_tau(rng):
    return (rng.choice(TAUS + BAD_TAUS),), {}


def _draw_shifted_p(rng):
    (u, ctx), _ = _elliptic_u(rng)
    return (u, rng.choice((-1, 0, 1, 2, 3, 4, 1.0)), ctx), {}


def _draw_asymptotic_p(rng):
    return (_z(rng), rng.randrange(-1, 5), rng.choice(TAUS + BAD_TAUS[:3])), {}


def _draw_half_period_values(rng):
    return (pc.EllipticContext(rng.choice(TAUS)),), {}


def _draw_time_map_inverse(rng):
    return (_z(rng), rng.choice(TAUS)), {}


def _draw_lambda_of_q(rng):
    eq = _eq(rng)
    time = _time(rng, eq, "calogero")
    return (eq, _z(rng), time), {}


def _hint(rng):
    return None if rng.random() < 0.4 else _z(rng)


def _draw_q_of_lambda(rng):
    eq = _eq(rng)
    time = _time(rng, eq, "calogero")
    return (eq, _z(rng), time, _hint(rng)), {}


def _map_aux(rng, eq):
    return _aux(rng, eq if rng.random() < 0.9 else _eq(rng))


def _draw_mu_of_pq(rng):
    eq = _eq(rng)
    time = _time(rng, eq, "calogero")
    return (eq, _z(rng), _z(rng), time, _map_aux(rng, eq)), {}


def _draw_pq_of_lambdamu(rng):
    eq = _eq(rng)
    time = _time(rng, eq, "calogero")
    return (eq, _z(rng), _z(rng), time, _map_aux(rng, eq), _hint(rng)), {}


def _draw_multi_transform(rng):
    eq = _eq(rng)
    direction = rng.choice(("to_painleve", "to_calogero", "sideways"))
    rank = rng.randrange(1, 3)
    if direction == "to_calogero":
        state = _state(rng, rank, _z(rng))
        ctx = _ctx(rng, eq, rng.choice(TAUS))
    else:
        time = _time(rng, eq, "calogero")
        state = _state(rng, rank, time)
        ctx = _ctx(rng, eq, time)
    hints = None if rng.random() < 0.5 else tuple(_z(rng) for _ in range(rank))
    return (eq, direction, state, _map_aux(rng, eq), ctx, hints), {}


def _draw_params(rng):
    eq = rng.choice(EQUATIONS + ("VII",))
    return (eq, *(_z(rng) for _ in range(4))), {}


def _draw_param_to_painleve(rng):
    return (_aux(rng, _eq(rng)),), {}


def _draw_phase_state(rng):
    return (tuple(_z(rng) for _ in range(rng.randrange(0, 3))),
            tuple(_z(rng) for _ in range(rng.randrange(0, 3))), _z(rng)), {}


def _draw_system_descriptor(rng):
    eq = rng.choice(EQUATIONS + ("VII",))
    params = rng.choice((None, _aux(rng, _eq(rng)), _params(rng, pc.PainleveParams, _eq(rng))))
    rank = rng.choice((-1, 0, 1, 2, 3, 2.5))
    return (eq, rng.choice(("painleve", "calogero", "other")), rank, _z(rng), params), {}


def _draw_field_call(rng):
    eq, side, rank = _eq(rng), rng.choice(("painleve", "calogero")), rng.randrange(1, 3)
    time = _time(rng, eq, side)
    tau = time if (eq, side) == ("VI", "calogero") else 1j
    state_rank = rank if rng.random() < 0.9 else 3 - rank
    return (_system(rng, eq, side, rank), _state(rng, state_rank, time, tau)), {}


def _short_run(rng, side, rank, max_steps):
    """(system, initial, t_end) of a short integration and its keywords."""
    eq = _eq(rng)
    if (eq, side) == ("VI", "calogero"):
        t0 = rng.choice(FLOW_TAUS)
        coords = tuple(rng.uniform(0.1, 0.4) + rng.uniform(0.1, 0.4) * t0 for _ in range(rank))
    else:
        t0 = complex(rng.uniform(0.3, 2), rng.uniform(0.05, 0.5))
        coords = tuple(_z(rng) if rng.random() < 0.3 else complex(rng.uniform(0.3, 2),
                                                                   rng.uniform(0, 0.6))
                       for _ in range(rank))
    momenta = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rank))
    span = 0.05 * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    t_end = t0 + span if rng.random() < 0.95 else rng.choice(NONFINITE)
    tols = rng.choice(((1e-8, 1e-10),) * 6 + ((0.0, 1e-10), (1e-8, -1.0), (math.nan, 0.0)))
    sys = _Later(pc.SystemDescriptor, eq, side, rank, rng.choice((0j, 0.7)), _aux(rng, eq))
    return (sys, pc.PhaseState(coords, momenta, t0), t_end, *tols), {"max_steps": max_steps}


def _draw_integrate(rng):
    max_steps = rng.choice((6,) * 6 + (-1, 2.5, None, "3"))
    return _short_run(rng, rng.choice(("painleve", "calogero")), rng.randrange(1, 3), max_steps)


def _draw_painleve_residual(rng):
    side = "painleve" if rng.random() < 0.9 else "calogero"
    args, kwargs = _short_run(rng, side, rng.randrange(1, 3), 40)
    try:
        traj = pc.integrate(*map(_built, args), **kwargs)
    except DECLARED:
        traj = pc.integrate(pc.SystemDescriptor("I", side), pc.PhaseState((0.1,), (0.1,), 0.5),
                            0.55)
    return (traj,), {}


def _draw_painleve_ode_rhs(rng):
    eq = _eq(rng)
    return (_z(rng), _z(rng), _z(rng), _params(rng, pc.PainleveParams, eq)), {}


DRAWS = {
    "AuxParams": lambda rng: ((_eq(rng),), {k: _z(rng) for k in AUX_KEYS["VI"]}),
    "EllipticContext": _draw_constructor_tau,
    "PainleveParams": _draw_params,
    "PhaseState": _draw_phase_state,
    "SystemDescriptor": _draw_system_descriptor,
    "asymptotic_p": _draw_asymptotic_p,
    "canonical_field": _draw_field_call,
    "f_and_derivatives": _elliptic_u,
    "half_period_values": _draw_half_period_values,
    "hamiltonian": _draw_field_call,
    "hamiltonian_gradients": _draw_field_call,
    "integrate": _draw_integrate,
    "jacobian_dtau_dt": _draw_time_map_tau,
    "lambda_of_q": _draw_lambda_of_q,
    "mu_of_pq": _draw_mu_of_pq,
    "multi_transform": _draw_multi_transform,
    "painleve_ode_rhs": _draw_painleve_ode_rhs,
    "painleve_residual": _draw_painleve_residual,
    "param_to_painleve": _draw_param_to_painleve,
    "pq_of_lambdamu": _draw_pq_of_lambdamu,
    "q_of_lambda": _draw_q_of_lambda,
    "shifted_p": _draw_shifted_p,
    "theta": _elliptic_u,
    "theta_dtau": _elliptic_u,
    "theta_du": _elliptic_u,
    "time_map_pvi": _draw_time_map_tau,
    "time_map_pvi_inverse": _draw_time_map_inverse,
    "weierstrass_p": _elliptic_u,
    "weierstrass_p_and_prime": _elliptic_u,
    "weierstrass_p_prime": _elliptic_u,
}
# not callable: the record integrate returns
NOT_FUZZED = {"Trajectory"}
DRAWS_PER_NAME = {"integrate": 40, "painleve_residual": 12}
# a PhaseState stores its arguments as given, and a residual reads inf at
# a NaN point: every other returned number is finite
MAY_RETURN_NONFINITE = {"PhaseState", "painleve_residual"}


def _numbers(out):
    """Every number in a returned value: tuples, the fields of a PhaseState
    and the samples of a Trajectory unpacked."""
    if isinstance(out, pc.Trajectory):
        out = out.samples
    if isinstance(out, pc.PhaseState):
        out = (out.coords, out.momenta, out.time)
    if isinstance(out, (tuple, list)):
        for x in out:
            yield from _numbers(x)
    elif isinstance(out, numbers.Complex):
        yield out


@pytest.mark.parametrize("call, error", (
    (lambda: pc.asymptotic_p(220 + 128j, 2, -0.4 + 0.5j), ValueError),  # cos overflows
    (lambda: pc.asymptotic_p(0, 0, 1j), PoleAt),
    (lambda: asymptotic_p23_sum(0.1 + 60j, 1j), ValueError),  # cos overflows
    (lambda: pc.q_of_lambda("V", 0.5 + 0.2j, 0.8, branch_hint=complex(1, -math.inf)), ValueError),
    (lambda: pc.q_of_lambda("III", 0.5 + 0.2j, 0.8, branch_hint=complex("nan")), ValueError),
    (lambda: pc.painleve_ode_rhs(0, 1, 0.5, pc.PainleveParams("IV")), CoordinateSingularity),
    (lambda: pc.painleve_ode_rhs(1e300, 0, 1, pc.PainleveParams("II")), CoordinateSingularity),
    (lambda: pc.mu_of_pq("VI", 0.5, 0.1, 0.3 + 0.02j, default_aux("VI")), MapSingularity),
    (lambda: pc.param_to_painleve(pc.AuxParams("VI", kappa0=1e200)), ValueError),
    (lambda: pc.canonical_field(pc.SystemDescriptor("I", "painleve", 2, complex("nan")),
                                pc.PhaseState((0.1, 0.5), (0.1, 0.2), 0.5)), ValueError),
    (lambda: pc.canonical_field(pc.SystemDescriptor("I", "painleve", 2, 1e308),
                                pc.PhaseState((0.1, 0.5), (0.1, 0.2), 0.5)), CoordinateSingularity),
    (lambda: pc.canonical_field(pc.SystemDescriptor("IV", "calogero", 2, 1e308),
                                pc.PhaseState((0.1, 0.5), (0.1, 0.2), 0.5)), CoordinateSingularity),
    (lambda: pc.hamiltonian(pc.SystemDescriptor("I", "painleve", 2, 1e308),
                            pc.PhaseState((0.1, 0.5), (0.1, 0.2), 0.5)), CoordinateSingularity),
    (lambda: pc.canonical_field(
        pc.SystemDescriptor("II", "painleve", 1, params=pc.PainleveParams("II", alpha=0.1)),
        pc.PhaseState((1e200 + 1e200j,), (0.1,), 0.5)), CoordinateSingularity),
    *((lambda eq=eq: pc.canonical_field(pc.SystemDescriptor(eq, "painleve", 1,
                                                            params=default_aux(eq)),
                                        pc.PhaseState((0.3 + 0.1j,), (HUGE,), 0.5 + 0.1j)),
       CoordinateSingularity) for eq in ("VI", "V", "IV", "III")),
    (lambda: pc.hamiltonian(pc.SystemDescriptor("VI", "painleve", 1, params=default_aux("VI")),
                            pc.PhaseState((0.3 + 0.1j,), (HUGE,), 0.5 + 0.1j)),
     CoordinateSingularity),
    *((lambda eq=eq: pc.painleve_ode_rhs(1e200 + 1e200j, 0.1, 0.5 + 0.1j,
                                         pc.param_to_painleve(default_aux(eq))),
       CoordinateSingularity) for eq in ("VI", "V", "IV", "III")),
    (lambda: pc.lambda_of_q("IV", 1e200 + 1e200j, 0.5 + 0.1j), MapSingularity),
    (lambda: pc.canonical_field(
        pc.SystemDescriptor("III", "calogero", 1,
                            params=pc.PainleveParams("III", alpha=1, beta=1)),
        pc.PhaseState((700,), (0.1,), 1e-11)), CoordinateSingularity),  # dH/dq / t
    (lambda: pc.asymptotic_p(complex(math.inf, 0), 3, -0.4 + 0.5j), ValueError),
), ids=("asymptotic_p-overflow", "asymptotic_p-pole", "asymptotic_p23_sum-overflow",
        "q_of_lambda-inf-hint", "q_of_lambda-nan-hint", "ode_rhs-zero", "ode_rhs-overflow",
        "mu_of_pq-VI-lambda-0", "param_to_painleve-overflow", "system-nan-g4sq",
        "field-I-painleve-huge-g4sq", "field-IV-calogero-huge-g4sq", "hamiltonian-huge-g4sq",
        "field-II-painleve-huge-lambda", "field-VI-painleve-huge-mu", "field-V-painleve-huge-mu",
        "field-IV-painleve-huge-mu", "field-III-painleve-huge-mu", "hamiltonian-VI-huge-mu",
        "ode_rhs-VI-huge-lambda", "ode_rhs-V-huge-lambda", "ode_rhs-IV-huge-lambda",
        "ode_rhs-III-huge-lambda", "lambda_of_q-IV-huge-q", "field-III-calogero-log-gauge",
        "asymptotic_p-inf-u"))
def test_escapes_found_by_the_fuzz_are_refused(call, error):
    # an OverflowError, a ZeroDivisionError, or (the NaN hint, the NaN
    # coupling, the huge one and the huge coordinates and momenta) an input
    # silently ignored or spread into NaN or inf
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call", (
    lambda: pc.AuxParams("V", kappa0=0.31, theta=0.22 - 0.11j, eta1=0.35, kappa=0.17),
    lambda: pc.PainleveParams("IV", alpha=1, beta=2, gamma=5, delta=7),
    lambda: pc.PainleveParams("I", alpha=0.5),
    lambda: pc.AuxParams("VI", kappa0=math.nan),
    lambda: pc.PainleveParams("II", alpha=complex(1, math.inf)),
    lambda: pc.param_to_painleve(pc.AuxParams("IV", kappa0=1e200)),
    lambda: pc.param_to_painleve(pc.AuxParams("III", eta_inf=1e200, theta_inf=1)),
), ids=("aux-unread-theta", "painleve-unread-gamma-delta", "painleve-I-alpha",
        "aux-nan", "painleve-inf", "param_to_painleve-IV-product", "param_to_painleve-III-product"))
def test_parameter_sets_refuse_unread_and_nonfinite_constants(call):
    # each was accepted, and evaluated as if absent or infinite
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("name, call", (
    *(("max_steps", lambda bad=bad: pc.integrate(
        pc.SystemDescriptor("I", "painleve"), pc.PhaseState((0.1,), (0.1,), 0.5), 0.55,
        max_steps=bad)) for bad in (-1, 2.5, None, "3")),
    ("half-period index n", lambda: pc.shifted_p(0.1, 1.0, pc.EllipticContext(1j))),
    ("half-period index n", lambda: pc.asymptotic_p(0.1, 1.0, 1j)),
    ("rank", lambda: pc.SystemDescriptor("I", "painleve", 2.5)),
), ids=("integrate-max_steps-negative", "integrate-max_steps-float", "integrate-max_steps-None",
        "integrate-max_steps-str", "shifted_p-float-n", "asymptotic_p-float-n",
        "system-float-rank"))
def test_integer_arguments_refuse_anything_but_an_integer_in_range(name, call, no_field_calls):
    # each was accepted, run as if an integer or raised TypeError; integrate
    # made one field call first, and with max_steps=-1 returned 'max_steps'
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call()


def test_the_fuzz_covers_every_public_name():
    assert set(DRAWS) | NOT_FUZZED == set(pc.__all__)


@pytest.mark.parametrize("name", sorted(DRAWS))
def test_only_declared_errors_escape(name):
    rng = random.Random(f"refusals.{name}")
    fn = getattr(pc, name)
    for i in range(DRAWS_PER_NAME.get(name, 100)):
        try:
            args, kwargs = DRAWS[name](rng)
        except DECLARED:
            continue  # a drawn argument (such as a context) was itself refused
        try:
            out = fn(*map(_built, args), **kwargs)
        except DECLARED:
            continue
        except Exception as exc:  # the contract under test: nothing else escapes
            pytest.fail(f"draw {i}: {name}(*{args!r}, **{kwargs!r}) raised "
                        f"{type(exc).__name__}: {exc}")
        if isinstance(out, pc.Trajectory):
            assert out.termination in TERMINATIONS
        if name not in MAY_RETURN_NONFINITE:
            assert all(map(cmath.isfinite, _numbers(out))), \
                f"draw {i}: {name}(*{args!r}, **{kwargs!r}) returned {out!r}"
