"""Adaptive integration of the canonical flows and ODE residual checks.

The integrator is Dormand and Prince's 8(5,3) pair (DOP853; Hairer,
Norsett and Wanner, Solving ODEs I, sec. II.5) with Hairer's step-size
controller, propagating the complex state along a straight segment in the
system's own time variable (tau for the PVI Calogero flow, t otherwise);
each field call reads the time, and so the PVI lattice, from its own state.
The first step comes from the field, by Hairer's starting-step algorithm
(``HINIT`` of dop853.f), at the cost of one probe call; after the first
accepted step the step may grow by up to 1e4 (CVODE's first-step bound),
after any other by up to 6.  A step has twelve stages; the field at the
accepted point is a thirteenth, reused as the next step's first, so a
rejected step costs eleven field calls and an accepted one twelve.  A step
sums the stages over the nonzero tableau entries only, in plain Python
complex arithmetic.  A step is accepted when Hairer's combined 5th/3rd-order
error estimate is <= 1 against ``_TOL_MARGIN`` = 0.1 times the requested
tolerance.  Bad tolerances and a non-finite initial state or end time raise
ValueError before any field call.
Movable poles are detected (state magnitude blow-up or step underflow) and
stop the integration with a tagged, partial trajectory; there is no
automatic path deformation around them.  Rejected steps are counted, the
singular ones (a stage raised or went non-finite) also on their own.

Dense output retakes a partial DOP853 step from the left end of the
segment holding the requested point, so what post-processing reads does
not depend on how finely the integrator stepped.  ``painleve_residual``
resamples a Painleve-side trajectory through it and measures how well
lambda(t) satisfies the printed second-order Painleve equation of the
trajectory's own system, using 4th-order finite-difference stencils; it
refuses a trajectory without an accepted step, and a coupled
multi-component one, with ValueError.
"""

from __future__ import annotations

import bisect
import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from operator import itemgetter

from .elliptic import check_tau
from .errors import CoordinateSingularity, PoleAt, check_finite, check_index
from .params import PainleveParams
from .systems import PhaseState, SystemDescriptor, canonical_field, check_state

# Dormand-Prince 8(5,3) tableau (DOP853), from Hairer's dop853.f.  Row 12
# of _A is the 8th-order weights _B and its node is 1: the thirteenth stage
# is the field at the accepted point.  _E5 and _E3 weigh the first twelve
# stages into the 5th- and 3rd-order error estimates.
_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
    0.8571428571428571, 1.0, 1.0,
)
_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (
        0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
        -0.015319437748624402, 0.008273789163814023,
    ),
    (
        0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
        27.59209969944671, 20.154067550477894, -43.48988418106996,
    ),
    (
        0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
        21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627,
    ),
    (
        -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
        -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
        -3.0467644718982196,
    ),
    (
        2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
        -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
        12.360567175794303, 0.6433927460157636,
    ),
    (
        0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
        -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
        0.04471061572777259,
    ),
)
_B = _A[12]
_E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294,
)
_E3 = (
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082,
)

# The (stage, coefficient) pairs of the nonzero entries of each row of _A
# and of _E5 and _E3, which is all a step sums: 16 of the 66 stage
# coefficients and 4 of the 12 in _B, _E5 and _E3 are 0.
def _nonzero(row: tuple) -> tuple:
    return tuple((j, a) for j, a in enumerate(row) if a != 0)


_A_PAIRS = tuple(map(_nonzero, _A))
_E5_PAIRS = _nonzero(_E5)
_E3_PAIRS = _nonzero(_E3)

# Each step's error estimate is held to this fraction of the requested
# tolerance.  The combined estimate is sharper than an embedded-pair
# difference, and taken at face value it loosens the global error.
_TOL_MARGIN = 0.1
_SINGULAR = (CoordinateSingularity, PoleAt, OverflowError, ZeroDivisionError)

BLOWUP_LIMIT = 1e8
_MIN_STEP_FRACTION = 1e-13

COMPLETED = "completed"
POLE_DETECTED = "pole_detected"
STEP_UNDERFLOW = "step_underflow"
MAX_STEPS = "max_steps"


@dataclass
class Trajectory:
    """Ordered samples of one integration, with dense-output segments.

    ``samples`` holds (time, PhaseState) at accepted steps; times are
    strictly monotone in the path parameter.  ``termination`` is one of
    'completed', 'pole_detected', 'step_underflow', 'max_steps' (the pole
    time, when detected, is the last sample time).  ``n_rejected_singular``
    counts the rejected steps where a stage raised or went non-finite; the
    other rejections failed the error estimate.  ``n_rhs`` counts the field
    calls of the integration, the ones the field refused included.
    """

    system: SystemDescriptor
    samples: list[tuple[complex, PhaseState]]
    rel_tol: float
    abs_tol: float
    termination: str
    n_accepted: int = 0
    n_rejected: int = 0
    n_rejected_singular: int = 0
    n_rhs: int = 0
    # dense segments: (s0, s1, y0, f0) in the path parameter, and the field
    # (path parameter, state) -> d state / d(path parameter) that retakes them
    _dense: list[tuple] = field(default_factory=list, repr=False)
    _field: Callable[[float, list], list] | None = field(default=None, repr=False)

    @property
    def completed(self) -> bool:
        return self.termination == COMPLETED

    def interpolate(self, s: float) -> tuple[complex, ...]:
        """State (coords then momenta) at path parameter s in [0, s_last];
        any other s, NaN included, raises ``ValueError``.

        One DOP853 step of length s - s0 from the left end (s0, y0, f0) of
        the segment holding s; at the right end it is the accepted step
        again, so every sample is returned exactly.  A stage the field
        refuses (a non-finite y0 or f0 included) raises as the field does.
        """
        s_last = self._dense[-1][1] if self._dense else 0.0
        if not 0.0 <= s <= s_last:
            raise ValueError(f"s must lie in [0, {s_last}], got {s!r}")
        if not self._dense:
            st = self.samples[0][1]
            return st.coords + st.momenta
        i = min(bisect.bisect_left(self._dense, s, key=itemgetter(1)), len(self._dense) - 1)
        s0, _, y0, f0 = self._dense[i]
        y, _ = _step(self._field, s0, y0, float(s) - s0, f0)
        return tuple(y)

    def resample(self, n: int) -> tuple[tuple[complex, ...], tuple[tuple[complex, ...], ...]]:
        """(times, states) on a uniform grid of n points over the full arc,
        each state as ``interpolate`` returns it; n must be an integer >= 2
        (``ValueError`` otherwise)."""
        n = check_index(n, "n", 2)
        s_end = self._dense[-1][1] if self._dense else 0.0
        t0 = self.samples[0][0]
        t1 = self.samples[-1][0]
        step = s_end / (n - 1)
        grid = [k * step for k in range(n - 1)] + [s_end]
        times = tuple(t0 + (t1 - t0) * (s / s_end if s_end else s) for s in grid)
        return times, tuple(map(self.interpolate, grid))


def _check_tolerances(rel_tol, abs_tol) -> None:
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError(f"rel_tol must be finite and > 0, got {rel_tol!r}")
    if not (math.isfinite(abs_tol) and abs_tol >= 0):
        raise ValueError(f"abs_tol must be finite and >= 0, got {abs_tol!r}")


def _combine(y: list, h: float, pairs: tuple, k: list) -> list:
    """y + h (a_1 k_1 + a_2 k_2 + ...) componentwise, over the (j, a_j)
    pairs of nonzero coefficients; each sum runs left to right from 0j."""
    out = []
    for c, yc in enumerate(y):
        acc = 0j
        for j, a in pairs:
            acc += a * k[j][c]
        out.append(yc + h * acc)
    return out


def _step(rhs, s: float, y: list, h: float, f0: list) -> tuple[list, list]:
    """One DOP853 step of length h from (s, y), where the field is f0:
    the 8th-order update and the twelve stages."""
    k = [f0]
    for i in range(1, 12):
        k.append(rhs(s + _C[i] * h, _combine(y, h, _A_PAIRS[i], k)))
    return _combine(y, h, _A_PAIRS[12], k), k


def _moduli(v: list) -> list:
    # hypot returns inf where a modulus overflows; abs(complex) raises
    return [math.hypot(z.real, z.imag) for z in v]


def _initial_step(rhs, y: list, f0: list, rel_tol: float, abs_tol: float) -> float:
    """The first step length, by ``HINIT`` of Hairer's dop853.f at order 8
    (Hairer, Norsett and Wanner, Solving ODEs I, sec. II.4), capped at the
    whole segment, 1.

    In norms scaled by abs_tol + rel_tol * |y0| (the requested tolerance,
    without ``_TOL_MARGIN``), an Euler guess h0 = 0.01 |y0| / |f0| probes
    the field once at (h0, y0 + h0 f0), and the start h satisfies
    h^8 max(|f0|, |f1 - f0| / h0) = 0.01, at most 100 h0.  A component
    whose scale is 0 is left out.  A norm that is not finite reads as
    degenerate (h0 = 1e-6), and a probe the field refuses, or one that
    leaves the second-derivative estimate non-finite, starts at h0."""
    scales = [abs_tol + rel_tol * m for m in _moduli(y)]

    def norm(v: list) -> float:  # root sum of squares, inf where a square overflows
        sq = 0.0
        for m, sk in zip(_moduli(v), scales):
            if sk:
                r = m / sk
                sq += r * r
        return math.sqrt(sq)

    d0, d1 = norm(y), norm(f0)
    if 1e-5 < d0 < math.inf and 1e-5 < d1 < math.inf:
        h0 = min(0.01 * d0 / d1, 1.0)
    else:
        h0 = 1e-6
    try:
        f1 = rhs(h0, [yc + h0 * fc for yc, fc in zip(y, f0)])
    except _SINGULAR:
        return h0
    der12 = max(norm([a - b for a, b in zip(f1, f0)]) / h0, d1)
    if not der12 < math.inf:  # also NaN
        return h0
    if der12 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / der12) ** (1 / 8)
    return min(100 * h0, h1, 1.0)


def _error_norm(h: float, k: list, y_max: list, rel_tol: float, abs_tol: float) -> float:
    """Hairer's combined estimate h err5^2 / sqrt(err5^2 + 0.01 err3^2) in
    RMS norms scaled by _TOL_MARGIN * (abs_tol + rel_tol * y_max), each
    sum over the nonzero weights.  A component whose scale is 0 (abs_tol =
    0 at a component that is 0) adds 0 when its err5 and err3 sums are both
    exactly 0; otherwise it makes the estimate NaN, which rejects the step,
    as does an err5 sum whose modulus overflows."""
    sq5 = sq3 = 0.0
    for c, m in enumerate(y_max):
        e5 = e3 = 0j
        for j, a in _E5_PAIRS:
            e5 += a * k[j][c]
        for j, a in _E3_PAIRS:
            e3 += a * k[j][c]
        scale = _TOL_MARGIN * (abs_tol + rel_tol * m)
        if scale == 0:
            if e5 == 0 and e3 == 0:
                continue
            return math.nan
        r5 = math.hypot(e5.real, e5.imag) / scale
        r3 = math.hypot(e3.real, e3.imag) / scale
        sq5 += r5 * r5
        sq3 += r3 * r3
    if sq5 == 0:
        return 0.0
    return h * sq5 / math.sqrt((sq5 + 0.01 * sq3) * len(y_max))


def integrate(sys: SystemDescriptor, initial: PhaseState, t_end: complex,
              rel_tol: float = 1e-8, abs_tol: float = 1e-10,
              max_steps: int = 100000) -> Trajectory:
    """Integrate the canonical equations along the straight time segment.

    The segment runs from initial.time to t_end in the system's own time
    variable; it must keep distance > 1e-3 from the fixed singularities
    (t = 0 and, for VI, t = 1), and the PVI Calogero flow must start and end
    at a tau ``elliptic.check_tau`` takes (``BadContext`` otherwise).
    ``rel_tol`` must be finite and > 0, ``abs_tol`` finite and >= 0 and
    ``max_steps`` an integer >= 0; anything else, or a non-finite entry in
    ``initial`` or ``t_end``, raises ``ValueError``, all before any field
    call.  Movable poles terminate the trajectory with a 'pole_detected'
    or 'step_underflow' tag instead of raising; an overflowing step is
    rejected, not raised.

    The first step is ``HINIT``'s (see ``_initial_step``): it follows the
    field at the start and one probe call, not the length of the segment.
    Each step is a DOP853 step of twelve stages, accepted when its error
    estimate is <= 1 against ``_TOL_MARGIN`` (0.1) times the tolerance
    abs_tol + rel_tol * |y|.  Hairer's controller then scales the step by
    0.9 err^(-1/8), within [0.333, 6], or within [0.333, 1e4] after the
    first accepted step, so that its error estimate sizes the second step;
    after a rejection the step does not grow.  The field at the accepted
    point is a thirteenth stage, reused as the next step's first (first
    same as last).  ``n_rhs`` counts every field call, one the field
    refuses included, so a run that attempts a step, with no singular
    rejection, makes 2 + 11 * (n_accepted + n_rejected) + n_accepted field
    calls (the probe counts; with ``max_steps=0`` there is no probe).  The
    trajectory keeps each step's start and field for ``interpolate``.
    """
    _check_tolerances(rel_tol, abs_tol)
    max_steps = check_index(max_steps, "max_steps", 0)
    check_finite("initial state", *initial.coords, *initial.momenta, initial.time)
    check_finite("t_end", t_end)
    check_state(sys, initial)
    t0 = complex(initial.time)
    t1 = complex(t_end)
    span = t1 - t0
    _check_segment(sys, t0, t1)
    n = sys.rank

    def field_at(s: float, y: list) -> list:
        time = t0 + s * span
        dq, dp = canonical_field(sys, PhaseState(y[:n], y[n:], time))
        return [span * v for v in dq + dp]

    traj = Trajectory(sys, [(t0, initial)], rel_tol, abs_tol, COMPLETED, _field=field_at)
    if span == 0:
        return traj

    def rhs(s: float, y: list) -> list:  # field_at, counting the call before it is made
        traj.n_rhs += 1
        return field_at(s, y)

    y = list(initial.coords + initial.momenta)
    abs_y = _moduli(y)
    s = 0.0
    last_rejected = False
    f_now = rhs(s, y)
    if max_steps:  # a run allowed no step makes no probe
        h = _initial_step(rhs, y, f_now, rel_tol, abs_tol)

    for _ in range(max_steps):
        if s >= 1.0:
            return traj
        h = min(h, 1.0 - s)
        if h < _MIN_STEP_FRACTION:
            traj.termination = STEP_UNDERFLOW
            return traj
        s_new = s + h
        h = s_new - s  # the length interpolate retakes from s to s_new
        try:
            y_new, k = _step(rhs, s, y, h, f_now)
        except _SINGULAR:
            singular = True
        else:
            # complex products overflow to inf or nan without raising
            singular = not all(map(cmath.isfinite, y_new))
        if singular:
            err = math.inf
        else:
            abs_new = _moduli(y_new)
            err = _error_norm(h, k, list(map(max, abs_y, abs_new)), rel_tol, abs_tol)
        if err <= 1.0:
            if max(abs_new) > BLOWUP_LIMIT:
                traj.termination = POLE_DETECTED
                return traj
            try:
                f_new = rhs(s_new, y_new)  # the thirteenth stage
            except _SINGULAR:
                singular, err = True, math.inf
        if err <= 1.0:
            t_new = t0 + s_new * span
            traj._dense.append((s, s_new, y, f_now))
            traj.samples.append((t_new, PhaseState(y_new[:n], y_new[n:], t_new)))
            traj.n_accepted += 1
            y, s, f_now, abs_y = y_new, s_new, f_new, abs_new
            # Hairer's controller: safety 0.9, factor in [0.333, 6], and no
            # growth on the step after a rejection; after the first accepted
            # step, the factor may reach 1e4 (CVODE's first-step bound), so
            # the first real error estimate sizes the second step
            fac_max = 1e4 if traj.n_accepted == 1 else 6.0
            fac = fac_max if err == 0 else min(fac_max, max(0.333, 0.9 * err ** (-1 / 8)))
            h *= min(1.0, fac) if last_rejected else fac
            last_rejected = False
        else:
            traj.n_rejected += 1
            if singular:
                traj.n_rejected_singular += 1
            if not math.isfinite(err):
                h *= 0.2
            else:
                h *= max(0.333, 0.9 * err ** (-1 / 8))
            last_rejected = True
    if s < 1.0:
        traj.termination = MAX_STEPS
    return traj


def _check_segment(sys, t0, t1):
    # Im tau is linear along the segment, so its two ends vet all of it
    if sys.time_gauge == "tau":
        check_tau(t0)
        check_tau(t1)
    for b in sys.singular_times:
        if _segment_distance(t0, t1, b) < 1e-3:
            raise CoordinateSingularity(
                f"integration segment passes within 1e-3 of the fixed singularity t={b}")


def _segment_distance(a: complex, b: complex, p: complex) -> float:
    """Distance from point p to the segment [a, b]."""
    ab = b - a
    if ab == 0:
        return abs(p - a)
    s = ((p - a) * ab.conjugate()).real / abs(ab) ** 2
    s = min(1.0, max(0.0, s))
    return abs(p - (a + s * ab))


# ---------------------------------------------------------------------------
# residual of the printed second-order Painleve equations
# ---------------------------------------------------------------------------

def painleve_ode_rhs(lam: complex, dlam: complex, t: complex, p: PainleveParams) -> complex:
    """Right-hand side of lambda'' = F(lambda, lambda', t) as printed, for
    the equation ``p`` is tagged with.  A division by zero (lambda or t at
    a fixed singular point), an overflow or a value that is not finite (a
    non-finite argument included) raises ``CoordinateSingularity``."""
    eq, a, b, g, d = p.equation, p.alpha, p.beta, p.gamma, p.delta
    try:
        if eq == "VI":
            f = ((1 / lam + 1 / (lam - 1) + 1 / (lam - t)) / 2 * dlam**2
                 - (1 / t + 1 / (t - 1) + 1 / (lam - t)) * dlam
                 + lam * (lam - 1) * (lam - t) / (t**2 * (t - 1) ** 2)
                 * (a + b * t / lam**2 + g * (t - 1) / (lam - 1) ** 2
                    + d * t * (t - 1) / (lam - t) ** 2))
        elif eq == "V":
            f = ((1 / (2 * lam) + 1 / (lam - 1)) * dlam**2 - dlam / t
                 + lam * (lam - 1) ** 2 / t**2
                 * (a + b / lam**2 + g * t / (lam - 1) ** 2
                    + d * t**2 * (lam + 1) / (lam - 1) ** 3))
        elif eq == "IV":
            f = (dlam**2 / (2 * lam) + 1.5 * lam**3 + 4 * t * lam**2
                 + 2 * (t * t - a) * lam + b / lam)
        elif eq == "III":
            # last bracket term is delta*t^2/lam^3: this is what the polynomial
            # Hamiltonian flow satisfies, and what reproduces the standard PIII
            # under (t, lambda) -> (t^2, t*lambda)
            f = (dlam**2 / lam - dlam / t
                 + lam**2 / (4 * t**2)
                 * (a + b * t / lam**2 + g * lam + d * t**2 / lam**3))
        elif eq == "II":
            f = 2 * lam**3 + t * lam + a
        else:  # PI
            f = 6 * lam**2 + t
        # complex products overflow to inf or nan without raising
        if not cmath.isfinite(f):
            raise OverflowError
    except (ZeroDivisionError, OverflowError) as exc:
        raise CoordinateSingularity(f"the P{eq} right-hand side is singular or overflows at "
                                    f"lambda={lam}, lambda'={dlam}, t={t}") from exc
    return f


def painleve_residual(traj: Trajectory) -> float:
    """Max |lambda'' - F(lambda, lambda', t)| over interior resampled points
    of the trajectory's own equation, inf if any residual is NaN.  A point
    the field or ``painleve_ode_rhs`` refuses raises their error.

    lambda(t) is resampled to 41 uniform points through the dense output,
    however few steps it took, and differentiated with 4th-order central
    stencils; each component is held to the scalar equation.  A
    Calogero-side trajectory, one without an accepted step, or a coupled
    one (rank > 1 and g4sq != 0, whose components obey no scalar equation)
    raises ``ValueError``.
    """
    sys = traj.system
    if sys.side != "painleve":
        raise ValueError("painleve_residual expects a Painleve-side trajectory")
    if not traj._dense:
        raise ValueError("painleve_residual needs a trajectory with an accepted step")
    if sys.rank > 1 and sys.g4sq != 0:
        raise ValueError(f"the components of a coupled system (g4sq={sys.g4sq}) "
                         "obey no scalar Painleve equation")
    n_grid = 41
    times, states = traj.resample(n_grid)
    h = (times[-1] - times[0]) / (n_grid - 1)
    pparams = sys.painleve_params()
    worst = 0.0
    for comp in range(sys.rank):
        lam = [st[comp] for st in states]
        for i in range(2, n_grid - 2):
            d1 = (lam[i - 2] - 8 * lam[i - 1] + 8 * lam[i + 1] - lam[i + 2]) / (12 * h)
            d2 = (-lam[i - 2] + 16 * lam[i - 1] - 30 * lam[i]
                  + 16 * lam[i + 1] - lam[i + 2]) / (12 * h * h)
            res = abs(d2 - painleve_ode_rhs(lam[i], d1, times[i], pparams))
            if math.isnan(res):
                return math.inf
            worst = max(worst, res)
    return worst
