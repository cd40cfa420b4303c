"""Adaptive integration of the canonical flows and ODE residual checks.

The integrator is the Dormand-Prince 5(4) embedded pair with PI step-size
control, propagating the complex state along a straight segment in the
system's own time variable (tau for the PVI Calogero flow, t otherwise).
The pair is first-same-as-last (its seventh stage is the field at the
accepted point), so a step costs six field calls.  Bad tolerances raise
ValueError before any field call.
Movable poles are detected (state magnitude blow-up or step underflow) and
stop the integration with a tagged, partial trajectory; there is no
automatic path deformation around them.  Rejected steps are counted, the
singular ones (a stage raised or went non-finite) also on their own.

``painleve_residual`` resamples a Painleve-side trajectory through the
cubic-Hermite dense output and measures how well lambda(t) satisfies the
printed second-order Painleve equation, using 4th-order finite-difference
stencils.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .elliptic import EllipticContext
from .errors import BadContext, CoordinateSingularity, PoleAt, TooSparse
from .params import PainleveParams, check_equation
from .systems import PhaseState, SystemDescriptor, canonical_field, check_state

# Dormand-Prince 5(4) tableau
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
# b5 - b4: coefficients of the embedded error estimate
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

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
    other rejections failed the error estimate.
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
    # dense segments: (s0, s1, y0, y1, f0, f1) in the path parameter
    _dense: list[tuple] = field(default_factory=list, repr=False)

    @property
    def completed(self) -> bool:
        return self.termination == COMPLETED

    def interpolate(self, s: float) -> np.ndarray:
        """Cubic-Hermite dense output at path parameter s in [0, s_last]."""
        if not self._dense:
            st = self.samples[0][1]
            return np.array(st.coords + st.momenta, dtype=complex)
        lo, hi = 0, len(self._dense) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._dense[mid][1] < s:
                lo = mid + 1
            else:
                hi = mid
        s0, s1, *vectors = self._dense[lo]
        y0, y1, f0, f1 = (np.asarray(v, dtype=complex) for v in vectors)
        h = s1 - s0
        x = (s - s0) / h
        h00 = (1 + 2 * x) * (1 - x) ** 2
        h10 = x * (1 - x) ** 2
        h01 = x * x * (3 - 2 * x)
        h11 = x * x * (x - 1)
        return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1

    def resample(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(times, states) on a uniform grid of n points over the full arc."""
        s_end = self._dense[-1][1] if self._dense else 0.0
        t0 = self.samples[0][0]
        t1 = self.samples[-1][0]
        grid = np.linspace(0.0, s_end, n)
        times = t0 + (t1 - t0) * (grid / s_end if s_end else grid)
        states = np.array([self.interpolate(s) for s in grid])
        return times, states


def _check_tolerances(rel_tol, abs_tol, max_step) -> None:
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError(f"rel_tol must be finite and > 0, got {rel_tol!r}")
    if not (math.isfinite(abs_tol) and abs_tol >= 0):
        raise ValueError(f"abs_tol must be finite and >= 0, got {abs_tol!r}")
    if max_step is not None and not (math.isfinite(max_step) and max_step > 0):
        raise ValueError(f"max_step must be None or finite and > 0, got {max_step!r}")


def _sums(coeffs: tuple, k: list) -> list:
    """coeffs[0] k[0] + coeffs[1] k[1] + ..., componentwise over the stages k.

    Left to right from 0j, zero coefficients kept: the same sum on numpy
    arrays rounds identically (float-times-complex products, complex adds).
    """
    out = []
    for col in zip(*k):
        acc = 0j
        for a, kc in zip(coeffs, col):
            acc += a * kc
        out.append(acc)
    return out


def integrate(sys: SystemDescriptor, initial: PhaseState, t_end: complex,
              rel_tol: float = 1e-8, abs_tol: float = 1e-10,
              max_steps: int = 100000,
              ctx: EllipticContext | None = None,
              max_step: float | None = None) -> Trajectory:
    """Integrate the canonical equations along the straight time segment.

    The segment runs from initial.time to t_end in the system's own time
    variable; it must keep distance > 1e-3 from the fixed singularities
    (t = 0 and, for VI, t = 1), and the PVI Calogero flow must end at
    Im tau > 0 (``BadContext`` otherwise, raised before any step).
    ``rel_tol`` must be finite and > 0, ``abs_tol`` finite and >= 0, and
    ``max_step``, which caps |dt| per accepted step (useful to force dense
    sampling for post-processing), None or finite and > 0; anything else
    raises ``ValueError`` before any field call.  Movable poles terminate
    the trajectory with a 'pole_detected' or 'step_underflow' tag instead
    of raising; an overflowing step is rejected without a numpy warning.

    The seventh stage is the field at the accepted point and is reused as
    the next step's first (first same as last), so a run without singular
    rejections makes 1 + 6 * (n_accepted + n_rejected) field calls.
    """
    _check_tolerances(rel_tol, abs_tol, max_step)
    check_state(sys, initial)
    t0 = complex(initial.time)
    t1 = complex(t_end)
    span = t1 - t0
    _check_segment(sys, t0, t1)

    traj = Trajectory(sys, [(t0, initial)], rel_tol, abs_tol, COMPLETED)
    if span == 0:
        return traj
    h_cap = max_step / abs(span) if max_step is not None else 1.0
    n = sys.rank

    def rhs(s: float, y: list) -> list:
        time = t0 + s * span
        dq, dp = canonical_field(sys, PhaseState(y[:n], y[n:], time), ctx)
        traj.n_rhs += 1
        # a numpy product: CPython's complex product rounds differently
        return (span * np.array(dq + dp, dtype=complex)).tolist()

    y = list(initial.coords + initial.momenta)
    abs_y = np.abs(np.array(y, dtype=complex))
    s = 0.0
    h = min(1e-2, h_cap)
    err_prev = 1.0
    # overflow in a step leaves inf or nan, which rejects it: no warning
    with np.errstate(over="ignore", invalid="ignore"):
        f_now = rhs(s, y)

        for _ in range(max_steps):
            if s >= 1.0:
                return traj
            h = min(h, 1.0 - s, h_cap)
            if h < _MIN_STEP_FRACTION:
                traj.termination = STEP_UNDERFLOW
                return traj
            k = [f_now]
            singular = False
            try:
                for i in range(1, 7):
                    yi = [yc + h * d for yc, d in zip(y, _sums(_A[i], k))]
                    k.append(rhs(s + _C[i] * h, yi))
            except (CoordinateSingularity, PoleAt, OverflowError, ZeroDivisionError):
                singular = True
            if not singular:
                y_new = [yc + h * d for yc, d in zip(y, _sums(_B5, k))]
                new_arr = np.array(y_new, dtype=complex)
                singular = not np.isfinite(new_arr).all()
            if singular:
                err = math.inf
            else:
                # RMS of the scaled error; sum() / size is np.mean's own reduction
                err_vec = np.array([h * d for d in _sums(_E, k)], dtype=complex)
                abs_new = np.abs(new_arr)
                ratio = np.abs(err_vec) / (abs_tol + rel_tol * np.maximum(abs_y, abs_new))
                err = math.sqrt((ratio * ratio).sum() / ratio.size)
            if err <= 1.0:
                if abs_new.max() > BLOWUP_LIMIT:
                    traj.termination = POLE_DETECTED
                    return traj
                s_new = s + h
                t_new = t0 + s_new * span
                # stage 7 ran at (s + h, y_new): _A[6] is _B5[:6] and _C[6] is 1
                f_new = k[6]
                traj._dense.append((s, s_new, y, y_new, f_now, f_new))
                traj.samples.append((t_new, PhaseState(y_new[:n], y_new[n:], t_new)))
                traj.n_accepted += 1
                y, s, f_now, abs_y = y_new, s_new, f_new, abs_new
                # PI controller (order 5: exponents 0.7/5 and 0.4/5)
                if err == 0:
                    fac = 5.0
                else:
                    fac = 0.9 * err ** (-0.7 / 5) * err_prev ** (0.4 / 5)
                err_prev = max(err, 1e-10)
                h *= min(5.0, max(0.2, fac))
            else:
                traj.n_rejected += 1
                if singular:
                    traj.n_rejected_singular += 1
                if not math.isfinite(err):
                    h *= 0.2
                else:
                    h *= min(1.0, max(0.2, 0.9 * err ** (-1 / 5)))
    if s < 1.0:
        traj.termination = MAX_STEPS
    return traj


def _check_segment(sys, t0, t1):
    if sys.time_gauge == "tau":
        # Im tau is linear along the segment and check_state has vetted t0
        if not (t1.imag > 0):
            raise BadContext(f"PVI Calogero segment leaves Im tau > 0 at tau={t1}")
        return
    bad_points = []
    if sys.equation == "VI" and sys.side == "painleve":
        bad_points = [0j, 1 + 0j]
    elif sys.equation in ("V", "III"):
        bad_points = [0j]
    for b in bad_points:
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

def painleve_ode_rhs(eq: str, lam: complex, dlam: complex, t: complex,
                     p: PainleveParams) -> complex:
    """Right-hand side of lambda'' = F(lambda, lambda', t) as printed."""
    eq = check_equation(eq)
    a, b, g, d = p.alpha, p.beta, p.gamma, p.delta
    if eq == "VI":
        return ((1 / lam + 1 / (lam - 1) + 1 / (lam - t)) / 2 * dlam**2
                - (1 / t + 1 / (t - 1) + 1 / (lam - t)) * dlam
                + lam * (lam - 1) * (lam - t) / (t**2 * (t - 1) ** 2)
                * (a + b * t / lam**2 + g * (t - 1) / (lam - 1) ** 2
                   + d * t * (t - 1) / (lam - t) ** 2))
    if eq == "V":
        return ((1 / (2 * lam) + 1 / (lam - 1)) * dlam**2 - dlam / t
                + lam * (lam - 1) ** 2 / t**2
                * (a + b / lam**2 + g * t / (lam - 1) ** 2
                   + d * t**2 * (lam + 1) / (lam - 1) ** 3))
    if eq == "IV":
        return (dlam**2 / (2 * lam) + 1.5 * lam**3 + 4 * t * lam**2
                + 2 * (t * t - a) * lam + b / lam)
    if eq == "III":
        # last bracket term is delta*t^2/lam^3: this is what the polynomial
        # Hamiltonian flow satisfies, and what reproduces the standard PIII
        # under (t, lambda) -> (t^2, t*lambda)
        return (dlam**2 / lam - dlam / t
                + lam**2 / (4 * t**2)
                * (a + b * t / lam**2 + g * lam + d * t**2 / lam**3))
    if eq == "II":
        return 2 * lam**3 + t * lam + a
    return 6 * lam**2 + t  # PI


def painleve_residual(eq: str, traj: Trajectory, n_grid: int = 41) -> float:
    """Max |lambda'' - F(lambda, lambda', t)| over interior resampled points.

    The trajectory must be on the Painleve side with at least 20 accepted
    samples; lambda(t) is resampled to a uniform grid through the dense
    output and differentiated with 4th-order central stencils.  For rank >
    1 the residual is evaluated componentwise against the scalar equation
    (meaningful for decoupled components, i.e. g4sq = 0).
    """
    eq = check_equation(eq)
    if traj.system.side != "painleve":
        raise ValueError("painleve_residual expects a Painleve-side trajectory")
    if len(traj.samples) < 20:
        raise TooSparse(f"need >= 20 samples, got {len(traj.samples)}")
    n_grid = max(n_grid, 9)
    times, states = traj.resample(n_grid)
    h = (times[-1] - times[0]) / (n_grid - 1)
    pparams = traj.system.painleve_params()
    rank = traj.system.rank
    worst = 0.0
    for comp in range(rank):
        lam = states[:, comp]
        for i in range(2, n_grid - 2):
            d1 = (lam[i - 2] - 8 * lam[i - 1] + 8 * lam[i + 1] - lam[i + 2]) / (12 * h)
            d2 = (-lam[i - 2] + 16 * lam[i - 1] - 30 * lam[i]
                  + 16 * lam[i + 1] - lam[i + 2]) / (12 * h * h)
            res = abs(d2 - painleve_ode_rhs(eq, lam[i], d1, times[i], pparams))
            worst = max(worst, res)
    return worst
