"""Exception types shared across the library, and ``check_index``.

Other bad input (a non-finite number, an unknown option, an input the call
does not read, a trajectory without an accepted step, an integer out of
range) raises ``ValueError``.
"""

import operator


class PainleveCalogeroError(Exception):
    """Base class for all library errors."""


class BadContext(PainleveCalogeroError):
    """Elliptic context is unusable (``elliptic.check_tau`` refuses tau, or e2 - e1 is lost)."""


class PoleAt(PainleveCalogeroError):
    """Argument lies within tolerance of a lattice pole."""

    def __init__(self, u):
        super().__init__(f"argument {u} is within tolerance of a lattice point")
        self.u = u


class HalfPeriodSingularity(PainleveCalogeroError):
    """wp'(u) vanishes (u at a half period), so f_tau/f' is singular."""


class CoordinateSingularity(PainleveCalogeroError):
    """A one- or two-body Hamiltonian term hits a pole."""


class TwoBodyCollision(CoordinateSingularity):
    """Two coordinates collide (q_j = +/- q_k as applicable)."""


class MapSingularity(PainleveCalogeroError):
    """Coordinate map evaluated at a singular point of the transformation."""


class BranchCut(MapSingularity):
    """Requested inversion sits on a branch cut of the map."""


class NoConvergence(PainleveCalogeroError):
    """The PVI time map's Newton failed, or PVI q(lambda) its residual check."""

    def __init__(self, message, seed=None):
        super().__init__(message)
        self.seed = seed


class UnsupportedEquation(PainleveCalogeroError):
    """Operation is not defined for the requested Painleve equation."""


def check_index(value, name: str, lo: int, hi: int | None = None) -> int:
    """value through ``operator.index`` (numpy integers and bools pass);
    anything but an integer in lo..hi raises ``ValueError`` naming ``name``."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or n < lo or (hi is not None and n > hi):
        bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")
    return n
