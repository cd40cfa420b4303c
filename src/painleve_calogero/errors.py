"""Exception types shared across the library."""


class PainleveCalogeroError(Exception):
    """Base class for all library errors."""


class BadContext(PainleveCalogeroError):
    """Elliptic context is unusable (Im tau <= 0, or e2 - e1 lost to rounding)."""


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


class TooSparse(PainleveCalogeroError):
    """Trajectory has too few samples for finite-difference post-processing."""
