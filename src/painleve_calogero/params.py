"""Parameter sets for the six Painleve equations.

Two vocabularies coexist: the (alpha, beta, gamma, delta) constants of the
second-order Painleve equations, and the auxiliary constants
(kappa_0, kappa_1, theta, kappa, theta_1, eta_1, theta_inf, eta_inf,
theta_0, eta_0) of the polynomial Hamiltonians.  ``param_to_painleve``
evaluates the printed algebraic relations between them:

    VI:  alpha = (k0+k1+th-1)^2/2 - 2*kp,  beta = -k0^2/2,
         gamma = k1^2/2,                   delta = (1-th^2)/2
    V:   alpha = (k0+th1)^2/2 - 2*kp,      beta = -k0^2/2,
         gamma = eta1*(th1+1),             delta = -eta1^2/2
    IV:  alpha = 2*thinf - k0 + 1,         beta = -2*k0^2
    III: alpha = -4*etainf*thinf,          beta = 4*eta0*(th0+1),
         gamma = 4*etainf^2,               delta = -4*eta0^2

PII carries a single constant alpha (passed through unchanged); PI has no
parameters.  Every conversion reads the equation from the parameter set's
own tag, so a set cannot be read as another equation's, and holds only
finite constants its equation reads (``AUX_KEYS``, ``PAINLEVE_KEYS``).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, fields

from .errors import UnsupportedEquation

EQUATIONS = ("VI", "V", "IV", "III", "II", "I")

# auxiliary symbols required per equation (paper-symbol key names)
AUX_KEYS = {
    "VI": ("kappa0", "kappa1", "theta", "kappa"),
    "V": ("kappa0", "theta1", "eta1", "kappa"),
    "IV": ("theta_inf", "kappa0"),
    "III": ("eta_inf", "theta_inf", "eta0", "theta0"),
    "II": ("alpha",),
    "I": (),
}
# second-order constants read per equation
_ABCD = ("alpha", "beta", "gamma", "delta")
PAINLEVE_KEYS = {"VI": _ABCD, "V": _ABCD, "IV": _ABCD[:2], "III": _ABCD, "II": _ABCD[:1], "I": ()}


def check_equation(equation: str) -> str:
    if equation not in EQUATIONS:
        raise UnsupportedEquation(f"unknown equation tag {equation!r}; expected one of {EQUATIONS}")
    return equation


class _ConstantSet:
    """The ``__post_init__`` of both parameter sets: a known equation tag and
    complex constants, which raise ``ValueError`` if not finite, or nonzero
    where ``_keys[equation]`` does not list them."""

    def __post_init__(self):
        eq = check_equation(self.equation)
        for f in fields(self)[1:]:  # after the equation tag
            value = complex(getattr(self, f.name))
            if not cmath.isfinite(value):
                raise ValueError(f"P{eq} constant {f.name} must be finite, got {value}")
            if value and f.name not in self._keys[eq]:
                raise ValueError(f"P{eq} does not read {f.name} = {value}; "
                                 f"its constants are {list(self._keys[eq])}")
            object.__setattr__(self, f.name, value)


@dataclass(frozen=True)
class PainleveParams(_ConstantSet):
    """(alpha, beta, gamma, delta) of the tagged second-order equation;
    ``PAINLEVE_KEYS[equation]`` lists those it reads (IV: alpha and beta,
    II: alpha, I: none), and the others must be zero."""

    _keys = PAINLEVE_KEYS
    equation: str
    alpha: complex = 0j
    beta: complex = 0j
    gamma: complex = 0j
    delta: complex = 0j


@dataclass(frozen=True)
class AuxParams(_ConstantSet):
    """Constants of the polynomial Hamiltonians, keyed by paper symbols.

    ``AUX_KEYS[equation]`` lists those the equation reads, and the others
    must be zero; ``alpha`` is the PII constant.
    """

    _keys = AUX_KEYS
    equation: str
    kappa0: complex = 0j
    kappa1: complex = 0j
    theta: complex = 0j
    kappa: complex = 0j
    theta1: complex = 0j
    eta1: complex = 0j
    theta_inf: complex = 0j
    eta_inf: complex = 0j
    theta0: complex = 0j
    eta0: complex = 0j
    alpha: complex = 0j


def param_to_painleve(aux: AuxParams) -> PainleveParams:
    """Convert auxiliary Hamiltonian constants to (alpha, beta, gamma, delta)
    of the equation ``aux`` is tagged with.

    II has no printed relation and passes its alpha through; I has no
    constants.  A constant that overflows raises ``ValueError``.
    """
    eq = aux.equation
    try:
        if eq == "VI":
            k0, k1, th, kp = aux.kappa0, aux.kappa1, aux.theta, aux.kappa
            return PainleveParams(
                "VI",
                alpha=(k0 + k1 + th - 1) ** 2 / 2 - 2 * kp,
                beta=-k0 * k0 / 2,
                gamma=k1 * k1 / 2,
                delta=(1 - th * th) / 2,
            )
        if eq == "V":
            k0, th1, eta1, kp = aux.kappa0, aux.theta1, aux.eta1, aux.kappa
            return PainleveParams(
                "V",
                alpha=(k0 + th1) ** 2 / 2 - 2 * kp,
                beta=-k0 * k0 / 2,
                gamma=eta1 * (th1 + 1),
                delta=-eta1 * eta1 / 2,
            )
        if eq == "IV":
            return PainleveParams(
                "IV",
                alpha=2 * aux.theta_inf - aux.kappa0 + 1,
                beta=-2 * aux.kappa0 * aux.kappa0,
            )
        if eq == "III":
            return PainleveParams(
                "III",
                alpha=-4 * aux.eta_inf * aux.theta_inf,
                beta=4 * aux.eta0 * (aux.theta0 + 1),
                gamma=4 * aux.eta_inf * aux.eta_inf,
                delta=-4 * aux.eta0 * aux.eta0,
            )
    except (OverflowError, ValueError):  # a square overflows, or a product to inf
        raise ValueError(f"P{eq} constants overflow in the printed relations: {aux}") from None
    return PainleveParams(eq, alpha=aux.alpha)

