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
own tag, so a set cannot be read as another equation's.
"""

from __future__ import annotations

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


def check_equation(equation: str) -> str:
    if equation not in EQUATIONS:
        raise UnsupportedEquation(f"unknown equation tag {equation!r}; expected one of {EQUATIONS}")
    return equation


@dataclass(frozen=True)
class PainleveParams:
    """(alpha, beta, gamma, delta) of the tagged second-order equation.

    Entries irrelevant to the tagged equation are ignored (e.g. gamma and
    delta for IV); PI uses none of them.
    """

    equation: str
    alpha: complex = 0j
    beta: complex = 0j
    gamma: complex = 0j
    delta: complex = 0j

    def __post_init__(self):
        check_equation(self.equation)
        for f in fields(self):
            if f.name != "equation":
                object.__setattr__(self, f.name, complex(getattr(self, f.name)))


@dataclass(frozen=True)
class AuxParams:
    """Constants of the polynomial Hamiltonians, keyed by paper symbols.

    Only the subset listed in ``AUX_KEYS[equation]`` is meaningful for a
    given equation; ``alpha`` is the PII constant.
    """

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

    def __post_init__(self):
        check_equation(self.equation)
        for f in fields(self):
            if f.name != "equation":
                object.__setattr__(self, f.name, complex(getattr(self, f.name)))


def param_to_painleve(aux: AuxParams) -> PainleveParams:
    """Convert auxiliary Hamiltonian constants to (alpha, beta, gamma, delta)
    of the equation ``aux`` is tagged with.

    Raises UnsupportedEquation for II and I, where no relation is printed
    (PII uses its alpha directly), and ``ValueError`` where a constant
    overflows.
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
    except OverflowError:
        raise ValueError(f"P{eq} constants overflow in the printed relations: {aux}") from None
    raise UnsupportedEquation(f"no printed parameter relation for P{eq}")

