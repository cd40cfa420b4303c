"""Painleve equations, Inozemtsev-type Calogero systems, and the explicit
time-dependent canonical transformations connecting them, together with a
numerical verification harness for the transformation theorems, elliptic
identities and degeneration limits."""

from .dynamics import Trajectory, integrate, painleve_ode_rhs, painleve_residual
from .elliptic import (
    EllipticContext,
    asymptotic_p,
    f_and_derivatives,
    half_period_values,
    shifted_p,
    theta,
    theta_dtau,
    theta_du,
    weierstrass_p,
    weierstrass_p_and_prime,
    weierstrass_p_prime,
)
from .params import AuxParams, PainleveParams, param_to_painleve
from .systems import (
    PhaseState,
    SystemDescriptor,
    autonomous_check,
    canonical_field,
    hamiltonian,
    hamiltonian_gradients,
)
from .transforms import (
    CANONICAL_FACTORS,
    jacobian_dtau_dt,
    lambda_of_q,
    mu_of_pq,
    multi_transform,
    pq_of_lambdamu,
    q_of_lambda,
    time_map_pvi,
    time_map_pvi_inverse,
)

__version__ = "0.1.0"

__all__ = [
    "AuxParams",
    "CANONICAL_FACTORS",
    "EllipticContext",
    "PainleveParams",
    "PhaseState",
    "SystemDescriptor",
    "Trajectory",
    "asymptotic_p",
    "autonomous_check",
    "canonical_field",
    "f_and_derivatives",
    "half_period_values",
    "hamiltonian",
    "hamiltonian_gradients",
    "integrate",
    "jacobian_dtau_dt",
    "lambda_of_q",
    "mu_of_pq",
    "multi_transform",
    "painleve_ode_rhs",
    "painleve_residual",
    "param_to_painleve",
    "pq_of_lambdamu",
    "q_of_lambda",
    "shifted_p",
    "theta",
    "theta_dtau",
    "theta_du",
    "time_map_pvi",
    "time_map_pvi_inverse",
    "weierstrass_p",
    "weierstrass_p_and_prime",
    "weierstrass_p_prime",
]
