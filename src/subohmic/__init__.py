"""Variational ground state of the sub-ohmic spin-boson model.

Library layout:

- :mod:`subohmic.numerics` -- Lambert W, quadrature, Jacobi recurrences, root finding, fits
- :mod:`subohmic.model` -- parameters, spectral density, bath discretization
- :mod:`subohmic.variational` -- displaced-oscillator ansatz and observables
- :mod:`subohmic.critical` -- critical coupling, sweeps, exponents
- :mod:`subohmic.chain` -- oscillator-chain mapping and site occupations
- :mod:`subohmic.oracle` -- exact diagonalization cross-checks and fidelity
- :mod:`subohmic.cli` -- command-line front end
"""

from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    SizeError,
)
from .model import DiscretizedBath, ModelParams, discretize_bath, spectral_density
from .numerics import FitResult, QuadratureRule, fit_power_law, lambert_w0
from .variational import (
    Functional,
    GroundStateSolution,
    VariationalState,
    minimize_energy,
    observables,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "ConvergenceError",
    "DiscretizedBath",
    "DomainError",
    "FitResult",
    "Functional",
    "GroundStateSolution",
    "ModelParams",
    "QuadratureRule",
    "SizeError",
    "VariationalState",
    "__version__",
    "discretize_bath",
    "fit_power_law",
    "lambert_w0",
    "minimize_energy",
    "observables",
    "spectral_density",
]
