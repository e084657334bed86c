"""Lie-algebra decoupling toolkit for driven quantum harmonic oscillators.

The package splits into a symbolic layer (ladder-operator polynomials and
their commutator algebra), a generic decoupling engine that turns any finite
closed algebra into coefficient ODEs, specialised Gaussian solutions, and
three independent cross-checks: a truncated-Fock brute-force propagator, a
phase-space first-moment propagator, and a vectorised Lindblad layer for
open systems.
"""

from . import engine, fock, gaussian, ladder, liouville, signals, symplectic
from .engine import CoefficientTrajectory, DecouplingProblem, integrate, xi_matrix
from .errors import (
    ClosureOverflow,
    CoefficientOverflow,
    FidelityTooLow,
    LeakageTooLarge,
    ModeMismatch,
    NonConvergent,
    NonFinite,
    NonHermitian,
    NotClosed,
    ParseError,
    StepUnderflow,
    TraceDrift,
    UnknownMode,
    WndError,
    XiSingular,
)
from .ladder import (
    LadderPolynomial,
    LieBasis,
    adjoint_matrices,
    annihilation,
    close_algebra,
    commutator,
    coordinates_in_basis,
    creation,
    identity,
    normal_order,
    number,
    parse_polynomial,
    structure_constants,
)
from .signals import Constant, Hook, Sampled, Signal, Sinusoid, as_signal

__all__ = [
    "engine", "fock", "gaussian", "ladder", "liouville", "signals", "symplectic",
    "CoefficientTrajectory", "DecouplingProblem", "integrate", "xi_matrix",
    "WndError", "ModeMismatch", "ParseError", "UnknownMode", "ClosureOverflow",
    "CoefficientOverflow", "NotClosed", "XiSingular", "StepUnderflow",
    "NonConvergent", "NonHermitian", "NonFinite", "LeakageTooLarge", "TraceDrift",
    "FidelityTooLow",
    "LadderPolynomial", "LieBasis", "adjoint_matrices", "annihilation",
    "close_algebra", "commutator", "coordinates_in_basis", "creation",
    "identity", "normal_order", "number", "parse_polynomial",
    "structure_constants",
    "Constant", "Hook", "Sampled", "Signal", "Sinusoid", "as_signal",
]

__version__ = "0.1.0"
