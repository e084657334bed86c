"""Exception types shared across the package."""


class WndError(Exception):
    """Base class for all package errors."""


class ModeMismatch(WndError):
    """Operands act on different numbers of bosonic modes."""


class ParseError(WndError):
    """Polynomial text could not be parsed.

    Carries the zero-based character position of the offending token.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownMode(WndError):
    """Polynomial text refers to a ladder operator of an unsupported mode."""


class CoefficientOverflow(WndError, OverflowError):
    """A normal-ordering coefficient of a product leaves the float range."""


class ClosureOverflow(WndError):
    """Commutator closure produced more independent elements than allowed.

    Usually signals an algebra that is not finite-dimensional.
    """


class NotClosed(WndError):
    """A commutator of basis elements falls outside the basis span."""


class XiSingular(WndError):
    """The coefficient-transfer matrix became numerically singular.

    The decoupling ansatz is only guaranteed to hold near t = 0; this error
    reports the time at which the parameterisation broke down.
    """

    def __init__(self, time, det_ratio):
        super().__init__(
            f"coefficient-transfer matrix singular at t={time:.6g} "
            f"(|det|/scale={det_ratio:.3e})"
        )
        self.time = time
        self.det_ratio = det_ratio


class StepUnderflow(WndError):
    """Adaptive integrator step size fell below the resolvable floor."""

    def __init__(self, time, step):
        super().__init__(f"step size underflow at t={time:.6g} (h={step:.3e})")
        self.time = time
        self.step = step


class NonConvergent(WndError):
    """Step-halving refinement hit its floor without meeting tolerance."""


class LeakageTooLarge(WndError):
    """Truncated state keeps too much population near the cutoff."""


class FidelityTooLow(WndError):
    """A decoupled solution is further from its oracle than a run accepts."""


class TraceDrift(WndError):
    """Density-matrix trace drifted beyond tolerance during propagation."""


class NonHermitian(WndError, ValueError):
    """A Hamiltonian handed to the Fock oracle is not Hermitian."""


class NonFinite(WndError, ValueError):
    """A drive value or decoupling coefficient became NaN or infinite."""

    def __init__(self, time):
        super().__init__(f"non-finite drive or coefficient at t={time:.6g}")
        self.time = time
