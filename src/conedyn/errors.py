"""Exception types shared across the package."""


class ConedynError(Exception):
    """Base class for all conedyn errors."""


class DimensionMismatchError(ConedynError, ValueError):
    """Vector or point dimension does not match the expected one."""


class BasePointMismatchError(ConedynError, ValueError):
    """Tangent vectors anchored at different base points were combined."""


class NotPositiveDefiniteError(ConedynError, ValueError):
    """A matrix that must be symmetric positive definite is not."""


class ConeConstructionError(ConedynError, ValueError):
    """Cone data violates pointedness, solidity, or rep consistency."""


class UnsupportedInputError(ConedynError, ValueError):
    """Operation asked to run on a manifold/cone kind it does not support."""


class FlowBlowupError(ConedynError, RuntimeError):
    """Integration produced a non-finite state."""

    def __init__(self, time: float, message: str = ""):
        self.time = time
        super().__init__(message or f"trajectory blew up near t={time:.6g}")


class ManifoldExitError(ConedynError, RuntimeError):
    """An SPD trajectory left the positive-definite chart."""

    def __init__(self, time: float, message: str = ""):
        self.time = time
        super().__init__(message or f"state left the manifold near t={time:.6g}")


class NotEquilibriumError(ConedynError, ValueError):
    """A point required to be an equilibrium is not one."""


class NumericsError(ConedynError, RuntimeError):
    """A numeric sanity check failed (e.g. non-positive tangent determinant)."""


class PowerIterationError(ConedynError, RuntimeError):
    """A tangent map at an equilibrium has no Perron-Frobenius pair: its
    dominant eigenvalue is not simple, real and positive (a complex or
    defective pair), or its eigenvector lies outside the cone.  The name
    is kept from the power iteration that used to find the pair."""


class ConeExitError(ConedynError, RuntimeError):
    """A propagated cone ray left the cone (positivity violation)."""


class ProbeConstructionError(ConedynError, RuntimeError):
    """A probe could not build the ordered sequences it needs."""


class ScenarioError(ConedynError, ValueError):
    """Scenario file failed validation; carries every violation found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
