"""Exception hierarchy shared across the package.

Split into usage errors (bad inputs, exit code 2 at the CLI), empty-result
signals (exit code 3) and numerical failures (exit code 4).
"""


class CcorbError(Exception):
    """Base class for all package-specific errors."""


class UsageError(CcorbError):
    """Invalid input or precondition violation caused by the caller."""


class SingularInputError(UsageError):
    """Evaluation requested at (or too close to) one of the primaries."""


class EnergyAboveCriticalError(UsageError):
    """Operation requires a Jacobi energy below the first critical value."""


class AtCollisionError(UsageError):
    """A physical (q, p) state was requested at the collision locus a = 0."""


class EnergeticallyForbiddenError(UsageError):
    """Axis shot requested outside the Hill region (negative discriminant)."""


class NumericalError(CcorbError):
    """A numerical procedure failed to converge or lost validity."""


class RootFindingError(NumericalError):
    """A bracketed root finder failed; carries the offending interval."""

    def __init__(self, message, interval=None):
        super().__init__(message)
        self.interval = interval


class StepUnderflowError(NumericalError):
    """Adaptive step size shrank below representable resolution."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class SingularityApproachError(NumericalError):
    """Physical-flow integration came too close to a primary.

    The regularized flow should be used instead; the CLI surfaces this
    message verbatim.
    """


class BisectionStagnationError(NumericalError):
    """The miss bracket converged in s without producing a collision."""

    def __init__(self, message, interval=None):
        super().__init__(message)
        self.interval = interval


class TangentialRootError(NumericalError):
    """A grazing (no-sign-change) root has no bracket to refine."""


class IntegrityError(NumericalError):
    """A certified quantity violated one of its invariants."""
