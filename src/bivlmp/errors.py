"""Exception types shared across the package."""


class BivlmpError(Exception):
    """Base class for all package errors."""


class DomainError(BivlmpError, ValueError):
    """Input outside the mathematical domain of an operation."""


class ValidationError(BivlmpError, ValueError):
    """Parameter set violates the admissibility constraints of a family."""


class ConvergenceError(BivlmpError):
    """A numerical routine exhausted its budget without meeting tolerance.

    Carries the best available estimate in ``estimate``.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate
