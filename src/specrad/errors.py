"""Exception types shared across the package.

Domain validation failures raise plain ValueError (or a subclass); the
classes below cover the remaining failure modes that callers may want to
distinguish: running out of an explicit work budget, and iterative numerics
(quadrature among them) failing to reach a requested tolerance.
"""

__all__ = ["WorkBudgetError", "NonConvergenceError", "QuadratureError"]


class WorkBudgetError(RuntimeError):
    """Requested computation exceeds the configured work budget."""

    def __init__(self, message: str, required: float, budget: float):
        super().__init__(message)
        self.required = required
        self.budget = budget


class NonConvergenceError(RuntimeError):
    """An iterative computation could not reach the requested tolerance.

    ``achieved`` carries the best bound actually attained, so callers can
    decide whether the partial result is usable.
    """

    def __init__(self, message: str, achieved: float = float("nan")):
        super().__init__(message)
        self.achieved = achieved


class QuadratureError(NonConvergenceError):
    """A quadrature or contour sum needs more nodes than its cap allows."""
