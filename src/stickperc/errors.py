"""Exception types shared across the package."""


class StickPercError(ValueError):
    """Base class for all stickperc errors."""


class DomainError(StickPercError):
    """Argument outside the mathematical domain of a function."""


class PreconditionViolated(StickPercError):
    """Input violates a documented validity precondition."""


class ParallelLines(StickPercError):
    """Closed-form line minimizer undefined: directions are (numerically) parallel."""


class CapacityExceeded(StickPercError):
    """Requested Poisson sample would be unreasonably large."""


class BracketFailure(StickPercError):
    """Threshold search failed to bracket the crossing-frequency 1/2 point."""


class DegenerateDesign(StickPercError):
    """Regression design matrix is degenerate (too few distinct abscissae)."""
