"""Exception types shared across the package."""

__all__ = ["CapacityError", "DagTextError", "NumericalError"]


class CapacityError(RuntimeError):
    """Raised when a problem size exceeds a guarded cap.

    The exhaustive routines in this package scale factorially or
    exponentially in the vertex count, so each one refuses inputs past
    an explicit cap instead of silently running for hours.
    """


class NumericalError(RuntimeError):
    """Raised when a matrix factorization fails or conditioning is hopeless."""

    def __init__(self, message, subset=None):
        super().__init__(message)
        self.subset = None if subset is None else tuple(sorted(subset))


class DagTextError(ValueError):
    """Raised on malformed DAG text input. Carries the offending line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no

