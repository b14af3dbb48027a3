"""Exception types shared across the library."""


class ShapeError(ValueError):
    """Raised when an operand's shape violates an operation's contract."""


class ContractError(ValueError):
    """Raised when a precondition other than a shape constraint is violated."""

    def __init__(self, message="", sample=None):
        super().__init__(message)
        self.sample = sample  # the index of the batch entry at fault, if one is


class SingularParameter(ArithmeticError):
    """A parameter matrix is numerically rank deficient.

    Carries the Cholesky pivot index that failed and a cheap estimate of the
    condition number at the point of failure.
    """

    def __init__(self, pivot_index, cond_estimate, detail=""):
        self.pivot_index = int(pivot_index)
        self.cond_estimate = float(cond_estimate)
        msg = (f"rank-deficient parameter: pivot {self.pivot_index} "
               f"(estimated condition number {self.cond_estimate:.3e})")
        if detail:
            msg = f"{msg}; {detail}"
        super().__init__(msg)


class DivergedError(ArithmeticError):
    """An iterative computation produced NaN/Inf or otherwise diverged."""

    def __init__(self, iteration, detail=""):
        self.iteration = int(iteration)
        msg = f"diverged at iteration {self.iteration}"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg)


class FormatError(ValueError):
    """A serialized artifact (checkpoint, report) is malformed."""
