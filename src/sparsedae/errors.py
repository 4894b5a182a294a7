"""Exception types shared across the solver."""


class SparseDaeError(Exception):
    """Base class for all library errors."""


class NonFiniteValue(SparseDaeError):
    """Expression evaluation produced inf/nan (overflow, ln domain, divide by zero)."""


class NonFiniteResidual(SparseDaeError):
    """Generated residual or Jacobian code went non-finite (overflow, domain
    error, or an inf/nan output); the step must be rejected."""


class UnsupportedSystem(SparseDaeError):
    """The system shape is incompatible with the requested method."""


class EmptyRow(SparseDaeError):
    """A residual row references no unknown (structurally singular system)."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"residual row {row} references no unknown")


class SingularMatrix(SparseDaeError):
    """LU factorization hit an exactly zero pivot, also after the eps*I retry."""

    def __init__(self, column: int = -1, detail: str = ""):
        self.column = column
        msg = "matrix is singular"
        if column >= 1:
            msg += f" (column {column})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class InitializationFailed(SparseDaeError):
    """Newton on the h=0 residual did not converge; algebraic initial values
    could not be made consistent."""


class InvalidGrid(SparseDaeError):
    """Grid dimensions violate a problem's requirements."""


class UnknownObservable(SparseDaeError):
    """Requested observable is not defined for the problem."""


class ProblemFileError(SparseDaeError):
    """Problem-file or config-file parse error, with a line number and, when
    known, the file's path."""

    def __init__(self, line_no: int, message: str, path: str = ""):
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}" if path else f"line {line_no}: {message}")
