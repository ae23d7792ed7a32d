"""Exception types shared across the package."""

import math


class MagschroError(Exception):
    """Base class for every error raised by this package."""


class InputError(MagschroError):
    """Invalid caller input: unknown vertices, malformed specs, bad values."""


def require_finite(*values):
    """Refuse the non-finite floats that inputs overflowing double precision leave."""
    if not all(map(math.isfinite, values)):
        raise overflow_error()


def overflow_error() -> InputError:
    """The error of :func:`require_finite`, also for the ``OverflowError`` that
    Python arithmetic raises on such inputs."""
    return InputError("non-finite value: the inputs overflow double precision")


def require_nonnegative(name, value):
    """Refuse a constant that is NaN, infinite or negative; None passes."""
    if value is not None and not 0 <= value < math.inf:
        raise InputError(f"{name} must be finite and nonnegative, got {value!r}")


class UnknownVertexError(InputError):
    def __init__(self, vertex):
        super().__init__(f"unknown vertex: {vertex!r}")
        self.vertex = vertex


class GraphStructureError(InputError):
    """A graph violates a structural invariant at build time."""


class BudgetExhaustedError(MagschroError):
    """A metric search hit its vertex-settlement budget before resolving."""


class MinorantViolationError(MagschroError):
    """An estimate was requested on a region where W >= -q fails."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = violations or []


class ExprSyntaxError(InputError):
    """Syntax error in the expression mini-language; carries the position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExprEvalError(InputError):
    """Evaluation error in the expression mini-language at a specific n."""

    def __init__(self, message, n):
        super().__init__(f"{message} (at n={n})")
        self.n = n


class SchemaError(InputError):
    """A graph file violates the JSON schema; carries an element path."""

    def __init__(self, message, path="$"):
        super().__init__(f"{path}: {message}")
        self.path = path


class EigensolveError(MagschroError):
    """An eigensolve did not meet its residual contract."""
