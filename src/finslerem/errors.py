"""Exception types shared across the package.

Per-point failures (domain violations, degenerate metrics) are raised as
exceptions so that sweep drivers can catch them point by point, tally them
and keep going; they are never allowed to abort a whole grid run.
"""


class FinslerEMError(Exception):
    """Base class for all package errors."""


class ExprSyntaxError(FinslerEMError):
    """Malformed expression source.

    Carries the byte offset of the failure and the set of token kinds
    that would have been accepted there.
    """

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.expected = tuple(expected)


class UnknownIdentifierError(FinslerEMError):
    """Identifier outside x0..x3, y0..y3 and the builtin function names."""

    def __init__(self, name, offset):
        super().__init__(f"unknown identifier {name!r} at offset {offset}")
        self.name = name
        self.offset = offset


class DomainError(FinslerEMError):
    """Evaluation left the domain of a builtin (sqrt, log, division...).

    ``subexpr`` is the offending subexpression, printed back as source.
    """

    def __init__(self, message, subexpr=None):
        if subexpr is not None:
            message = f"{message} in {subexpr!r}"
        super().__init__(message)
        self.subexpr = subexpr


class DegenerateMetricError(FinslerEMError):
    """|det g| below the degeneracy threshold at the sample point."""


class SignatureMismatchError(FinslerEMError):
    """Metric eigenvalue signs disagree with the declared signature."""


class SingularForceMatrixError(FinslerEMError):
    """The implicit Lorentz-force system I - (q/c) Ft is not invertible."""


class StepRejectionLimitError(FinslerEMError):
    """Adaptive integrator gave up: too many consecutive rejections, a step
    too small to advance t, or too many accepted steps."""


class SceneParseError(FinslerEMError):
    """Scene file failed to parse; carries file location when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class HomogeneityViolationError(FinslerEMError):
    """A scene field is not 1-homogeneous in y at a validation sample."""

    def __init__(self, field_name, residual, point=None):
        super().__init__(
            f"{field_name} violates 1-homogeneity in y (residual {residual:.3e})"
        )
        self.field_name = field_name
        self.residual = residual
        self.point = point
