"""Exception types shared across the package.

Per-point failures (domain violations, degenerate metrics) name the batch
columns they hit, so that a sweep drops those points, tallies them and
runs on with the rest (:func:`drop_failing`); they never abort a whole
grid run.
"""

import numpy as np


class FinslerEMError(Exception):
    """Base class for all package errors.  ``columns`` is a boolean mask
    over the batch, True at each failing point, or None when the failure
    is not one of points in a batch (a lone point, a folded constant)."""

    def __init__(self, *args, columns=None):
        super().__init__(*args)
        self.columns = columns


def drop_failing(run, width):
    """``run(keep)`` on the columns ``keep`` (an index array) of a batch of
    ``width`` that do not fail: the columns a FinslerEMError names (every
    one if it names none) are dropped and the rest run again, until
    ``run`` returns or no column is left.  A mask of m entries per column
    names a column where one of its m consecutive entries is True.
    Returns ``(result, keep, failed)``: the result (None if no column is
    left), the columns it covers and each dropped column's error, in the
    order they were raised."""
    keep, failed = np.arange(width), {}
    while keep.size:
        try:
            return run(keep), keep, failed
        except FinslerEMError as e:
            bad = e.columns
            if bad is None or bad.size % keep.size or not bad.any():
                bad = np.ones(keep.size, dtype=bool)
            bad = bad.reshape(keep.size, -1).any(axis=1)
            failed.update((int(c), e) for c in keep[bad])
            keep = keep[~bad]
    return None, keep, failed


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

    def __init__(self, message, subexpr=None, columns=None):
        if subexpr is not None:
            message = f"{message} in {subexpr!r}"
        super().__init__(message, columns=columns)
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
