"""Typed failures shared across the package, and the rules for number
arguments.

Every error carries a stable machine-readable ``code`` so the CLI can map
failures onto its JSON error report and exit codes without string matching.

Two rules check the number arguments of every library call, each in one
place.  An integer argument (a dimension, seed or count) passes
:func:`_integral`: an int or a numpy integer, not a bool.  A real argument
(a tolerance, radius, ``eps``, ``rho`` or ``delta``) passes :func:`_real`:
an int, a float or a numpy number, not a bool, finite and positive (or
nonnegative, where zero is allowed), and is read as a Python float.
Anything else is :class:`PreconditionFailedError` naming the argument.
A real argument with a rule of its own (a step t of any sign but 0, a
variance whose sign has its own error) is first checked to be a number
by :func:`_number`.  The space of a point argument has its own rule,
``spaces._expect``.
"""

from __future__ import annotations

import numbers
import sys


def _integral(value) -> bool:
    """The rule for integer arguments: an int or a numpy integer, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _number(value) -> bool:
    """A real number: an int, a float or a numpy number, not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _real(name: str, value, *, zero: bool = False) -> float:
    """The rule for real arguments: ``value`` as a float, once it is a
    number (see :func:`_number`), at most the largest finite float, and
    > 0, or >= 0 with ``zero``; otherwise :class:`PreconditionFailedError`
    names it, with ``name=value`` in its context."""
    if not (_number(value) and (0.0 <= value if zero else 0.0 < value) and value <= sys.float_info.max):
        raise PreconditionFailedError(
            f"{name} must be finite and {'nonnegative' if zero else 'positive'}", **{name: value}
        )
    return float(value)


class ToolkitError(Exception):
    """Base class for all package errors."""

    code = "TOOLKIT_ERROR"

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context


class MalformedPointError(ToolkitError):
    """A point violates the structural invariants of its space."""

    code = "MALFORMED_POINT"


class SpaceMismatchError(ToolkitError):
    """Two points that must live in the same space do not."""

    code = "SPACE_MISMATCH"


class EvalFailureError(ToolkitError):
    """A functional raised or returned a non-finite value."""

    code = "EVAL_FAILURE"


class NonconvergentPerturbationError(ToolkitError):
    """A perturbation sequence does not approach its stated limit."""

    code = "NONCONVERGENT_PERTURBATION"


class NotInComplementError(ToolkitError):
    """A tie witness was requested at a point with a dominant coordinate."""

    code = "NOT_IN_COMPLEMENT"


class NoDoubleMaxError(ToolkitError):
    """A two-maximum witness was requested for a function without one."""

    code = "NO_DOUBLE_MAX"


class PreconditionFailedError(ToolkitError):
    """An operation was invoked outside its stated precondition."""

    code = "PRECONDITION_FAILED"


class NonpositiveVarianceError(ToolkitError):
    """A Gaussian variance entry is zero or negative."""

    code = "NONPOSITIVE_VARIANCE"


class QuadratureNonconvergedError(ToolkitError):
    """A quadrature whose error estimate is above its bound or not finite."""

    code = "QUADRATURE_NONCONVERGED"


class BadDimsError(ToolkitError):
    """A truncation system or a use of it names unusable dimensions.

    Raised for a dimension list that is empty, holds a dimension that is
    not an integer >= 1 or is not strictly increasing, for a dimension that
    is not listed in the system, and for ``connect(s, t)`` with s > t.
    """

    code = "BAD_DIMS"


class DimTooSmallError(ToolkitError):
    """A point has fewer coordinates than a projection requires."""

    code = "DIM_TOO_SMALL"


class NonconstancyUnverifiedError(ToolkitError):
    """Sampling could not distinguish a map from a constant."""

    code = "NONCONSTANCY_UNVERIFIED"


#: Errors that indicate bad input rather than a failed computation.  The CLI
#: exits 2 on these and 3 on the rest.
VALIDATION_ERRORS = (
    MalformedPointError,
    SpaceMismatchError,
    NotInComplementError,
    NoDoubleMaxError,
    PreconditionFailedError,
    NonpositiveVarianceError,
    BadDimsError,
    DimTooSmallError,
)
