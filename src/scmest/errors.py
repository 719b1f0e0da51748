"""Exception taxonomy shared across the package.

Every error raised by this package derives from :class:`ScmestError`, and each
class also inherits the closest builtin so callers can catch either way
(e.g. ``DimensionMismatch`` is a ``ValueError``).  The three fit failures
carry the ``cause`` of the Newton engine status they stand for
(``singular``, ``overflow``, ``max_iter``), so failure counts use one
vocabulary whether a fit ran alone or as a bootstrap slot.
"""

__all__ = [
    "ScmestError",
    "DomainError",
    "ConvergenceError",
    "DimensionMismatch",
    "InvalidLabel",
    "NumericOverflow",
    "EmptyDataset",
    "SingularHessian",
    "NonConverged",
    "MissingSampler",
    "TooManyFailures",
    "ParseError",
]


class ScmestError(Exception):
    """Base class for all package errors."""


class DomainError(ScmestError, ValueError):
    """Input outside the mathematical domain of a function."""


class ConvergenceError(ScmestError, RuntimeError):
    """An iterative scalar routine (bisection) failed to converge or bracket."""


class DimensionMismatch(ScmestError, ValueError):
    """Inconsistent vector/matrix dimensions between model, data, and parameters."""


class InvalidLabel(ScmestError, ValueError):
    """A response value outside the label set admitted by the loss."""


class NumericOverflow(ScmestError, FloatingPointError):
    """An exponential term overflowed double precision; refusing to return inf."""

    cause = "overflow"


class EmptyDataset(ScmestError, ValueError):
    """An operation that needs at least one observation received none."""


class SingularHessian(ScmestError, RuntimeError):
    """A Hessian factorization failed even after a diagonal jitter retry."""

    cause = "singular"


class NonConverged(ScmestError, RuntimeError):
    """A solver result is required to be converged but is not."""

    cause = "max_iter"


class MissingSampler(ScmestError, ValueError):
    """Monte-Carlo calibration was requested without a data-generating process."""


class TooManyFailures(ScmestError, RuntimeError):
    """More than a tenth of Monte-Carlo replications failed; refusing to report."""


def check_failures(causes: dict[str, int], total: int, what: str) -> None:
    """Raise TooManyFailures when more than total/10 of ``total`` ``what`` failed.

    ``causes`` counts the failures per cause, named by the engine statuses;
    the message gives each count, e.g. "3 of 20 replications failed
    (max_iter: 2, singular: 1)".
    """
    failed = sum(causes.values())
    if failed > total / 10:
        detail = ", ".join(f"{cause}: {count}" for cause, count in sorted(causes.items()))
        raise TooManyFailures(f"{failed} of {total} {what} failed ({detail})")


class ParseError(ScmestError, ValueError):
    """A CSV or config document could not be parsed; message cites the location."""
