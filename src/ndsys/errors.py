"""Exception types shared across the package.

Every deliberate failure mode raises one of these; plain ValueError or
numpy errors escaping the public API is a bug.
"""

from __future__ import annotations

__all__ = [
    "NdsysError",
    "ArityError",
    "ShapeError",
    "RangeError",
    "DomainError",
    "PreconditionError",
    "SingularityError",
    "DivergenceError",
    "RankAmbiguityError",
    "RealizationError",
]


def _quote(value) -> str:
    """``repr(value)`` cut at 40 characters, so a message that quotes an
    input integer or list stays one short line however large it is."""
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


class NdsysError(Exception):
    """Base class for all package errors."""


class ArityError(NdsysError):
    """A tuple-of-operators argument has the wrong number of members."""


class ShapeError(NdsysError):
    """Matrix dimensions do not admit the requested composition."""


class RangeError(NdsysError):
    """A result left the representable range: an exact integer past int64,
    or a float past the float range."""


class DomainError(NdsysError):
    """An argument lies outside the mathematical domain of the operation."""


class PreconditionError(NdsysError):
    """A semantic precondition (beyond shapes) does not hold."""


class SingularityError(NdsysError):
    """A linear solve met a singular matrix.

    Attributes
    ----------
    sigma_min : float
        Smallest singular value of the offending matrix.
    """

    def __init__(self, message: str, sigma_min: float):
        super().__init__(message)
        self.sigma_min = float(sigma_min)


class DivergenceError(NdsysError):
    """A series evaluation was requested outside its disc of convergence."""


class RankAmbiguityError(NdsysError):
    """A numerical rank decision fell inside the configured dead zone."""


class RealizationError(NdsysError):
    """The colligation assembly could not be completed or verified.

    Attributes
    ----------
    report : dict | None
        Residual diagnostics collected before the failure, if any.
    """

    def __init__(self, message: str, report: dict | None = None):
        super().__init__(message)
        self.report = report
