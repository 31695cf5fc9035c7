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


def _cut(text: str, width: int = 40) -> str:
    """``text`` cut at ``width`` characters, ending in "..." when cut."""
    return text if len(text) <= width else text[: width - 3] + "..."


def _quote(value) -> str:
    """``repr(value)`` cut at 40 characters, so a message that quotes an
    input integer, string or list stays one short line however large it
    is."""
    return _cut(repr(value))


def whole(value, what: str) -> int:
    """``value`` as an int, the one integer reader of the package and its
    files; a fractional number is refused, not truncated, and so is a
    string, which never equals the int it parses to."""
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{what} must be an integer, got {_quote(value)}") from exc
    if out != value:
        raise DomainError(f"{what} must be an integer, got {_quote(value)}")
    return out


# the budgets of every count that a request sizes an allocation by
_BUDGETS = {
    # window, box and view values, transfer point values and point-terms,
    # torus samples, the box values of all trials
    "values": 2**24,
    "pairs": 2**26,  # closed-form point-offset pairs
    # Maclaurin coefficients (every order it admits has int64 weights for
    # n <= 4) and series terms
    "terms": 2**17,
    # scattering trials: each applies the generators to a whole box, so the
    # values budget alone admits minutes of work on a small box
    "trials": 2**10,
}


def _require_within(what: str, count, low=None, budget: str | None = None):
    """Refuse ``count`` below ``low`` or past the ``budget`` entry of
    `_BUDGETS` with DomainError, before anything is allocated, and return
    it.  A floor reads the count with `whole`, returns the int it read and
    quotes the count after ``what``, its name; a budget message follows
    ``what``, a clause that states the count."""
    if low is not None:
        read = whole(count, what)
        if read < low:
            raise DomainError(f"{what} must be >= {low}, got {_quote(count)}")
        count = read
    if budget is not None and count > _BUDGETS[budget]:
        limit = _BUDGETS[budget]
        power = limit.bit_length() - 1
        shown = f"2**{power}" if limit == 2**power else str(limit)
        raise DomainError(f"{what}, past the budget of {shown} {budget}")
    return count


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
