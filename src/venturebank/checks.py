"""The one rule for a number handed to the package: a finite real, named when it is not."""

import math
import numbers


class ElementError(ValueError):
    """A record's element ``index`` is bad; a reader maps the index back to the line it read."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def finite_real(name: str, value, *, integer: bool = False):
    """``value`` if a finite real (integral with ``integer``; not ``str`` or ``Decimal``), else ``ValueError``."""
    # A float skips the ABC check, which costs about 20x the type test; this runs once per fund and grid rate.
    if not (type(value) is float or isinstance(value, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer or fraction past the float range
        raise ValueError(f"{name} must be finite, got a number past the float range") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    if integer and not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def checked_fsum(what: str, values) -> float:
    """``math.fsum(values)``; ``ValueError`` naming ``what`` when finite values sum past the float range."""
    try:
        return math.fsum(values)
    except OverflowError:
        raise ValueError(f"{what} sum past the float range") from None
