"""The rules for what is handed to the package (a finite real number, UTF-8 text) and for its sidecar lines."""

import math
import numbers
from pathlib import Path


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


def read_lines(path) -> list[str]:
    """Lines of the UTF-8 text file ``path``, less any leading byte-order mark;
    ``ValueError`` naming the file and line of a byte that is not UTF-8."""
    try:
        return Path(path).read_bytes().decode("utf-8-sig").splitlines()
    except UnicodeDecodeError as exc:  # offsets count from after the mark; lines as ``splitlines`` counts them
        data = exc.object
        line = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise ValueError(f"{path}: line {line}: byte {data[exc.start]:#04x} is not UTF-8") from None


def sidecar_text(entries: list[tuple[object, object]]) -> str:
    """``key=value`` lines in order; ``ValueError`` names a key holding '=' or a line break, or a value holding one."""
    for key, value in entries:
        if "=" in f"{key}" or len(f"{key}={value}.".splitlines()) > 1:  # ``splitlines`` knows every line break
            raise ValueError(f"sidecar key {key!r} must hold no '=' or line break, its value no line break: {value!r}")
    return "\n".join(f"{key}={value}" for key, value in entries) + "\n"
