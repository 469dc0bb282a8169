"""Interbank rate series ingestion and window statistics.

Reads FRED-style exports of the 12-month USD interbank rate (header
``DATE,<SERIES_ID>``, one ``YYYY-MM-DD,<value>`` row per observation,
``.`` marking a date with no published value) and computes the summary
statistics and bank funding rates used by the scenario engine.

Rates are held on the 0-100 percentage scale throughout this module.
Conversion to per-year fractions happens exactly once, at the bank
engine boundary.
"""

from __future__ import annotations

import datetime as dt
import os
from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass
from math import fsum

from .checks import ElementError, finite_real, read_lines

#: Spread (percentage points) the bank pays over the interbank rate.
FUNDS_RATE_SPREAD = 0.25

#: FRED export convention for a date with no published observation.
MISSING_MARKER = "."

#: File name of the bundled rate snapshot shipped with the package.
SNAPSHOT_FILENAME = "libor_usd12m.csv"

RATE_MIN = 0.0
RATE_MAX = 50.0


class LiborLoadError(ValueError):
    """A rate CSV could not be parsed into a usable series."""


class EmptyWindowError(ValueError):
    """A statistics window contains no observations."""


@dataclass(frozen=True)
class LiborSeries:
    """Non-empty rate series: ``rates[i]`` was observed on ``dates[i]``.

    Dates strictly increase; rates are finite, on the 0-100 scale. A bad
    observation raises ``checks.ElementError`` carrying its index.
    """

    dates: tuple[dt.date, ...]
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.dates:
            raise ValueError("series must contain at least one observation")
        if len(self.rates) != len(self.dates):
            raise ValueError(f"series has {len(self.dates)} dates but {len(self.rates)} rates")
        for i, (day, rate) in enumerate(zip(self.dates, self.rates)):
            if i and day <= self.dates[i - 1]:
                raise ElementError(i, f"dates must be strictly increasing; {day} follows {self.dates[i - 1]}")
            try:
                finite_real("rate", rate)
            except ValueError as exc:
                raise ElementError(i, f"{day}: {exc}") from None
            if not RATE_MIN <= rate <= RATE_MAX:
                raise ElementError(i, f"rate {rate!r} on {day} outside [{RATE_MIN}, {RATE_MAX}]")

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def start(self) -> dt.date:
        return self.dates[0]

    @property
    def end(self) -> dt.date:
        return self.dates[-1]

    def rates_in_window(self, start: dt.date | None = None, end: dt.date | None = None) -> tuple[float, ...]:
        """Rates with start <= date <= end; open-ended when a bound is None."""
        lo = 0 if start is None else bisect_left(self.dates, start)
        hi = len(self.dates) if end is None else bisect_right(self.dates, end)
        return self.rates[lo:hi]


#: Median, mean and count of the rates in one window (:func:`window_stats`).
WindowStats = namedtuple("WindowStats", "median mean count")


def load_libor_csv(path) -> LiborSeries:
    """Load a FRED-format rate CSV into a :class:`LiborSeries`.

    The first line must be a header naming the date column and one value
    column. Rows whose value field is ``.`` are skipped (no observation
    published for that date). Any other non-numeric value or an
    unparseable date raises :class:`LiborLoadError` naming the offending
    line, as does a byte that is not UTF-8 or an observation
    :class:`LiborSeries` rejects (a date out of order, a rate non-finite
    or outside [0, 50]).
    """
    if not os.path.exists(path):
        raise LiborLoadError(f"no such file: {path}")

    try:
        lines = read_lines(path)
    except ValueError as exc:  # a byte that is not UTF-8
        raise LiborLoadError(str(exc)) from None
    if not lines:
        raise LiborLoadError(f"{path}: empty file")

    header = lines[0].split(",")
    if len(header) < 2 or "date" not in header[0].strip().lower():
        raise LiborLoadError(
            f"{path}: line 1: expected header naming a date column and a value column, got {lines[0]!r}"
        )

    dates: list[dt.date] = []
    rates: list[float] = []
    linenos: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != len(header):
            raise LiborLoadError(f"{path}: line {lineno}: expected {len(header)} fields, got {len(fields)}")
        date_text, value_text = fields[0].strip(), fields[1].strip()
        try:
            day = dt.date.fromisoformat(date_text)
        except ValueError as exc:
            raise LiborLoadError(f"{path}: line {lineno}: bad date {date_text!r}: {exc}") from exc
        if value_text == MISSING_MARKER:
            continue
        try:
            rate = float(value_text)
        except ValueError as exc:
            raise LiborLoadError(f"{path}: line {lineno}: bad value {value_text!r}") from exc
        dates.append(day)
        rates.append(rate)
        linenos.append(lineno)

    if not dates:
        raise LiborLoadError(f"{path}: no usable rows")
    try:
        return LiborSeries(tuple(dates), tuple(rates))
    except ElementError as exc:
        raise LiborLoadError(f"{path}: line {linenos[exc.index]}: {exc}") from None


def _median(rates: tuple[float, ...]) -> float:
    """The middle value, or the mean of the two middle ones, as ``statistics.median`` takes it."""
    ordered, i = sorted(rates), len(rates) // 2
    return ordered[i] if len(ordered) % 2 else (ordered[i - 1] + ordered[i]) / 2


def window_stats(series: LiborSeries, start: dt.date | None = None, end: dt.date | None = None) -> WindowStats:
    """Median, mean and count over the inclusive date window.

    The median of an even-sized window is the mean of the two central
    values. Raises :class:`EmptyWindowError` when nothing falls inside
    the window.
    """
    if start is not None and end is not None and start > end:
        raise ValueError(f"window start {start} after end {end}")
    rates = series.rates_in_window(start, end)
    if not rates:
        bounds = " ".join(f"{word} {day}" for word, day in (("from", start), ("through", end)) if day)
        raise EmptyWindowError(f"no observations {bounds}; the series spans {series.start} to {series.end}")
    return WindowStats(_median(rates), fsum(rates) / len(rates), len(rates))


def funds_rate(libor: float) -> float:
    """Bank funding rate in percent: the interbank rate plus the fixed spread."""
    if finite_real("interbank rate", libor) < 0:
        raise ValueError(f"interbank rate must be >= 0, got {libor!r}")
    return libor + FUNDS_RATE_SPREAD


def default_snapshot_path():
    """The bundled rate snapshot's ``pathlib.Path``, in ``data/`` beside this module; ``ingest --csv`` reads others."""
    from pathlib import Path

    return Path(__file__).with_name("data") / SNAPSHOT_FILENAME
